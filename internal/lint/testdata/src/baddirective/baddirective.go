// Package baddirective holds directives the suite must reject: an escape
// hatch with no justification, or of a kind the suite does not know, is
// itself a finding.
package baddirective

import "time"

func noReason() time.Time {
	return time.Now() //cosim:wallclock
}

func noAnalyzer() {
	_ = 1 //cosim:ignore -- a reason without naming the analyzer it silences
}

func retiredKind() {
	_ = 2 //cosim:owns -- a kind retired with the payload pools
}
