//go:build race

package rtos

// The race runtime may allocate on its own behalf inside an instrumented
// run; the zero-allocation gates keep a fraction of one allocation per
// run of slack there, which still fails on any per-event allocation.
const raceAllocSlack = 0.5
