//go:build !race

package rtos

// Without the race detector the zero-allocation gates are exact.
const raceAllocSlack = 0.0
