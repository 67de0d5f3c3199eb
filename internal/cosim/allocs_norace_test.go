//go:build !race

package cosim

// Without the race detector the scratch pool keeps what it is given:
// budgets are enforced as written.
const raceAllocSlack = 1.0
