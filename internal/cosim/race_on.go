//go:build race

package cosim

const raceEnabled = true
