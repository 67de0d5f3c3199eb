package experiments

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestEveryExperimentRuns exercises each figure/ablation generator in its
// quick form and sanity-checks the headline property of each table. It is
// the regression net for cmd/cosim-experiments.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment sweep; skipped in -short")
	}
	opt := quickOpt()

	t.Run("Fig5", func(t *testing.T) {
		tbl, err := Fig5(opt)
		if err != nil {
			t.Fatal(err)
		}
		// Wall time grows with N within each Tsync column (allowing one
		// inversion for machine noise).
		inversions := 0
		for col := 1; col < len(tbl.Header)-1; col++ {
			for row := 1; row < len(tbl.Rows); row++ {
				if cell(t, tbl, row, col) < cell(t, tbl, row-1, col) {
					inversions++
				}
			}
		}
		if inversions > 2 {
			t.Fatalf("fig5 not monotone in N (%d inversions):\n%v", inversions, tbl.Rows)
		}
		// The tightest coupling is slower than the loosest at max N.
		last := len(tbl.Rows) - 1
		if cell(t, tbl, last, 1) <= cell(t, tbl, last, len(tbl.Header)-2) {
			t.Fatalf("fig5: Tsync=1000 not slower than Tsync=10000: %v", tbl.Rows[last])
		}
	})

	t.Run("Fig8", func(t *testing.T) {
		tbl, err := Fig8(opt)
		if err != nil {
			t.Fatal(err)
		}
		// The optimum note names a Tsync from the sweep.
		if len(tbl.Notes) == 0 || !strings.Contains(tbl.Notes[0], "optimal Tsync") {
			t.Fatalf("fig8 notes: %v", tbl.Notes)
		}
	})

	t.Run("A1", func(t *testing.T) {
		tbl, err := AblationPolicies(opt)
		if err != nil {
			t.Fatal(err)
		}
		// Lockstep is 100% accurate and has the most sync events.
		if tbl.Rows[0][1] != "1.000" {
			t.Fatalf("lockstep accuracy %s", tbl.Rows[0][1])
		}
		lock, _ := strconv.Atoi(tbl.Rows[0][3])
		q1000, _ := strconv.Atoi(tbl.Rows[1][3])
		if lock <= q1000 {
			t.Fatalf("lockstep syncs %d not above quantum %d", lock, q1000)
		}
	})

	t.Run("A4", func(t *testing.T) {
		tbl, err := AblationSyncMode(opt)
		if err != nil {
			t.Fatal(err)
		}
		// At Tsync=4000 pipelined must be less accurate than alternating
		// (one extra quantum of latency halves the knee).
		var alt, pipe float64
		for _, row := range tbl.Rows {
			if row[0] == "4000" && row[1] == "alternating" {
				alt, _ = strconv.ParseFloat(row[2], 64)
			}
			if row[0] == "4000" && row[1] == "pipelined" {
				pipe, _ = strconv.ParseFloat(row[2], 64)
			}
		}
		if pipe >= alt {
			t.Fatalf("pipelined accuracy %.3f not below alternating %.3f at the knee", pipe, alt)
		}
	})

	t.Run("A5", func(t *testing.T) {
		tbl, err := AblationMultiBoard(opt)
		if err != nil {
			t.Fatal(err)
		}
		one, _ := strconv.ParseFloat(tbl.Rows[0][1], 64)
		two, _ := strconv.ParseFloat(tbl.Rows[1][1], 64)
		if two <= one {
			t.Fatalf("two boards (%.3f) did not beat one (%.3f)", two, one)
		}
	})

	t.Run("A6", func(t *testing.T) {
		tbl, err := AblationIRQLatency(opt)
		if err != nil {
			t.Fatal(err)
		}
		// Latency never exceeds one quantum, and every cell is pinned:
		// the schedule is a deterministic function of Tsync.
		want := [][]string{
			{"100", "11", "56", "98", "0.98"},
			{"500", "160", "322", "483", "0.97"},
			{"1000", "660", "822", "983", "0.98"},
			{"5000", "4660", "4822", "4983", "1.00"},
		}
		if !slices.EqualFunc(tbl.Rows, want, slices.Equal[[]string]) {
			t.Fatalf("IRQ latency rows\n got %v\nwant %v", tbl.Rows, want)
		}
	})

	t.Run("E2", func(t *testing.T) {
		tbl, err := ExpServoQuality(opt)
		if err != nil {
			t.Fatal(err)
		}
		// Every column but wall[ms] is pinned: the first three rows
		// settle, the loop destabilizes at the last.
		want := [][]string{
			{"250", "22", "6.3", "true", "240"},
			{"1000", "27", "18.5", "true", "120"},
			{"2000", "42", "86.9", "true", "60"},
			{"6000", "50771", "11622.5", "false", "20"},
		}
		var got [][]string
		for _, row := range tbl.Rows {
			got = append(got, row[:5])
		}
		if !slices.EqualFunc(got, want, slices.Equal[[]string]) {
			t.Fatalf("servo quality rows\n got %v\nwant %v", got, want)
		}
	})

	t.Run("RenderAll", func(t *testing.T) {
		tbl := &Table{Title: "x", Header: []string{"a"}}
		tbl.Append(1)
		var buf bytes.Buffer
		if err := tbl.Write(&buf); err != nil {
			t.Fatal(err)
		}
	})
}
