package hdlsim

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestAllocsKernelQuantum pins the steady-state allocation cost of the
// clocked kernel: once the event-queue freelist and the wake/notify
// scratch slices are warm, running a quantum's worth of cycles must not
// allocate per cycle. A clock keeps its next edge in its own fields, not
// on the timed heap, and a quiet edge commits in place, so an edge
// allocates nothing. Per-cycle garbage was the dominant term of the
// pre-arena allocs_per_quantum (~2 allocs per clock cycle).
func TestAllocsKernelQuantum(t *testing.T) {
	s := NewSimulator("allocs")
	clk := s.NewClock("clk", sim.NS(10))
	ctr := 0
	for i := 0; i < 4; i++ {
		s.Method(fmt.Sprintf("m%d", i), func() { ctr++ }, clk.Posedge()).DontInitialize()
	}
	if err := s.Elaborate(); err != nil {
		t.Fatal(err)
	}
	// Warm the freelists (and pay one-time elaboration survivors).
	if err := s.RunCycles(clk, 200); err != nil {
		t.Fatal(err)
	}
	const cycles = 100 // one TSync-sized quantum per run
	quantum := func() {
		if err := s.RunCycles(clk, cycles); err != nil {
			t.Fatal(err)
		}
	}
	// Steady state is 0; the budget leaves room for runtime noise while
	// still failing on any per-cycle allocation (which would cost ≥100).
	const budget = 5.0
	if avg := testing.AllocsPerRun(100, quantum); avg > budget {
		t.Errorf("kernel quantum (%d cycles): %.2f allocs/run, budget %.1f", cycles, avg, budget)
	}
	_ = ctr
}
