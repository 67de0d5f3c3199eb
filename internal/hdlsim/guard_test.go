package hdlsim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestCombinationalLoopDetected(t *testing.T) {
	// Two methods re-triggering each other through two signals: a
	// combinational loop that never settles within the instant.
	s := NewSimulator("t")
	s.MaxDeltasPerInstant = 500
	a := NewSignal[int](s, "a")
	b := NewSignal[int](s, "b")
	s.Method("pa", func() { b.Write(a.Read() + 1) }, a.Changed()).DontInitialize()
	s.Method("pb", func() { a.Write(b.Read() + 1) }, b.Changed()).DontInitialize()
	s.Method("kick", func() { a.Write(1) })
	err := s.Run(sim.NS(1))
	if err == nil {
		t.Fatal("combinational loop not detected")
	}
	if !strings.Contains(err.Error(), "delta cycles") {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestCombinationalLoopDetectedUnderRunCycles(t *testing.T) {
	s := NewSimulator("t")
	s.MaxDeltasPerInstant = 500
	clk := s.NewClock("clk", sim.NS(10))
	a := NewSignal[int](s, "a")
	s.Method("osc", func() { a.Write(a.Read() + 1) }, a.Changed()).DontInitialize()
	s.Method("kick", func() { a.Write(1) }, clk.Posedge()).DontInitialize()
	if err := s.RunCycles(clk, 3); err == nil {
		t.Fatal("loop under RunCycles not detected")
	}
	// The first posedge's own delta counts toward the limit: 500 deltas
	// at time 0 are the clock's update delta, kick's and 498 of osc's.
	want := Stats{Deltas: 500, TimeSteps: 1, ProcessRuns: 499, SignalUpdates: 500, EventTriggers: 501}
	if got := s.Stats(); got != want {
		t.Fatalf("stats at overflow = %+v, want %+v", got, want)
	}
	if got := a.Read(); got != 499 {
		t.Fatalf("a at overflow = %d, want 499", got)
	}
}

func TestSettlingDesignUnaffectedByGuard(t *testing.T) {
	// A deep but finite cascade (well below the limit) must still settle.
	s := NewSimulator("t")
	s.MaxDeltasPerInstant = 1000
	const depth = 200
	sigs := make([]*Signal[int], depth)
	for i := range sigs {
		sigs[i] = NewSignal[int](s, "s")
	}
	for i := 0; i < depth-1; i++ {
		i := i
		s.Method(fmt.Sprintf("st%d", i), func() { sigs[i+1].Write(sigs[i].Read() + 1) },
			sigs[i].Changed()).DontInitialize()
	}
	s.Method("kick", func() { sigs[0].Write(1) })
	if err := s.Run(sim.NS(1)); err != nil {
		t.Fatal(err)
	}
	if got := sigs[depth-1].Read(); got != depth {
		t.Fatalf("cascade tail = %d, want %d", got, depth)
	}
}
