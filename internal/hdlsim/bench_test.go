package hdlsim

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// The bare clock cycle and the posedge method fan-out are gated in the
// Kernel/ family of cmd/cosim-bench; these cover the other kernel paths.

// BenchmarkKernelSignalChain measures a delta-cascade: a write rippling
// through an 8-stage combinational chain each cycle.
func BenchmarkKernelSignalChain(b *testing.B) {
	s := NewSimulator("b")
	clk := s.NewClock("clk", sim.NS(10))
	const depth = 8
	sigs := make([]*Signal[uint64], depth)
	for i := range sigs {
		sigs[i] = NewSignal[uint64](s, fmt.Sprintf("s%d", i))
	}
	s.Method("src", func() { sigs[0].Write(sigs[0].Read() + 1) }, clk.Posedge()).DontInitialize()
	for i := 0; i < depth-1; i++ {
		i := i
		s.Method(fmt.Sprintf("st%d", i), func() { sigs[i+1].Write(sigs[i].Read()) },
			sigs[i].Changed()).DontInitialize()
	}
	if err := s.Elaborate(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := s.RunCycles(clk, uint64(b.N)); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkKernelThreadWaitCycles measures the counting-wait fast path: a
// thread waking every 100 cycles must cost almost nothing per cycle.
func BenchmarkKernelThreadWaitCycles(b *testing.B) {
	s := NewSimulator("b")
	clk := s.NewClock("clk", sim.NS(10))
	wakes := 0
	s.Thread("sleeper", func(c *Ctx) {
		for {
			c.WaitCycles(clk, 100)
			wakes++
		}
	})
	if err := s.Elaborate(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := s.RunCycles(clk, uint64(b.N)); err != nil {
		b.Fatal(err)
	}
	_ = wakes
}

// BenchmarkEventNotify measures raw event dispatch. The whole chain runs
// at one instant by construction, so the combinational-loop guard must be
// lifted out of the way.
func BenchmarkEventNotify(b *testing.B) {
	s := NewSimulator("b")
	s.MaxDeltasPerInstant = uint64(b.N) + 10
	ev := s.NewEvent("e")
	n := 0
	s.Method("m", func() {
		n++
		if n < b.N {
			ev.Notify()
		}
	}, ev)
	b.ResetTimer()
	if err := s.Run(sim.NS(1)); err != nil {
		b.Fatal(err)
	}
}
