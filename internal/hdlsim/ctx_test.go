package hdlsim

import (
	"testing"

	"repro/internal/sim"
)

func TestWaitCyclesCountsEdgesWithoutResuming(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	var wakes []uint64
	p := s.Thread("waiter", func(c *Ctx) {
		for i := 0; i < 3; i++ {
			c.WaitCycles(clk, 5)
			wakes = append(wakes, clk.Cycles())
		}
	})
	if err := s.RunCycles(clk, 20); err != nil {
		t.Fatal(err)
	}
	want := []uint64{5, 10, 15}
	if len(wakes) != len(want) {
		t.Fatalf("wakes %v, want %v", wakes, want)
	}
	for i := range want {
		if wakes[i] != want[i] {
			t.Fatalf("wakes %v, want %v", wakes, want)
		}
	}
	// The thread resumed exactly 4 times: initialization + 3 wakes — the
	// counting wait must not resume it on intermediate edges.
	if p.Runs() != 4 {
		t.Fatalf("process resumed %d times, want 4 (counting wait broken)", p.Runs())
	}
}

func TestWaitCyclesZeroIsNoop(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	ran := false
	s.Thread("z", func(c *Ctx) {
		c.WaitCycles(clk, 0)
		ran = true
	})
	if err := s.RunCycles(clk, 1); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("WaitCycles(0) blocked")
	}
}

func TestTwoCountingWaitersIndependentCounts(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	var a, b uint64
	s.Thread("a", func(c *Ctx) {
		c.WaitCycles(clk, 3)
		a = clk.Cycles()
	})
	s.Thread("b", func(c *Ctx) {
		c.WaitCycles(clk, 7)
		b = clk.Cycles()
	})
	if err := s.RunCycles(clk, 10); err != nil {
		t.Fatal(err)
	}
	if a != 3 || b != 7 {
		t.Fatalf("a woke at %d (want 3), b at %d (want 7)", a, b)
	}
}

func TestWaitAnyMixedWithCountingWaiter(t *testing.T) {
	// A one-shot waiter and a counting waiter on the same event must not
	// disturb each other.
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	var oneShot, counted uint64
	s.Thread("one", func(c *Ctx) {
		c.Wait(clk.Posedge())
		oneShot = clk.Cycles()
	})
	s.Thread("cnt", func(c *Ctx) {
		c.WaitCycles(clk, 4)
		counted = clk.Cycles()
	})
	if err := s.RunCycles(clk, 6); err != nil {
		t.Fatal(err)
	}
	if oneShot != 1 {
		t.Fatalf("one-shot woke at cycle %d, want 1", oneShot)
	}
	if counted != 4 {
		t.Fatalf("counting waiter woke at cycle %d, want 4", counted)
	}
}

func TestNotifyImmediateRunsSameDelta(t *testing.T) {
	s := NewSimulator("t")
	ev := s.NewEvent("e")
	var order []string
	s.Method("reactor", func() { order = append(order, "reactor") }, ev).DontInitialize()
	s.Method("kicker", func() {
		order = append(order, "kick")
		ev.NotifyImmediate()
	})
	if err := s.Run(sim.NS(1)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(order) != 2 || order[0] != "kick" || order[1] != "reactor" {
		t.Fatalf("order %v", order)
	}
	// Immediate notification: both ran within one delta.
	if st.Deltas != 1 {
		t.Fatalf("deltas = %d, want 1 for immediate notify", st.Deltas)
	}
}

func TestEventCancelWhileDeltaPending(t *testing.T) {
	s := NewSimulator("t")
	ev := s.NewEvent("e")
	runs := 0
	s.Method("m", func() { runs++ }, ev).DontInitialize()
	s.Method("kick", func() {
		ev.Notify()
		ev.Cancel()
	})
	if err := s.Run(sim.NS(1)); err != nil {
		t.Fatal(err)
	}
	if runs != 0 {
		t.Fatalf("cancelled delta notification still fired %d times", runs)
	}
}

func TestNotifyWakesThreadThatWaitsLaterInSameDelta(t *testing.T) {
	// The event has no listener when Notify runs; the thread only starts
	// waiting afterwards, in the same evaluation phase. A process-side
	// Notify must still queue, so the thread wakes in the next delta.
	s := NewSimulator("t")
	ev := s.NewEvent("e")
	s.Method("notifier", func() { ev.Notify() })
	woke := false
	var wokeAt sim.Time
	var wokeDelta uint64
	s.Thread("waiter", func(c *Ctx) {
		c.Wait(ev)
		woke, wokeAt = true, c.Now()
		wokeDelta = c.Sim().Stats().Deltas
	})
	if err := s.Run(sim.NS(1)); err != nil {
		t.Fatal(err)
	}
	if !woke || wokeAt != 0 || wokeDelta != 2 {
		t.Fatalf("waiter woke=%v at %v in delta %d, want time 0 in delta 2", woke, wokeAt, wokeDelta)
	}
	if got := s.Stats().EventTriggers; got != 1 {
		t.Fatalf("EventTriggers = %d, want 1", got)
	}
}

func TestUpdateOnListenerFreeEventCountsAndCancelsTimed(t *testing.T) {
	// Nobody listens on sig's value-changed event. Its commit still counts
	// exactly one trigger and, like Notify, cancels the pending timed
	// notification, which would otherwise count a second one at 5ns.
	s := NewSimulator("t")
	sig := NewSignal[int](s, "sig")
	s.Method("writer", func() {
		sig.Changed().NotifyDelay(sim.NS(5))
		sig.Write(1)
	})
	if err := s.Run(sim.NS(10)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().EventTriggers; got != 1 {
		t.Fatalf("EventTriggers = %d, want 1", got)
	}
	if ev := sig.Changed(); ev.timedHandle.Valid() || ev.deltaPending {
		t.Fatal("commit left a notification pending")
	}
}
