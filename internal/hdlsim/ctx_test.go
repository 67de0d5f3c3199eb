package hdlsim

import (
	"fmt"
	"math"
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

func TestWaitCyclesMaxCountSleeps(t *testing.T) {
	// The second wait starts after three triggers, so its wake number
	// would wrap past the top of the counter if it were not capped.
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	wakes := 0
	s.Thread("sleeper", func(c *Ctx) {
		c.WaitCycles(clk, 3)
		wakes++
		c.WaitCycles(clk, math.MaxUint64)
		wakes++
	})
	if err := s.RunCycles(clk, 10); err != nil {
		t.Fatal(err)
	}
	if wakes != 1 {
		t.Fatalf("%d wakes, want 1: a wait of MaxUint64 cycles ended", wakes)
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

// TestCountingWaitsWakeOrder pins when, and in which order, threads in
// counting waits wake when they share a clock with the other kinds of
// dynamic waiter: a WaitTimeout that times out (its entry leaves the
// posedge's waiter list between edges), a WaitAny woken by its other event
// (same), and a method that notifies the posedge once between edges, a
// trigger that counts toward every counting wait. The log is one entry per
// wake, in execution order, so threads woken by one edge appear in their
// wake order.
func TestCountingWaitsWakeOrder(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	ev := s.NewEvent("ev")
	var log []string
	at := func(name string, c *Ctx) {
		log = append(log, fmt.Sprintf("%s@%d", name, uint64(c.Now()/sim.Nanosecond)))
	}
	counting := func(name string, n uint64, times int) {
		s.Thread(name, func(c *Ctx) {
			for i := 0; i < times; i++ {
				c.WaitCycles(clk, n)
				at(name, c)
			}
		})
	}
	counting("c3a", 3, 4)
	counting("c1", 1, 10)
	counting("c3b", 3, 4)
	counting("c5", 5, 3)
	s.Thread("tmo", func(c *Ctx) {
		c.WaitTime(sim.NS(12))
		at(fmt.Sprintf("tmo:%v", c.WaitTimeout(clk.Posedge(), sim.NS(3))), c)
	})
	s.Thread("any", func(c *Ctx) {
		c.WaitTime(sim.NS(7))
		ev.NotifyDelay(sim.NS(1))
		at("any:"+c.WaitAny(clk.Posedge(), ev).Name(), c)
		at("any:"+c.WaitAny(clk.Posedge(), ev).Name(), c)
	})
	negedges := 0
	s.Method("kick", func() {
		if negedges++; negedges == 3 {
			clk.Posedge().Notify()
		}
	}, clk.Negedge()).DontInitialize()
	if err := s.RunCycles(clk, 16); err != nil {
		t.Fatal(err)
	}
	// c3a and c3b wake together in list order; the kick at 25 ns is the
	// extra trigger that moves c5 from 40 to 30 and every later wake of
	// c3a, c3b and c5 one edge earlier.
	want := []string{
		"c1@0",
		"any:ev@8",
		"c1@10", "any:clk.posedge@10",
		"tmo:false@15",
		"c3a@20", "c3b@20", "c1@20",
		"c1@25",
		"c5@30", "c1@30",
		"c3a@40", "c3b@40", "c1@40",
		"c1@50",
		"c1@60",
		"c3a@70", "c3b@70", "c1@70",
		"c5@80", "c1@80",
		"c3a@100", "c3b@100",
		"c5@130",
	}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("wakes\n got %v\nwant %v", log, want)
	}
}
