package hdlsim

import (
	"testing"

	"repro/internal/sim"
)

func TestMethodInitializationRun(t *testing.T) {
	s := NewSimulator("t")
	runs := 0
	s.Method("init", func() { runs++ })
	noRuns := 0
	s.Method("noinit", func() { noRuns++ }).DontInitialize()
	if err := s.Run(sim.NS(1)); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("initialized method ran %d times, want 1", runs)
	}
	if noRuns != 0 {
		t.Fatalf("dont_initialize method ran %d times, want 0", noRuns)
	}
}

func TestSignalEvaluateUpdateSemantics(t *testing.T) {
	s := NewSimulator("t")
	sig := NewSignal[int](s, "sig")
	ev := s.NewEvent("go")

	var seenDuringWrite, seenAfterUpdate int
	s.Method("writer", func() {
		sig.Write(42)
		seenDuringWrite = sig.Read() // must still be the old value
	}, ev).DontInitialize()
	s.Method("reader", func() {
		seenAfterUpdate = sig.Read()
	}, sig.Changed()).DontInitialize()

	ev.NotifyDelay(sim.NS(1))
	if err := s.Run(sim.NS(2)); err != nil {
		t.Fatal(err)
	}
	if seenDuringWrite != 0 {
		t.Fatalf("read during evaluation saw %d, want pre-update 0", seenDuringWrite)
	}
	if seenAfterUpdate != 42 {
		t.Fatalf("reader after update saw %d, want 42", seenAfterUpdate)
	}
}

func TestSignalLastWriteWinsWithinDelta(t *testing.T) {
	s := NewSimulator("t")
	sig := NewSignal[int](s, "sig")
	s.Method("w", func() {
		sig.Write(1)
		sig.Write(2)
		sig.Write(3)
	})
	if err := s.Run(sim.NS(1)); err != nil {
		t.Fatal(err)
	}
	if got := sig.Read(); got != 3 {
		t.Fatalf("signal = %d, want last write 3", got)
	}
}

func TestSignalNoChangeNoNotify(t *testing.T) {
	s := NewSimulator("t")
	sig := NewSignalInit(s, "sig", 7)
	ev := s.NewEvent("go")
	wakeups := 0
	s.Method("w", func() { sig.Write(7) }, ev).DontInitialize() // same value
	s.Method("r", func() { wakeups++ }, sig.Changed()).DontInitialize()
	ev.NotifyDelay(sim.NS(1))
	if err := s.Run(sim.NS(2)); err != nil {
		t.Fatal(err)
	}
	if wakeups != 0 {
		t.Fatalf("value-changed fired %d times for a no-op write, want 0", wakeups)
	}
}

func TestDeltaCycleCascade(t *testing.T) {
	// a -> b -> c through signals: three deltas at the same instant.
	s := NewSimulator("t")
	a := NewSignal[int](s, "a")
	b := NewSignal[int](s, "b")
	c := NewSignal[int](s, "c")
	s.Method("pa", func() { b.Write(a.Read() + 1) }, a.Changed()).DontInitialize()
	s.Method("pb", func() { c.Write(b.Read() + 1) }, b.Changed()).DontInitialize()
	start := s.NewEvent("start")
	s.Method("kick", func() { a.Write(10) }, start).DontInitialize()
	start.NotifyDelay(sim.NS(1))
	if err := s.Run(sim.NS(1)); err != nil {
		t.Fatal(err)
	}
	if s.Now() != sim.NS(1) {
		t.Fatalf("now = %v, want 1ns", s.Now())
	}
	if a.Read() != 10 || b.Read() != 11 || c.Read() != 12 {
		t.Fatalf("cascade: a=%d b=%d c=%d, want 10,11,12", a.Read(), b.Read(), c.Read())
	}
}

func TestEventDeltaNotifyDedup(t *testing.T) {
	s := NewSimulator("t")
	ev := s.NewEvent("e")
	runs := 0
	s.Method("m", func() { runs++ }, ev).DontInitialize()
	s.Method("kick", func() {
		ev.Notify()
		ev.Notify() // duplicate in same delta must coalesce
	})
	if err := s.Run(sim.NS(1)); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("method ran %d times, want 1", runs)
	}
}

func TestEventTimedEarlierWins(t *testing.T) {
	s := NewSimulator("t")
	ev := s.NewEvent("e")
	var firedAt []sim.Time
	s.Method("m", func() { firedAt = append(firedAt, s.Now()) }, ev).DontInitialize()
	ev.NotifyDelay(sim.NS(10))
	ev.NotifyDelay(sim.NS(5)) // earlier overrides
	ev.NotifyDelay(sim.NS(8)) // later is ignored
	if err := s.Run(sim.NS(20)); err != nil {
		t.Fatal(err)
	}
	if len(firedAt) != 1 || firedAt[0] != sim.NS(5) {
		t.Fatalf("fired at %v, want exactly once at 5ns", firedAt)
	}
}

func TestEventCancel(t *testing.T) {
	s := NewSimulator("t")
	ev := s.NewEvent("e")
	runs := 0
	s.Method("m", func() { runs++ }, ev).DontInitialize()
	ev.NotifyDelay(sim.NS(5))
	ev.Cancel()
	if err := s.Run(sim.NS(20)); err != nil {
		t.Fatal(err)
	}
	if runs != 0 {
		t.Fatalf("cancelled event still fired %d times", runs)
	}
}

func TestThreadWaitTimeAdvancesClock(t *testing.T) {
	s := NewSimulator("t")
	var stamps []sim.Time
	s.Thread("th", func(c *Ctx) {
		for i := 0; i < 3; i++ {
			c.WaitTime(sim.NS(10))
			stamps = append(stamps, c.Now())
		}
	})
	if err := s.Run(sim.NS(100)); err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{sim.NS(10), sim.NS(20), sim.NS(30)}
	if len(stamps) != len(want) {
		t.Fatalf("stamps %v, want %v", stamps, want)
	}
	for i := range want {
		if stamps[i] != want[i] {
			t.Fatalf("stamps %v, want %v", stamps, want)
		}
	}
}

func TestThreadWaitEventAndProducerConsumer(t *testing.T) {
	s := NewSimulator("t")
	ev := s.NewEvent("data")
	var got []int
	shared := 0
	s.Thread("producer", func(c *Ctx) {
		for i := 1; i <= 5; i++ {
			c.WaitTime(sim.NS(7))
			shared = i
			ev.Notify()
		}
	})
	s.Thread("consumer", func(c *Ctx) {
		for {
			c.Wait(ev)
			got = append(got, shared)
		}
	})
	if err := s.Run(sim.NS(100)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("consumer got %v, want 5 items", got)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("consumer got %v", got)
		}
	}
}

func TestThreadWaitAnyReportsCause(t *testing.T) {
	s := NewSimulator("t")
	e1 := s.NewEvent("e1")
	e2 := s.NewEvent("e2")
	var cause string
	s.Thread("th", func(c *Ctx) {
		got := c.WaitAny(e1, e2)
		cause = got.Name()
	})
	e2.NotifyDelay(sim.NS(3))
	if err := s.Run(sim.NS(10)); err != nil {
		t.Fatal(err)
	}
	if cause != "e2" {
		t.Fatalf("wake cause %q, want e2", cause)
	}
}

func TestThreadWaitTimeout(t *testing.T) {
	s := NewSimulator("t")
	ev := s.NewEvent("never")
	var fired, timedOut bool
	s.Thread("th", func(c *Ctx) {
		fired = c.WaitTimeout(ev, sim.NS(5))
		timedOut = !fired
	})
	if err := s.Run(sim.NS(10)); err != nil {
		t.Fatal(err)
	}
	if fired || !timedOut {
		t.Fatalf("WaitTimeout: fired=%v timedOut=%v, want timeout", fired, timedOut)
	}

	// And the converse: event beats timeout.
	s2 := NewSimulator("t2")
	ev2 := s2.NewEvent("soon")
	var fired2 bool
	s2.Thread("th", func(c *Ctx) {
		fired2 = c.WaitTimeout(ev2, sim.NS(50))
	})
	ev2.NotifyDelay(sim.NS(2))
	if err := s2.Run(sim.NS(10)); err != nil {
		t.Fatal(err)
	}
	if !fired2 {
		t.Fatal("WaitTimeout reported timeout although event fired first")
	}
}

func TestClockEdgesAndCycles(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	pos, neg := 0, 0
	s.Method("p", func() { pos++ }, clk.Posedge()).DontInitialize()
	s.Method("n", func() { neg++ }, clk.Negedge()).DontInitialize()
	if err := s.Run(sim.NS(95)); err != nil {
		t.Fatal(err)
	}
	// Edges at 0,5,10,15,...: posedges at 0,10,...,90 → 10; negedges at 5..95 → 10.
	if pos != 10 {
		t.Fatalf("posedges = %d, want 10", pos)
	}
	if neg != 10 {
		t.Fatalf("negedges = %d, want 10", neg)
	}
	if clk.Cycles() != 10 {
		t.Fatalf("clock cycles = %d, want 10", clk.Cycles())
	}
}

func TestRunCyclesCounts(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	if err := s.RunCycles(clk, 25); err != nil {
		t.Fatal(err)
	}
	if clk.Cycles() != 25 {
		t.Fatalf("cycles = %d, want 25", clk.Cycles())
	}
}

func TestRunCyclesStarvationError(t *testing.T) {
	s := NewSimulator("t")
	clk := &Clock{sig: NewBitSignal(s, "fake")} // never started: no edges
	err := s.RunCycles(clk, 1)
	if err == nil {
		t.Fatal("RunCycles on a dead clock must report starvation")
	}
}

func TestStopEndsRun(t *testing.T) {
	s := NewSimulator("t")
	n := 0
	s.Thread("th", func(c *Ctx) {
		for {
			c.WaitTime(sim.NS(1))
			n++
			if n == 5 {
				c.Sim().Stop()
			}
		}
	})
	if err := s.Run(sim.NS(1000)); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("thread iterated %d times, want 5 (Stop ignored?)", n)
	}
	if !s.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

func TestDuplicateProcessNameRejected(t *testing.T) {
	s := NewSimulator("t")
	s.Method("dup", func() {})
	s.Method("dup", func() {})
	if err := s.Elaborate(); err == nil {
		t.Fatal("Elaborate accepted duplicate process names")
	}
}

func TestRegistrationAfterElaborationPanics(t *testing.T) {
	s := NewSimulator("t")
	if err := s.Elaborate(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Method after elaboration did not panic")
		}
	}()
	s.Method("late", func() {})
}

func TestClockAfterElaborationPanics(t *testing.T) {
	// A clock's first edge is set at creation, at time 0; a clock created
	// after elaboration would have its first edge in the past.
	s := NewSimulator("t")
	s.NewClock("clk", sim.NS(10))
	if err := s.Elaborate(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewClock after elaboration did not panic")
		}
	}()
	s.NewClock("late", sim.NS(10))
}

func TestBitSignalEdgeEvents(t *testing.T) {
	s := NewSimulator("t")
	b := NewBitSignal(s, "b")
	var edges []string
	s.Method("pos", func() { edges = append(edges, "pos") }, b.Posedge()).DontInitialize()
	s.Method("neg", func() { edges = append(edges, "neg") }, b.Negedge()).DontInitialize()
	s.Thread("drv", func(c *Ctx) {
		b.Write(true)
		c.WaitTime(sim.NS(1))
		b.Write(false)
		c.WaitTime(sim.NS(1))
		b.Write(false) // no edge
		c.WaitTime(sim.NS(1))
		b.Write(true)
	})
	if err := s.Run(sim.NS(10)); err != nil {
		t.Fatal(err)
	}
	want := []string{"pos", "neg", "pos"}
	if len(edges) != len(want) {
		t.Fatalf("edges %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edges %v, want %v", edges, want)
		}
	}
}

func TestPortBindingAndUse(t *testing.T) {
	s := NewSimulator("t")
	sig := NewSignal[uint32](s, "wire")
	in := NewIn[uint32]("in")
	out := NewOut[uint32]("out")
	if in.Bound() || out.Bound() {
		t.Fatal("fresh ports claim to be bound")
	}
	in.Bind(sig)
	out.Bind(sig)
	s.Method("drv", func() { out.Write(99) })
	if err := s.Run(sim.NS(1)); err != nil {
		t.Fatal(err)
	}
	if in.Read() != 99 {
		t.Fatalf("in.Read() = %d, want 99", in.Read())
	}
}

func TestPortDoubleBindPanics(t *testing.T) {
	s := NewSimulator("t")
	sig := NewSignal[int](s, "w")
	in := NewIn[int]("in")
	in.Bind(sig)
	defer func() {
		if recover() == nil {
			t.Fatal("double Bind did not panic")
		}
	}()
	in.Bind(sig)
}

func TestUnboundPortReadPanics(t *testing.T) {
	in := NewIn[int]("in")
	defer func() {
		if recover() == nil {
			t.Fatal("unbound Read did not panic")
		}
	}()
	in.Read()
}

func TestStatsAccumulate(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(2))
	sig := NewSignal[uint64](s, "ctr")
	s.Method("count", func() { sig.Write(sig.Read() + 1) }, clk.Posedge()).DontInitialize()
	if err := s.RunCycles(clk, 10); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ProcessRuns < 10 || st.Deltas < 10 || st.SignalUpdates < 10 || st.EventTriggers < 10 {
		t.Fatalf("implausible stats: %+v", st)
	}
}

func TestThreadPanicSurfacesWithProcessName(t *testing.T) {
	s := NewSimulator("t")
	s.Thread("bad", func(c *Ctx) {
		c.WaitTime(sim.NS(1))
		panic("hw model bug")
	})
	defer func() {
		r := recover()
		pe, ok := r.(*sim.ErrCoroutinePanic)
		if !ok {
			t.Fatalf("recovered %T, want *sim.ErrCoroutinePanic", r)
		}
		if pe.Name != "bad" {
			t.Fatalf("panic attributed to %q, want bad", pe.Name)
		}
	}()
	_ = s.Run(sim.NS(10))
	t.Fatal("Run returned normally despite thread panic")
}

func TestModuleBase(t *testing.T) {
	m := &BaseModule{Name: "dut"}
	var iface Module = m
	if iface.ModuleName() != "dut" {
		t.Fatalf("ModuleName = %q", iface.ModuleName())
	}
}

func TestGenericSignalStructValue(t *testing.T) {
	type flit struct {
		Head bool
		Data uint32
	}
	s := NewSimulator("t")
	sig := NewSignal[flit](s, "flit")
	var got flit
	s.Method("r", func() { got = sig.Read() }, sig.Changed()).DontInitialize()
	s.Method("w", func() { sig.Write(flit{Head: true, Data: 0xabcd}) })
	if err := s.Run(sim.NS(1)); err != nil {
		t.Fatal(err)
	}
	if !got.Head || got.Data != 0xabcd {
		t.Fatalf("struct signal delivered %+v", got)
	}
}
