package hdlsim

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// fakeEndpoint is a scriptable DriverEndpoint for kernel-level tests.
type fakeEndpoint struct {
	// incoming holds board→HW messages released one batch per PollData call.
	incoming [][]DataMsg
	sent     []DataMsg
	ints     []uint8
}

func (f *fakeEndpoint) PollData() []DataMsg {
	if len(f.incoming) == 0 {
		return nil
	}
	batch := f.incoming[0]
	f.incoming = f.incoming[1:]
	return batch
}

func (f *fakeEndpoint) Send(m DataMsg) error {
	if m.Kind == DataInterrupt {
		f.ints = append(f.ints, m.IRQ)
	} else {
		f.sent = append(f.sent, m)
	}
	return nil
}

// advance steps a driver over ep for n cycles.
func advance(s *Simulator, clk *Clock, ep DriverEndpoint, n uint64) error {
	d, err := s.NewDriver(clk, ep)
	if err != nil {
		return err
	}
	_, _, err = d.Advance(n)
	return err
}

func TestDriverInRouting(t *testing.T) {
	s := NewSimulator("t")
	_ = s.NewClock("clk", sim.NS(10))
	din := s.NewDriverIn("cmd", 0x10, 4)

	var got []RegWrite
	s.DriverProcess("drv", func() {
		for {
			w, ok := din.Pop()
			if !ok {
				break
			}
			got = append(got, w)
		}
	}, din)

	ep := &fakeEndpoint{incoming: [][]DataMsg{
		{{Kind: DataWrite, Addr: 0x10, Words: []uint32{7, 8}}},
	}}
	clk := s.clocks[0]
	if err := advance(s, clk, ep, 4); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != (RegWrite{Addr: 0x10, Val: 7}) || got[1] != (RegWrite{Addr: 0x11, Val: 8}) {
		t.Fatalf("driver process received %v", got)
	}
}

func TestDriverOutReadServing(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	dout := s.NewDriverOut("status", 0x20, 4)
	dout.Set(0x21, 0xdead)
	dout.Set(0x22, 0xbeef)
	next := s.NewDriverOut("more", 0x24, 2)
	next.Set(0x24, 0xf00d)

	ep := &fakeEndpoint{incoming: [][]DataMsg{
		{{Kind: DataReadReq, Addr: 0x21, Count: 2}},
	}}
	if err := advance(s, clk, ep, 4); err != nil {
		t.Fatal(err)
	}
	if len(ep.sent) != 1 {
		t.Fatalf("sent %d messages, want 1 read response", len(ep.sent))
	}
	resp := ep.sent[0]
	if resp.Kind != DataReadResp || resp.Addr != 0x21 || len(resp.Words) != 2 ||
		resp.Words[0] != 0xdead || resp.Words[1] != 0xbeef {
		t.Fatalf("read response %+v", resp)
	}

	// A read may span adjacent driver_out windows.
	ep.incoming = [][]DataMsg{{{Kind: DataReadReq, Addr: 0x22, Count: 3}}}
	if err := advance(s, clk, ep, 4); err != nil {
		t.Fatal(err)
	}
	if resp := ep.sent[1]; len(resp.Words) != 3 || resp.Words[0] != 0xbeef || resp.Words[1] != 0 || resp.Words[2] != 0xf00d {
		t.Fatalf("spanning read response %+v", resp)
	}
}

func TestDriverUnmappedAccessErrors(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	ep := &fakeEndpoint{incoming: [][]DataMsg{
		{{Kind: DataWrite, Addr: 0x999, Words: []uint32{1}}},
	}}
	if err := advance(s, clk, ep, 2); err == nil {
		t.Fatal("write to unmapped address did not error")
	}

	s2 := NewSimulator("t2")
	clk2 := s2.NewClock("clk", sim.NS(10))
	ep2 := &fakeEndpoint{incoming: [][]DataMsg{
		{{Kind: DataReadReq, Addr: 0x999, Count: 1}},
	}}
	if err := advance(s2, clk2, ep2, 2); err == nil {
		t.Fatal("read from unmapped address did not error")
	}

	// A read starting in a window but running past its end fails on the
	// first unmapped word, before the response for Count words is
	// allocated (here it would be 16 GiB).
	s3 := NewSimulator("t3")
	clk3 := s3.NewClock("clk", sim.NS(10))
	s3.NewDriverOut("status", 0x20, 4)
	ep3 := &fakeEndpoint{incoming: [][]DataMsg{
		{{Kind: DataReadReq, Addr: 0x21, Count: ^uint32(0)}},
	}}
	if err := advance(s3, clk3, ep3, 2); err == nil || !strings.Contains(err.Error(), "0x24") {
		t.Fatalf("overlong read: error %v, want one naming the first unmapped address 0x24", err)
	}
}

func TestDriverInterruptEdgeDetection(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	irqSig := NewBitSignal(s, "irq")
	s.WatchInterrupt(irqSig, 3)

	// Raise for 3 cycles then drop then raise again: exactly 2 INT packets.
	s.Thread("drv", func(c *Ctx) {
		c.WaitCycles(clk, 2)
		irqSig.Write(true)
		c.WaitCycles(clk, 3)
		irqSig.Write(false)
		c.WaitCycles(clk, 2)
		irqSig.Write(true)
	})
	ep := &fakeEndpoint{}
	if err := advance(s, clk, ep, 12); err != nil {
		t.Fatal(err)
	}
	if len(ep.ints) != 2 {
		t.Fatalf("sent %d interrupts, want 2 (level held high must not retrigger)", len(ep.ints))
	}
	for _, irq := range ep.ints {
		if irq != 3 {
			t.Fatalf("interrupt line %d, want 3", irq)
		}
	}
}

func TestDriverRaiseImperativeInterrupt(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	s.Thread("drv", func(c *Ctx) {
		c.WaitCycles(clk, 1)
		s.RaiseDriverInterrupt(5)
	})
	ep := &fakeEndpoint{}
	if err := advance(s, clk, ep, 3); err != nil {
		t.Fatal(err)
	}
	if len(ep.ints) != 1 || ep.ints[0] != 5 {
		t.Fatalf("interrupts %v, want [5]", ep.ints)
	}
}

func TestDriverOutPostedWrites(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	dout := s.NewDriverOut("tx", 0x40, 8)
	s.Thread("drv", func(c *Ctx) {
		c.WaitCycles(clk, 1)
		dout.Post(0x40, []uint32{1, 2, 3})
	})
	ep := &fakeEndpoint{}
	if err := advance(s, clk, ep, 3); err != nil {
		t.Fatal(err)
	}
	if len(ep.sent) != 1 || ep.sent[0].Kind != DataWrite || len(ep.sent[0].Words) != 3 {
		t.Fatalf("posted writes: %+v", ep.sent)
	}
}

func TestDriverOverlapRejected(t *testing.T) {
	s := NewSimulator("t")
	s.NewDriverIn("a", 0x0, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("overlapping driver_in ranges did not panic")
		}
	}()
	s.NewDriverIn("b", 0x4, 8)
}

func TestDriverOutBoundsChecks(t *testing.T) {
	s := NewSimulator("t")
	d := s.NewDriverOut("d", 0x10, 2)
	for _, fn := range []func(){
		func() { d.Set(0x12, 1) },
		func() { d.Get(0x0f) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("out-of-range register access did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestDriverWindowAtTopOfAddressSpace: port windows ending exactly at 2³²
// are reachable — a board write lands in the driver_in, a read is served
// from the driver_out and its last register answers Set/Get — and a
// window overlapping one of them is rejected.
func TestDriverWindowAtTopOfAddressSpace(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	din := s.NewDriverIn("in", 0xFFFFFFF0, 0x10)
	dout := s.NewDriverOut("out", 0xFFFFFFF0, 0x10)
	dout.Set(0xFFFFFFFF, 0xbeef)
	if got := dout.Get(0xFFFFFFFF); got != 0xbeef {
		t.Fatalf("Get(0xFFFFFFFF) = %#x, want 0xbeef", got)
	}
	ep := &fakeEndpoint{incoming: [][]DataMsg{{
		{Kind: DataWrite, Addr: 0xFFFFFFF4, Words: []uint32{7}},
		{Kind: DataReadReq, Addr: 0xFFFFFFFF, Count: 1},
	}}}
	if err := advance(s, clk, ep, 2); err != nil {
		t.Fatal(err)
	}
	if w, ok := din.Pop(); !ok || w != (RegWrite{Addr: 0xFFFFFFF4, Val: 7}) {
		t.Fatalf("driver_in received %+v (%v), want the write to 0xfffffff4", w, ok)
	}
	if len(ep.sent) != 1 || len(ep.sent[0].Words) != 1 || ep.sent[0].Words[0] != 0xbeef {
		t.Fatalf("read response %+v, want [0xbeef]", ep.sent)
	}
	for _, fn := range []func(){
		func() { s.NewDriverIn("overlap", 0xFFFFFFF8, 4) },
		func() { s.NewDriverOut("overlap", 0xFFFFFFF8, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("a window overlapping the one ending at 2³² was accepted")
				}
			}()
			fn()
		}()
	}
}

// TestDriverAdvanceQuiet: a quiet stretch stepped in one call returns at
// the first TSync boundary after the kernel sent something, at the
// boundary where the poll fires, and where the kernel stops, mid-quantum
// included; the poll runs once at each boundary passed quietly and never
// at the bound.
func TestDriverAdvanceQuiet(t *testing.T) {
	s := NewSimulator("t")
	clk := s.NewClock("clk", sim.NS(10))
	dout := s.NewDriverOut("tx", 0x40, 1)
	s.Thread("drv", func(c *Ctx) {
		c.WaitCycles(clk, 7)
		dout.Post(0x40, []uint32{1})
		c.WaitCycles(clk, 10)
		s.Stop()
	})
	ep := &fakeEndpoint{}
	d, err := s.NewDriver(clk, ep)
	if err != nil {
		t.Fatal(err)
	}
	var polledAt []uint64
	fireAt := uint64(15)
	poll := func() bool {
		polledAt = append(polledAt, d.Stats().Cycles)
		return d.Stats().Cycles == fireAt
	}
	steps := []struct {
		until, want uint64
		halted      bool
		polls       []uint64
	}{
		{until: 30, want: 9, polls: []uint64{3, 6}}, // the posted write
		{until: 30, want: 15, polls: []uint64{12, 15}},
		{until: 30, want: 17, halted: true}, // stopped mid-quantum
	}
	for i, st := range steps {
		polledAt = polledAt[:0]
		reached, halted, err := d.AdvanceQuiet(st.until, 3, poll)
		if err != nil {
			t.Fatal(err)
		}
		if reached != st.want || halted != st.halted || !slices.Equal(polledAt, st.polls) {
			t.Fatalf("call %d: reached %d halted %v polled at %v, want %d %v %v", i, reached, halted, polledAt, st.want, st.halted, st.polls)
		}
	}
	if len(ep.sent) != 1 {
		t.Fatalf("sent %d messages, want the one posted write", len(ep.sent))
	}
}
