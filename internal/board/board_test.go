package board

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cosim"
	"repro/internal/cosim/federation"
	"repro/internal/hdlsim"
	"repro/internal/rtos"
	"repro/internal/sim"
)

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.RTOS.ISRCost = 0
	cfg.RTOS.DSRCost = 0
	cfg.RTOS.CtxSwitchCost = 0
	cfg.RTOS.IdleSwitchCost = 0
	return cfg
}

// newLinked runs b behind an in-proc link and returns the HW end, which
// the tests drive with a simple script.
func newLinked(t *testing.T, b *Board) (*cosim.HWEndpoint, chan error) {
	t.Helper()
	hwT, boardT := cosim.NewInProcPair(256)
	hw := cosim.NewHWEndpoint(hwT, cosim.SyncAlternating)
	done := make(chan error, 1)
	go func() { done <- cosim.Serve(boardT, b, nil, "board") }()
	return hw, done
}

func TestBoardAdvancesOnGrants(t *testing.T) {
	b := New(testCfg())
	ticksSeen := []uint64{}
	b.K.CreateThread("obs", 10, func(c *rtos.ThreadCtx) {
		for {
			c.Sleep(1)
			ticksSeen = append(ticksSeen, b.K.SWTick())
		}
	})
	hw, done := newLinked(t, b)
	var hwCycle uint64
	for q := 0; q < 4; q++ {
		hwCycle += 10
		if _, err := hw.Step(cosim.SimTime(hwCycle)); err != nil {
			t.Fatal(err)
		}
		bc, _ := hw.BoardTime()
		// 10 ticks × 100 cycles/tick each quantum.
		if bc != (uint64(q)+1)*1000 {
			t.Fatalf("quantum %d: board cycle %d, want %d", q, bc, (q+1)*1000)
		}
	}
	if err := hw.Finish(cosim.SimTime(hwCycle)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// SW tick advances once per 100 cycles (default): 40 ticks total. The
	// observer wakes once per tick, except the final one: the tick-40
	// alarm fires on the last cycle of the last quantum, so the readied
	// thread would only run in a 41st-tick quantum that never arrives.
	if len(ticksSeen) != 39 {
		t.Fatalf("observer woke %d times, want 39", len(ticksSeen))
	}
	if b.Stats().Grants != 4 || b.Stats().TicksGranted != 40 {
		t.Fatalf("stats %+v", b.Stats())
	}
}

func TestBoardTimeFrozenBetweenGrants(t *testing.T) {
	b := New(testCfg())
	hw, done := newLinked(t, b)
	if _, err := hw.Step(cosim.SimTime(5)); err != nil {
		t.Fatal(err)
	}
	c1, _ := hw.BoardTime()
	// No grant: no time may pass regardless of wall-clock.
	c2, _ := hw.BoardTime()
	if c1 != c2 || c1 != 500 {
		t.Fatalf("board time moved without grant: %d → %d", c1, c2)
	}
	hw.Finish(5)
	<-done
}

func TestRemoteDevShadowAndPostedWrites(t *testing.T) {
	b := New(testCfg())
	dev, err := b.NewRemoteDev("/dev/fake", 0x100, 32)
	if err != nil {
		t.Fatal(err)
	}
	var readBack []uint32
	b.K.CreateThread("app", 10, func(c *rtos.ThreadCtx) {
		// Wait for the device update to land (arrives with grant 2).
		c.Sleep(12)
		buf := make([]uint32, 3)
		if _, err := dev.Read(c, 4, buf); err != nil {
			t.Errorf("Read: %v", err)
		}
		readBack = buf
		if _, err := dev.Write(c, 0, []uint32{0xcafe}); err != nil {
			t.Errorf("Write: %v", err)
		}
		c.Exit()
	})
	hw, done := newLinked(t, b)
	// Quantum 1: plain.
	if _, err := hw.Step(cosim.SimTime(10)); err != nil {
		t.Fatal(err)
	}
	// Quantum 2: carry a register update.
	if err := hw.Send(toDM(0x104, []uint32{7, 8, 9})); err != nil {
		t.Fatal(err)
	}
	if _, err := hw.Step(cosim.SimTime(20)); err != nil {
		t.Fatal(err)
	}
	// The app read the shadow and posted 0xcafe; it arrives at HW with
	// this or the next ack.
	var got []uint32
	for q := 0; q < 3 && got == nil; q++ {
		for _, m := range hw.PollData() {
			got = m.Words
		}
		if got == nil {
			if _, err := hw.Step(cosim.SimTime(30 + q*10)); err != nil {
				t.Fatal(err)
			}
		}
	}
	hw.Finish(99)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(readBack) != 3 || readBack[0] != 7 || readBack[2] != 9 {
		t.Fatalf("shadow read %v", readBack)
	}
	if len(got) != 1 || got[0] != 0xcafe {
		t.Fatalf("posted write %v", got)
	}
}

func TestRemoteDevInterruptDelivery(t *testing.T) {
	b := New(testCfg())
	dev, err := b.NewRemoteDev("/dev/irqdev", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	var dsrData []uint32
	b.K.AttachInterrupt(3, nil, func() {
		dsrData = append(dsrData, dev.PeekShadow(0))
	})
	hw, done := newLinked(t, b)
	// Write then interrupt within the same quantum: DSR must see the data.
	if err := hw.Send(toDM(0, []uint32{0x55})); err != nil {
		t.Fatal(err)
	}
	if err := hw.Send(hdlsim.DataMsg{Kind: hdlsim.DataInterrupt, IRQ: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := hw.Step(cosim.SimTime(10)); err != nil {
		t.Fatal(err)
	}
	hw.Finish(10)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(dsrData) != 1 || dsrData[0] != 0x55 {
		t.Fatalf("DSR observed %v, want the write that preceded the IRQ", dsrData)
	}
	if b.Stats().IRQsDelivered != 1 {
		t.Fatalf("stats %+v", b.Stats())
	}
}

func TestRemoteDevSplitPhaseRead(t *testing.T) {
	b := New(testCfg())
	dev, err := b.NewRemoteDev("/dev/rd", 0x200, 16)
	if err != nil {
		t.Fatal(err)
	}
	var resp []uint32
	b.K.CreateThread("reader", 10, func(c *rtos.ThreadCtx) {
		if err := dev.PostReadReq(c, 2, 2); err != nil {
			t.Errorf("PostReadReq: %v", err)
		}
		for {
			if r, ok := dev.TakeReadResp(); ok {
				resp = r
				c.Exit()
			}
			c.Sleep(1)
		}
	})
	hw, done := newLinked(t, b)
	if _, err := hw.Step(cosim.SimTime(5)); err != nil { // board posts the request
		t.Fatal(err)
	}
	reqs := hw.PollData()
	if len(reqs) != 1 || reqs[0].Addr != 0x202 || reqs[0].Count != 2 {
		t.Fatalf("HW saw requests %+v", reqs)
	}
	if err := hw.Send(respDM(0x202, []uint32{0xaa, 0xbb})); err != nil {
		t.Fatal(err)
	}
	if _, err := hw.Step(cosim.SimTime(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := hw.Step(cosim.SimTime(15)); err != nil {
		t.Fatal(err)
	}
	hw.Finish(15)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(resp) != 2 || resp[0] != 0xaa || resp[1] != 0xbb {
		t.Fatalf("split-phase read returned %v", resp)
	}
}

func TestRemoteDevBounds(t *testing.T) {
	b := New(testCfg())
	dev, err := b.NewRemoteDev("/dev/b", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.NewRemoteDev("/dev/overlap", 2, 4); err == nil {
		t.Fatal("overlapping windows accepted")
	}
	var errs int
	b.K.CreateThread("t", 10, func(c *rtos.ThreadCtx) {
		if _, err := dev.Read(c, 2, make([]uint32, 3)); err != nil {
			errs++
		}
		if _, err := dev.Write(c, 4, []uint32{1}); err != nil {
			errs++
		}
		if err := dev.PostReadReq(c, 3, 2); err != nil {
			errs++
		}
		// off+count wraps to 0 in 32 bits.
		if err := dev.PostReadReq(c, 1, 0xFFFFFFFF); err != nil {
			errs++
		}
		c.Exit()
	})
	b.K.Advance(10000)
	if errs != 4 {
		t.Fatalf("%d bounds errors, want 4", errs)
	}
	if out, _ := b.Exchange(nil); len(out) != 0 {
		t.Fatalf("out-of-window accesses reached the link: %+v", out)
	}
	func() {
		defer func() {
			if r := recover(); !strings.Contains(fmt.Sprint(r), "outside window") {
				t.Errorf("AppendShadowBlock(1, 0xFFFFFFFF) panicked with %v, want its window check", r)
			}
		}()
		dev.AppendShadowBlock(nil, 1, 0xFFFFFFFF)
	}()
	b.K.Shutdown()
}

// emitter is an eager federation party that emits its events at its
// first exchange and otherwise only keeps time.
type emitter struct{ out []hdlsim.DataMsg }

func (e *emitter) Exchange([]hdlsim.DataMsg) ([]hdlsim.DataMsg, error) {
	out := e.out
	e.out = nil
	return out, nil
}
func (e *emitter) Step(until cosim.SimTime) (cosim.SimTime, error) { return until, nil }
func (e *emitter) Lookahead() uint64                               { return cosim.NoLookahead }
func (e *emitter) Done() bool                                      { return false }
func (e *emitter) Finish(cosim.SimTime) error                      { return nil }

// runFederated runs b in-process as party "board" of a federation whose
// other party emits events, routed to the board by one link covering
// every address and the lines of events' interrupts.
func runFederated(b *Board, events ...hdlsim.DataMsg) error {
	var irqs []uint8
	for _, m := range events {
		if m.Kind == hdlsim.DataInterrupt {
			irqs = append(irqs, m.IRQ)
		}
	}
	tm, err := federation.New(federation.Config{
		Parties: []federation.Party{
			{Name: "dev", Fed: &emitter{out: events}, Eager: true},
			{Name: "board", Fed: b},
		},
		Links:    []federation.Link{{From: 0, To: 1, Size: ^uint32(0), IRQs: irqs}},
		Schedule: federation.Schedule{TSync: 10, TotalCycles: 30},
	})
	if err != nil {
		return err
	}
	_, err = tm.Run(context.Background())
	return err
}

// TestGrantRejectsBadInterrupt: an interrupt line outside the vector or
// without a handler fails the board with an error naming the line, on a
// wire board and on an in-process one, instead of panicking the kernel.
func TestGrantRejectsBadInterrupt(t *testing.T) {
	for _, irq := range []uint8{40, 7} {
		b := New(testCfg())
		b.K.AttachInterrupt(3, nil, nil)
		hw, done := newLinked(t, b)
		if err := hw.Send(hdlsim.DataMsg{Kind: hdlsim.DataInterrupt, IRQ: irq}); err != nil {
			t.Fatal(err)
		}
		if err := hw.BeginStep(10); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("interrupt line %d", irq)
		if err := <-done; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("wire board, IRQ %d: Serve returned %v, want an error naming %q", irq, err, want)
		}

		b = New(testCfg())
		b.K.AttachInterrupt(3, nil, nil)
		err := runFederated(b, hdlsim.DataMsg{Kind: hdlsim.DataInterrupt, IRQ: irq})
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), `party "board"`) {
			t.Errorf("in-process board, IRQ %d: run returned %v, want an error naming party \"board\" and %q", irq, err, want)
		}
	}
}

// TestBoardRefusesReadRequest: a read request is board-to-simulator
// traffic only; a grant carrying one fails the board, on the wire and
// in-process.
func TestBoardRefusesReadRequest(t *testing.T) {
	hwT, boardT := cosim.NewInProcPair(8)
	done := make(chan error, 1)
	go func() { done <- cosim.Serve(boardT, New(testCfg()), nil, "board") }()
	if err := hwT.Send(cosim.ChanData, cosim.Msg{Type: cosim.MTDataReadReq, Addr: 4, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if err := hwT.Send(cosim.ChanClock, cosim.Msg{Type: cosim.MTClockGrant, Ticks: 10, HWCycle: 10, DataCount: 1}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), cosim.MTDataReadReq.String()) {
		t.Errorf("wire board: Serve returned %v, want a refused %v", err, cosim.MTDataReadReq)
	}

	b := New(testCfg())
	if _, err := b.NewRemoteDev("/dev/rd", 0, 8); err != nil {
		t.Fatal(err)
	}
	err := runFederated(b, hdlsim.DataMsg{Kind: hdlsim.DataReadReq, Addr: 4, Count: 1})
	if err == nil || !strings.Contains(err.Error(), hdlsim.DataReadReq.String()) || !strings.Contains(err.Error(), `party "board"`) {
		t.Errorf("in-process board: run returned %v, want party \"board\" refusing a %v", err, hdlsim.DataReadReq)
	}
}

// TestInterruptBeforeWriteSeesData: a grant listing an interrupt before
// the write it announces still shows the DSR the written value, because
// PostIRQ only latches and the DSR runs in the advance that follows.
func TestInterruptBeforeWriteSeesData(t *testing.T) {
	b := New(testCfg())
	dev, err := b.NewRemoteDev("/dev/irqdev", 0, 8)
	if err != nil {
		t.Fatal(err)
	}
	var dsrData []uint32
	b.K.AttachInterrupt(3, nil, func() { dsrData = append(dsrData, dev.PeekShadow(0)) })
	if _, err := b.Exchange([]hdlsim.DataMsg{{Kind: hdlsim.DataInterrupt, IRQ: 3}, toDM(0, []uint32{0x55})}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Step(10); err != nil {
		t.Fatal(err)
	}
	if len(dsrData) != 1 || dsrData[0] != 0x55 {
		t.Fatalf("DSR observed %v, want the write listed after its IRQ", dsrData)
	}
	b.Finish(10)
}

func TestWatchdogBarksWithoutKicks(t *testing.T) {
	b := New(testCfg())
	w := b.NewWatchdog(10, -1)
	b.K.Advance(100 * 35) // 35 HW ticks, no kick
	if w.Barks() != 3 {
		t.Fatalf("barks = %d, want 3 (ticks 10,20,30)", w.Barks())
	}
}

func TestWatchdogStaysQuietWhenKicked(t *testing.T) {
	b := New(testCfg())
	w := b.NewWatchdog(10, -1)
	b.K.CreateThread("petter", 5, func(c *rtos.ThreadCtx) {
		for {
			c.Sleep(5)
			w.Kick()
		}
	})
	b.K.Advance(100 * 100)
	if w.Barks() != 0 {
		t.Fatalf("watchdog barked %d times despite kicks: %s", w.Barks(), w)
	}
	b.K.Shutdown()
}

func TestWatchdogImmuneToWallClockFreeze(t *testing.T) {
	// The rollback-impossibility argument inverted: with virtual ticks,
	// an arbitrarily long wall-clock gap between grants must not age the
	// watchdog, because the timer only advances on granted ticks.
	b := New(testCfg())
	w := b.NewWatchdog(10, -1)
	b.K.Advance(100 * 5)
	// (a real-time gap would be here)
	b.K.Advance(100 * 4)
	if w.Barks() != 0 {
		t.Fatalf("watchdog aged across the freeze: %d barks", w.Barks())
	}
}

func toDM(addr uint32, words []uint32) hdlsim.DataMsg {
	return hdlsim.DataMsg{Kind: hdlsim.DataWrite, Addr: addr, Words: words}
}

func respDM(addr uint32, words []uint32) hdlsim.DataMsg {
	return hdlsim.DataMsg{Kind: hdlsim.DataReadResp, Addr: addr, Words: words}
}

// TestGrantLeadPlacesTraffic: a grant's traffic takes effect lead ticks
// into the grant, and a lead past the grant's ticks is refused.
func TestGrantLeadPlacesTraffic(t *testing.T) {
	b := New(testCfg())
	var at []uint64
	b.K.AttachInterrupt(3, nil, func() { at = append(at, b.K.Cycles()) })
	hw, done := newLinked(t, b)
	for i, lead := range []uint64{0, 20} {
		if err := hw.Send(hdlsim.DataMsg{Kind: hdlsim.DataInterrupt, IRQ: 3}); err != nil {
			t.Fatal(err)
		}
		hw.SetGrantLead(lead)
		if _, err := hw.Step(cosim.SimTime(30 * (i + 1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := hw.Finish(60); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// 100 board cycles per tick: the second grant starts at cycle 3000.
	if len(at) != 2 || at[0] != 0 || at[1] != 5000 {
		t.Fatalf("interrupts delivered at board cycles %v, want [0 5000]", at)
	}
	b = New(testCfg())
	b.SetGrantLead(31)
	if _, err := b.Step(30); err == nil {
		t.Fatal("grant with lead 31 > 30 ticks accepted")
	}
}

// TestRemoteDevWindowAtTopOfAddressSpace: a device window ending exactly
// at 2³² receives simulator writes, and a window overlapping it is
// rejected.
func TestRemoteDevWindowAtTopOfAddressSpace(t *testing.T) {
	b := New(testCfg())
	dev, err := b.NewRemoteDev("/dev/top", 0xFFFFFFF0, 0x10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.NewRemoteDev("/dev/overlap", 0xFFFFFFF8, 4); err == nil {
		t.Fatal("window overlapping the one ending at 2³² accepted")
	}
	b.Exchange([]hdlsim.DataMsg{toDM(0xFFFFFFF4, []uint32{7})})
	if _, err := b.Step(1); err != nil {
		t.Fatal(err)
	}
	if got := dev.PeekShadow(4); got != 7 {
		t.Fatalf("shadow word 4 = %d, want the write to 0xfffffff4", got)
	}
	b.Finish(1)
}

// irqKernel is a kernel that raises interrupt line irq on every clock
// edge.
func irqKernel(irq uint8) (*hdlsim.Simulator, *hdlsim.Clock) {
	s := hdlsim.NewSimulator("irq")
	clk := s.NewClock("clk", sim.NS(10))
	s.Method("raise", func() { s.RaiseDriverInterrupt(irq) }, clk.Posedge()).DontInitialize()
	return s, clk
}

// TestFailedBoardDoesNotHang: a board that fails under DriverSimulate —
// here on an interrupt line with no handler — fails the run within a
// deadline, whether it runs behind a wire (Run closes its link) or is
// the granted party itself (its error names the line).
func TestFailedBoardDoesNotHang(t *testing.T) {
	const want = "interrupt line 40"
	for _, wire := range []bool{true, false} {
		b := New(testCfg())
		var party cosim.Federate = b
		var boardDone chan error
		if wire {
			party, boardDone = newLinked(t, b)
		}
		s, clk := irqKernel(40)
		done := make(chan error, 1)
		go func() {
			_, err := federation.DriverSimulate(s, clk, party, federation.Schedule{TSync: 10, TotalCycles: 100})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("wire=%v: DriverSimulate succeeded with an unattached IRQ 40", wire)
			}
			if !wire && !strings.Contains(err.Error(), want) {
				t.Errorf("direct board: DriverSimulate returned %v, want an error naming %q", err, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("wire=%v: DriverSimulate still blocked 5 s after the board failed", wire)
		}
		if wire {
			if err := <-boardDone; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("wire board: Run returned %v, want an error naming %q", err, want)
			}
		}
	}
}

// agreeApp is a board program exercising every kind of board traffic:
// each round posts a write, waits for the interrupt the simulator raises
// in answer, and fetches a register with a split-phase read; a second
// interrupt line counts the simulator's own periodic beats, which land
// inside elongated grants at their lead. It records what the DSRs and
// the reads saw, and the board cycles at which they saw it.
type agreeApp struct {
	dsrSeen, readSeen []uint32
	at                []uint64
}

// Register map of the agreement test: the board writes the round number
// to agreeCmd; the kernel answers with 3×n posted to agreeEcho and
// raises agreeIRQ, and exposes 2×n at agreeEcho for the board to read.
// Every agreeBeat cycles the kernel posts its beat count to agreeBeatReg
// and raises agreeBeatIRQ.
const (
	agreeBase    = 0x10
	agreeCmd     = 0x10
	agreeEcho    = 0x20
	agreeBeatReg = 0x21
	agreeIRQ     = 3
	agreeBeatIRQ = 4
	agreeBeat    = 37
)

func newAgreeApp(t *testing.T, b *Board) *agreeApp {
	a := &agreeApp{}
	dev, err := b.NewRemoteDev("/dev/agree", agreeBase, 0x20)
	if err != nil {
		t.Fatal(err)
	}
	sem := b.K.NewSemaphore("irq", 0)
	b.K.AttachInterrupt(agreeIRQ, nil, func() {
		a.dsrSeen = append(a.dsrSeen, dev.PeekShadow(agreeEcho-agreeBase))
		a.at = append(a.at, b.K.Cycles())
		sem.Post()
	})
	b.K.AttachInterrupt(agreeBeatIRQ, nil, func() {
		a.dsrSeen = append(a.dsrSeen, dev.PeekShadow(agreeBeatReg-agreeBase))
		a.at = append(a.at, b.K.Cycles())
	})
	b.K.CreateThread("app", 10, func(c *rtos.ThreadCtx) {
		for n := uint32(1); n <= 5; n++ {
			if _, err := dev.Write(c, agreeCmd-agreeBase, []uint32{n}); err != nil {
				t.Errorf("Write: %v", err)
			}
			sem.Wait(c)
			if err := dev.PostReadReq(c, agreeEcho-agreeBase, 1); err != nil {
				t.Errorf("PostReadReq: %v", err)
			}
			for {
				if r, ok := dev.TakeReadResp(); ok {
					a.readSeen = append(a.readSeen, r[0])
					a.at = append(a.at, b.K.Cycles())
					break
				}
				c.Sleep(1)
			}
			c.Sleep(3)
		}
		c.Exit()
	})
	return a
}

// agreeKernel answers each board write n by exposing 2×n at agreeEcho,
// posting 3×n there and raising agreeIRQ, and beats every agreeBeat
// cycles.
func agreeKernel() (*hdlsim.Simulator, *hdlsim.Clock) {
	s := hdlsim.NewSimulator("agree")
	clk := s.NewClock("clk", sim.NS(10))
	din := s.NewDriverIn("cmd", agreeCmd, 1)
	dout := s.NewDriverOut("echo", agreeEcho, 1)
	var cycle, beats uint32
	s.Method("beat", func() {
		if cycle++; cycle%agreeBeat == 0 {
			beats++
			dout.Post(agreeBeatReg, []uint32{beats})
			s.RaiseDriverInterrupt(agreeBeatIRQ)
		}
	}, clk.Posedge()).DontInitialize()
	s.DriverProcess("answer", func() {
		for w, ok := din.Pop(); ok; w, ok = din.Pop() {
			dout.Set(agreeEcho, 2*w.Val)
			dout.Post(agreeEcho, []uint32{3 * w.Val})
			s.RaiseDriverInterrupt(agreeIRQ)
		}
	}, din)
	return s, clk
}

// TestBoardModesAgree: one board program run under DriverSimulate over
// an in-process wire (served by cosim.Serve) and as the granted
// party itself sees the same simulation — the same DriverStats, board
// Stats, board time and application values — at TSync 1 and 7, plain
// and adaptive.
func TestBoardModesAgree(t *testing.T) {
	type outcome struct {
		drv            hdlsim.DriverStats
		stats          Stats
		cycle, swTick  uint64
		dsrSeen, reads string
		at             string
	}
	run := func(wire bool, sched federation.Schedule) outcome {
		b := New(testCfg())
		app := newAgreeApp(t, b)
		var party cosim.Federate = b
		var boardDone chan error
		if wire {
			party, boardDone = newLinked(t, b)
		}
		s, clk := agreeKernel()
		drv, err := federation.DriverSimulate(s, clk, party, sched)
		if err != nil {
			t.Fatalf("wire=%v: %v", wire, err)
		}
		if wire {
			if err := <-boardDone; err != nil {
				t.Fatalf("wire board: %v", err)
			}
		}
		if len(app.readSeen) != 5 {
			t.Fatalf("wire=%v %+v: the program finished %d of 5 rounds", wire, sched, len(app.readSeen))
		}
		o := outcome{drv: drv, stats: b.Stats(), dsrSeen: fmt.Sprint(app.dsrSeen), reads: fmt.Sprint(app.readSeen), at: fmt.Sprint(app.at)}
		o.cycle, o.swTick = b.BoardTime()
		return o
	}
	for _, tsync := range []uint64{1, 7} {
		for _, adaptive := range []bool{false, true} {
			sched := federation.Schedule{TSync: tsync, TotalCycles: 400, Adaptive: adaptive}
			wire, direct := run(true, sched), run(false, sched)
			if wire != direct {
				t.Errorf("TSync=%d adaptive=%v: modes diverged\nwire   %+v\ndirect %+v", tsync, adaptive, wire, direct)
			}
		}
	}
}
