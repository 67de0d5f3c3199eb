package router

import (
	"context"
	"testing"

	"repro/internal/cosim"
)

func smallTB() TBConfig {
	cfg := DefaultTBConfig()
	cfg.PacketsPerPort = 10
	cfg.Period = 400
	return cfg
}

func TestLoopbackAllForwarded(t *testing.T) {
	res, err := RunLoopback(smallTB())
	if err != nil {
		t.Fatal(err)
	}
	if res.Conservation != nil {
		t.Fatal(res.Conservation)
	}
	if res.Generated != 40 {
		t.Fatalf("generated %d, want 40", res.Generated)
	}
	if res.Router.Forwarded != res.Generated {
		t.Fatalf("forwarded %d of %d with an instant checker: %+v",
			res.Router.Forwarded, res.Generated, res.Router)
	}
	if res.Consumers.Received != res.Generated {
		t.Fatalf("consumers saw %d", res.Consumers.Received)
	}
	if res.Consumers.IntegrityError != 0 || res.Consumers.Misrouted != 0 {
		t.Fatalf("consumer errors: %+v", res.Consumers)
	}
	if res.Accuracy != 1.0 {
		t.Fatalf("accuracy %f", res.Accuracy)
	}
}

func TestLoopbackDropsCorruptPackets(t *testing.T) {
	cfg := smallTB()
	cfg.ErrRate = 0.5
	cfg.Seed = 99
	res, err := RunLoopback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := res.Router
	if rs.DroppedChecksum == 0 {
		t.Fatalf("errRate 0.5 produced no checksum drops: %+v", rs)
	}
	if rs.Forwarded+rs.DroppedChecksum != res.Generated {
		t.Fatalf("forwarded %d + dropped %d ≠ generated %d", rs.Forwarded, rs.DroppedChecksum, res.Generated)
	}
	// Consumers only see intact packets.
	if res.Consumers.IntegrityError != 0 {
		t.Fatalf("corrupt packet reached a consumer")
	}
}

func TestRoutingTableOverride(t *testing.T) {
	cfg := smallTB()
	tb := BuildTestbench(cfg)
	// Route everything to port 3, rebuild consumers' expectations via
	// RouteOf (consumers capture the function, so this works).
	for d := uint16(0); d < 4; d++ {
		tb.Router.SetRoute(d, 3)
	}
	if _, err := tb.Loopback(NewLoopbackEndpoint(), cfg.WorkCycles()+20000, nil); err != nil {
		t.Fatal(err)
	}
	if got := tb.Consumers[3].Stats().Received; got != tb.Generated() {
		t.Fatalf("port 3 received %d of %d", got, tb.Generated())
	}
	for i := 0; i < 3; i++ {
		if tb.Consumers[i].Stats().Received != 0 {
			t.Fatalf("port %d received traffic despite override", i)
		}
	}
	if tb.ConsumerTotals().Misrouted != 0 {
		t.Fatal("consumers flagged misroutes for the overridden table")
	}
}

func TestFIFOOverflowDropsWhenCheckerStalls(t *testing.T) {
	cfg := smallTB()
	cfg.PacketsPerPort = 20
	cfg.Period = 50 // very fast arrivals
	tb := BuildTestbench(cfg)
	ep := NewLoopbackEndpoint()
	ep.ResponseDelay = 100000 // verdicts effectively never return
	if _, err := tb.Loopback(ep, cfg.WorkCycles()+1000, nil); err != nil {
		t.Fatal(err)
	}
	rs := tb.Router.Stats()
	if rs.DroppedFull == 0 {
		t.Fatalf("no overflow drops with a stalled checker: %+v", rs)
	}
	// 4 FIFOs × 8 slots stay occupied; everything else must drop.
	wantBuffered := uint64(4 * cfg.FIFOCap)
	if rs.Received-rs.DroppedFull != wantBuffered {
		t.Fatalf("buffered %d, want %d", rs.Received-rs.DroppedFull, wantBuffered)
	}
}

// TestBacklogPostsInArrivalOrder stalls the checker until the RX ring is
// full and as many entries again wait in the input FIFOs for a slot, then
// lets verdicts free slots.
// After every cycle each FIFO's posted entries must be a prefix of it,
// posted in arrival order, no slot may have stayed free while an entry
// waited, and the router's count of unposted entries must match the
// FIFOs; every packet is posted and forwarded in the end.
func TestBacklogPostsInArrivalOrder(t *testing.T) {
	cfg := smallTB()
	cfg.FIFOCap = 16
	cfg.PacketsPerPort = 16
	cfg.Period = 10
	tb := BuildTestbench(cfg)
	ep := NewLoopbackEndpoint()
	ep.ResponseDelay = 400 // every packet has arrived before the first verdict
	d, err := tb.Sim.NewDriver(tb.Clk, ep)
	if err != nil {
		t.Fatal(err)
	}
	r := tb.Router
	backlog := 0 // most entries seen waiting for a slot on a full ring
	var room, waited, posted uint64
	for cy := uint64(1); cy <= 2000 && !tb.Finished(); cy++ {
		if _, _, err := d.Advance(cy); err != nil {
			t.Fatal(err)
		}
		// A verdict only frees slots, so every entry that waited at the
		// end of the last cycle gets one of the slots free then.
		if got := r.Stats().PostedToBoard - posted; got < min(room, waited) {
			t.Fatalf("cycle %d: posted %d with %d slots free and %d waiting", cy, got, room, waited)
		}
		posted = r.Stats().PostedToBoard
		room = uint64(NumSlots - len(r.engines[0].outstanding))
		waited = uint64(r.unposted)
		unposted := 0
		for i, f := range r.fifos {
			var lastEngineSeq uint32
			waiting := false
			for j, e := range f {
				if !e.posted {
					unposted++
					waiting = true
					continue
				}
				if waiting || e.engineSeq <= lastEngineSeq {
					t.Fatalf("cycle %d: port %d posted entry %d out of arrival order", cy, i, j)
				}
				lastEngineSeq = e.engineSeq
			}
		}
		if unposted != r.unposted {
			t.Fatalf("cycle %d: %d entries unposted, router counts %d", cy, unposted, r.unposted)
		}
		if len(r.engines[0].outstanding) == NumSlots {
			backlog = max(backlog, unposted)
		}
	}
	if backlog != NumSlots {
		t.Fatalf("at most %d entries waited on a full ring, want %d", backlog, NumSlots)
	}
	rs := r.Stats()
	if rs.DroppedFull != 0 || rs.PostedToBoard != tb.Generated() || rs.Forwarded != tb.Generated() {
		t.Fatalf("generated %d, stats %+v", tb.Generated(), rs)
	}
	if err := tb.CheckConservation(0, 0); err != nil {
		t.Fatal(err)
	}
}

func TestCoSimEndToEndInProc(t *testing.T) {
	rc := DefaultRunConfig()
	rc.TB = smallTB()
	rc.TSync = 200
	res, err := Run(context.Background(), Transports{}, WithConfig(rc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Conservation != nil {
		t.Fatal(res.Conservation)
	}
	if res.Generated != 40 {
		t.Fatalf("generated %d", res.Generated)
	}
	if res.Accuracy != 1.0 {
		t.Fatalf("tight coupling accuracy %.3f, want 1.0 (stats %+v, app %+v)",
			res.Accuracy, res.Router, res.App)
	}
	if res.App.Verified != 40 || res.App.Corrupt != 0 {
		t.Fatalf("app stats %+v", res.App)
	}
	if res.BoardCycles == 0 || res.BoardSWTicks == 0 {
		t.Fatal("board time did not advance")
	}
	if res.HW.SyncEvents == 0 || res.Link.SyncEvents != res.HW.SyncEvents {
		t.Fatalf("sync accounting mismatch: %d vs %d", res.HW.SyncEvents, res.Link.SyncEvents)
	}
}

func TestCoSimEndToEndTCP(t *testing.T) {
	rc := DefaultRunConfig()
	rc.TB = smallTB()
	rc.TSync = 500
	rc.Transport = TransportTCP
	res, err := Run(context.Background(), Transports{}, WithConfig(rc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy != 1.0 {
		t.Fatalf("TCP accuracy %.3f (router %+v)", res.Accuracy, res.Router)
	}
}

func TestCoSimDeterministicAcrossTransports(t *testing.T) {
	mk := func(tr TransportKind, mode cosim.SyncMode) RunResult {
		rc := DefaultRunConfig()
		rc.TB = smallTB()
		rc.TSync = 300
		rc.Transport = tr
		rc.Mode = mode
		res, err := Run(context.Background(), Transports{}, WithConfig(rc))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := mk(TransportInProc, cosim.SyncAlternating)
	tcp := mk(TransportTCP, cosim.SyncAlternating)
	if ref.Router != tcp.Router {
		t.Fatalf("router stats differ across transports:\ninproc %+v\ntcp    %+v", ref.Router, tcp.Router)
	}
	if ref.BoardCycles != tcp.BoardCycles || ref.BoardSWTicks != tcp.BoardSWTicks {
		t.Fatalf("board time differs across transports: %d/%d vs %d/%d",
			ref.BoardCycles, ref.BoardSWTicks, tcp.BoardCycles, tcp.BoardSWTicks)
	}
	// Pipelined mode is also deterministic run-to-run (but may differ from
	// alternating by design: +1 quantum of board→HW latency).
	p1 := mk(TransportInProc, cosim.SyncPipelined)
	p2 := mk(TransportTCP, cosim.SyncPipelined)
	if p1.Router != p2.Router {
		t.Fatalf("pipelined results differ across transports:\n%+v\n%+v", p1.Router, p2.Router)
	}
}

func TestCoSimCorruptPacketsDropped(t *testing.T) {
	rc := DefaultRunConfig()
	rc.TB = smallTB()
	rc.TB.ErrRate = 0.4
	rc.TB.Seed = 7
	rc.TSync = 200
	res, err := Run(context.Background(), Transports{}, WithConfig(rc))
	if err != nil {
		t.Fatal(err)
	}
	if res.App.Corrupt == 0 || res.Router.DroppedChecksum != res.App.Corrupt {
		t.Fatalf("corrupt accounting: app %+v router %+v", res.App, res.Router)
	}
	if res.Consumers.IntegrityError != 0 {
		t.Fatal("corrupt packet forwarded")
	}
	if res.Router.Forwarded+res.Router.DroppedChecksum != res.Generated {
		t.Fatalf("accounting: %+v vs %d", res.Router, res.Generated)
	}
}

func TestCoSimAnnotatedTimingModel(t *testing.T) {
	rc := DefaultRunConfig()
	rc.TB = smallTB()
	rc.TSync = 200
	rc.AppCfg.Timing = TimingAnnotated
	res, err := Run(context.Background(), Transports{}, WithConfig(rc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accuracy != 1.0 {
		t.Fatalf("annotated accuracy %.3f", res.Accuracy)
	}
	if res.App.ISSCycles != 0 {
		t.Fatal("annotated model ran the ISS")
	}
}

func TestCoSimAccuracyDegradesWithLooseCoupling(t *testing.T) {
	// The headline Fig.7 mechanism at test scale: tight coupling forwards
	// everything; a huge quantum forces drops.
	tight := DefaultRunConfig()
	tight.TB = smallTB()
	tight.TSync = 100
	resT, err := Run(context.Background(), Transports{}, WithConfig(tight))
	if err != nil {
		t.Fatal(err)
	}
	loose := DefaultRunConfig()
	loose.TB = smallTB()
	loose.TSync = 6000
	resL, err := Run(context.Background(), Transports{}, WithConfig(loose))
	if err != nil {
		t.Fatal(err)
	}
	if resT.Accuracy != 1.0 {
		t.Fatalf("tight accuracy %.3f", resT.Accuracy)
	}
	if resL.Accuracy >= resT.Accuracy {
		t.Fatalf("loose coupling did not degrade accuracy: tight %.3f loose %.3f (router %+v)",
			resT.Accuracy, resL.Accuracy, resL.Router)
	}
	if resL.Router.DroppedFull == 0 {
		t.Fatalf("loose coupling produced no overflow drops: %+v", resL.Router)
	}
}

func TestCoSimFewerSyncsWithLargerTsync(t *testing.T) {
	run := func(ts uint64) RunResult {
		rc := DefaultRunConfig()
		rc.TB = smallTB()
		rc.TSync = ts
		res, err := Run(context.Background(), Transports{}, WithConfig(rc))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	small := run(50)
	large := run(1000)
	if small.HW.SyncEvents <= large.HW.SyncEvents {
		t.Fatalf("sync events: Tsync=50 → %d, Tsync=1000 → %d", small.HW.SyncEvents, large.HW.SyncEvents)
	}
	ratio := float64(small.HW.SyncEvents) / float64(large.HW.SyncEvents)
	if ratio < 10 {
		t.Fatalf("sync-event ratio %.1f, want ≈20×", ratio)
	}
}

func TestSlotAddrWrapsRing(t *testing.T) {
	seen := map[uint32]bool{}
	for seq := uint32(1); seq <= NumSlots; seq++ {
		a := SlotAddr(seq)
		if a < SlotBase || a+SlotWords > WindowSize {
			t.Fatalf("slot %d at %#x outside window", seq, a)
		}
		if seen[a] {
			t.Fatalf("slot collision within one ring period at %#x", a)
		}
		seen[a] = true
	}
	if SlotAddr(1) != SlotAddr(1+NumSlots) {
		t.Fatal("ring does not wrap")
	}
}
