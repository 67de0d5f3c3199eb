package router

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cosim"
	"repro/internal/cosim/federation"
	"repro/internal/hdlsim"
	"repro/internal/obs"
)

// fedTransports lists the transport kinds the federation matrix covers
// on this platform.
func fedTransports() []TransportKind {
	kinds := []TransportKind{TransportInProc, TransportTCP, TransportUDS}
	if cosim.ShmSupported() {
		kinds = append(kinds, TransportShm)
	}
	return kinds
}

// pairwiseReference runs rc the way the paper's driver_simulate did
// before every run went through the federation manager: a transcription
// of that pairwise loop on the test goroutine, the board served by
// cosim.Serve on a second one, over a fresh link of rc.Transport with
// rc's decorator stack. It steps hdlsim.Driver.Advance directly over the
// HWEndpoint, so DATA and INT frames leave mid-quantum; it keeps its own
// copy of the elision predicate, reads pending traffic from the
// endpoint's metrics, and grants through SetGrantLead and HWEndpoint.Step.
// It is the independent reference router.Run must reproduce.
func pairwiseReference(t *testing.T, rc RunConfig) RunResult {
	t.Helper()
	tb := BuildTestbench(rc.TB)
	bs, err := BuildBoardSide(rc.BoardCfg, rc.AppCfg)
	if err != nil {
		t.Fatalf("pairwise board: %v", err)
	}
	hwBase, boardBase, err := dialPair(rc.Transport)
	if err != nil {
		t.Fatalf("pairwise link: %v", err)
	}
	stack := rc.stack()
	hwT, hwClose := cosim.BuildStack(hwBase, stack)
	boardT, boardClose := cosim.BuildStack(boardBase, stack.Peer())
	defer hwClose()
	defer boardClose()
	hw := cosim.NewHWEndpoint(hwT, rc.Mode)
	boardDone := make(chan error, 1)
	go func() { boardDone <- cosim.Serve(boardT, bs.Board, nil, "board") }()
	st, err := pairwiseLoop(tb, hw, rc)
	if err != nil {
		hwT.Close()
		<-boardDone
		t.Fatalf("pairwise hw side: %v", err)
	}
	if err := <-boardDone; err != nil {
		t.Fatalf("pairwise board side: %v", err)
	}
	res := RunResult{
		HW:        st,
		Router:    tb.Router.Stats(),
		Consumers: tb.ConsumerTotals(),
		App:       bs.App.Stats(),
		Board:     bs.Board.Stats(),
		Link:      *hw.Metrics(),
		Batch:     cosim.BatchStatsOf(hwT),
		Generated: tb.Generated(),
		SimCycles: st.Cycles,
	}
	res.BoardCycles, res.BoardSWTicks = hw.BoardTime()
	return res
}

// pairwiseLoop is the pairwise driver_simulate loop: advance the kernel
// one TSync quantum at a time and, at each boundary, elide it (adaptive
// runs: no traffic since the last grant, room under the cap for one more
// quantum, the accumulated grant strictly inside the board's promise,
// and the testbench not finished) or grant everything accumulated, the
// grant's traffic landing at the last boundary passed. The run ends at
// the budget or when the testbench finishes; a final partial grant
// settles the remainder.
func pairwiseLoop(tb *Testbench, hw *cosim.HWEndpoint, rc RunConfig) (hdlsim.DriverStats, error) {
	d, err := tb.Sim.NewDriver(tb.Clk, hw)
	if err != nil {
		return hdlsim.DriverStats{}, err
	}
	tsync, total := rc.TSync, rc.Budget()
	maxQ := rc.MaxQuantum
	if maxQ == 0 {
		maxQ = cosim.UnboundedLookahead
	}
	maxQ = max(maxQ, tsync)
	sent := func() uint64 { m := hw.Metrics(); return m.DataSent + m.IntSent }
	var syncs, elided, now, granted, last, lastBoardCy uint64
	sentAtGrant := uint64(0)
	grant := func(lead uint64) error {
		hw.SetGrantLead(lead)
		if _, err := hw.Step(cosim.SimTime(now)); err != nil {
			return err
		}
		syncs++
		granted, sentAtGrant = now, sent()
		lastBoardCy, _ = hw.BoardTime()
		return nil
	}
	for now < total {
		full := total-now >= tsync
		target := total
		if full {
			target = now + tsync
		}
		reached, halted, err := d.Advance(target)
		if err != nil {
			return d.Stats(), err
		}
		now = reached
		if reached < target {
			break
		}
		if full {
			acc, lead := now-granted, last-granted
			last = now
			elide := rc.Adaptive && sent() == sentAtGrant && acc <= maxQ-tsync &&
				acc < hw.Lookahead() && !tb.Finished()
			if elide {
				elided++
			} else {
				if err := grant(lead); err != nil {
					return d.Stats(), err
				}
				if tb.Finished() {
					break
				}
			}
		}
		if halted {
			break
		}
	}
	if now > granted {
		if err := grant(last - granted); err != nil {
			return d.Stats(), err
		}
	}
	st := d.Stats()
	st.SyncEvents, st.SyncsElided, st.LastBoardCy = syncs, elided, lastBoardCy
	return st, hw.Finish(cosim.SimTime(now))
}

// linkCounters strips the wall-clock fields from a link's metrics.
func linkCounters(m cosim.Metrics) cosim.Metrics {
	m.SyncWait, m.WallStart, m.Wall = 0, time.Time{}, 0
	return m
}

// TestFederationPairwiseBitIdentity is the engine-equivalence gate:
// router.Run, which runs every topology under the federation time
// manager, must reproduce the paper's pairwise loop (pairwiseReference)
// exactly — every DriverStats field (so the same rendezvous schedule),
// the router, application and board counters, the link counters and
// the batch counters — on every transport, in plain, adaptive,
// pipelined and batch+session configurations.
func TestFederationPairwiseBitIdentity(t *testing.T) {
	modes := []struct {
		name  string
		setup func(*RunConfig)
	}{
		{"", func(*RunConfig) {}},
		{"adaptive", func(rc *RunConfig) {
			rc.Adaptive = true
			// Sparser traffic leaves quiet boundaries for the
			// negotiation to elide; the busy default never does.
			rc.TB.Period = 2000
		}},
		{"pipelined", func(rc *RunConfig) { rc.Mode = cosim.SyncPipelined }},
		{"batch-session", func(rc *RunConfig) {
			rc.Adaptive = true
			rc.TB.Period = 2000
			rc.Batch = true
			sc := cosim.DefaultSessionConfig()
			// No chaos: keep wall-clock retransmission out of the link
			// counters on a slow (-race) host.
			sc.RetransmitTimeout = time.Minute
			rc.Resilience = &sc
		}},
	}
	for _, kind := range fedTransports() {
		for _, mode := range modes {
			name := kind.String()
			if mode.name != "" {
				name += "/" + mode.name
			}
			t.Run(name, func(t *testing.T) {
				rc := DefaultRunConfig()
				rc.TB = smallTB()
				rc.TSync = 200
				rc.Transport = kind
				mode.setup(&rc)

				ref := pairwiseReference(t, rc)
				got, err := Run(context.Background(), Transports{}, WithConfig(rc))
				if err != nil {
					t.Fatalf("Run: %v", err)
				}

				if got.HW != ref.HW {
					t.Errorf("DriverStats diverged:\npair %+v\nrun  %+v", ref.HW, got.HW)
				}
				if got.Router != ref.Router || got.Consumers != ref.Consumers {
					t.Errorf("router counters diverged:\npair %+v %+v\nrun  %+v %+v", ref.Router, ref.Consumers, got.Router, got.Consumers)
				}
				if got.App != ref.App || got.Board != ref.Board {
					t.Errorf("board counters diverged:\npair %+v %+v\nrun  %+v %+v", ref.App, ref.Board, got.App, got.Board)
				}
				if linkCounters(got.Link) != linkCounters(ref.Link) {
					t.Errorf("link counters diverged:\npair %+v\nrun  %+v", linkCounters(ref.Link), linkCounters(got.Link))
				}
				if got.Batch != ref.Batch {
					t.Errorf("batch counters diverged: pair %+v, run %+v", ref.Batch, got.Batch)
				}
				if got.Generated != ref.Generated || got.SimCycles != ref.SimCycles ||
					got.BoardCycles != ref.BoardCycles || got.BoardSWTicks != ref.BoardSWTicks {
					t.Errorf("clocks diverged: pair %d/%d/%d/%d, run %d/%d/%d/%d",
						ref.Generated, ref.SimCycles, ref.BoardCycles, ref.BoardSWTicks,
						got.Generated, got.SimCycles, got.BoardCycles, got.BoardSWTicks)
				}
				if rc.Adaptive && got.HW.SyncsElided == 0 {
					t.Error("adaptive run elided nothing — the negotiation is not reaching the manager")
				}
				if rc.Batch && got.Batch.Flushes == 0 {
					t.Error("batched run coalesced nothing")
				}
				if got.TransportKind != kind {
					t.Errorf("reported transport %v, want %v", got.TransportKind, kind)
				}
				if got.Conservation != nil {
					t.Errorf("conservation: %v", got.Conservation)
				}
			})
		}
	}
}

// TestFederationReportsBatchStats: every run reports board 0's hw-side
// coalescing counters, whatever its topology, and a one-board
// federation reports exactly what Run does.
func TestFederationReportsBatchStats(t *testing.T) {
	rc := DefaultRunConfig()
	rc.TB = smallTB()
	rc.TSync = 1000
	rc.Batch = true
	plain, err := Run(context.Background(), Transports{}, WithConfig(rc))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, boards := range []int{1, 2} {
		res, err := RunFederation(context.Background(), FederationConfig{Boards: boards}, WithConfig(rc))
		if err != nil {
			t.Fatalf("Boards=%d: %v", boards, err)
		}
		if res.Batch.Flushes == 0 {
			t.Errorf("Boards=%d: batched run reported no flushes: %+v", boards, res.Batch)
		}
		if boards == 1 && res.Batch != plain.Batch {
			t.Errorf("Boards=1: batch counters %+v, Run reported %+v", res.Batch, plain.Batch)
		}
	}
}

// TestFederationCountsSyncReasons: every rendezvous of a run is counted
// under one reason, in res.Fed.SyncsBy and in the registry's
// cosim_boundary_sync_total{reason=} series, which accumulate across
// the runs sharing it. A plain run syncs only at boundaries ("plain")
// and its end; an adaptive one never reports "plain".
func TestFederationCountsSyncReasons(t *testing.T) {
	reg := obs.NewRegistry()
	var total [federation.NumSyncReasons]uint64
	for _, adaptive := range []bool{false, true} {
		rc := DefaultRunConfig()
		rc.TB = smallTB()
		rc.TSync = 10
		rc.Adaptive = adaptive
		rc.Obs = reg
		res, err := RunFederation(context.Background(), FederationConfig{Boards: 1}, WithConfig(rc))
		if err != nil {
			t.Fatalf("adaptive=%v: %v", adaptive, err)
		}
		by := res.Fed.SyncsBy
		sum := uint64(0)
		for r, n := range by {
			sum += n
			total[r] += n
		}
		if sum != res.HW.SyncEvents {
			t.Errorf("adaptive=%v: SyncsBy %v sums to %d, SyncEvents %d", adaptive, by, sum, res.HW.SyncEvents)
		}
		if adaptive && (by[federation.SyncPlain] != 0 || by[federation.SyncTraffic] == 0) {
			t.Errorf("adaptive run: SyncsBy %v, want traffic syncs and no plain ones", by)
		}
		if !adaptive && by[federation.SyncPlain]+by[federation.SyncFinal] != sum {
			t.Errorf("plain run: SyncsBy %v, want only plain and final syncs", by)
		}
	}
	for r, want := range total {
		name := obs.Name("cosim_boundary_sync_total", "reason", federation.SyncReason(r).String())
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestFederationInProcBoardIdentity: hosting the board in-process as a
// *board.Board party (no wire, no goroutine) must still match the pairwise
// run's virtual-time results — the grant application order is the wire
// contract, not a transport artifact.
func TestFederationInProcBoardIdentity(t *testing.T) {
	rc := DefaultRunConfig()
	rc.TB = smallTB()
	rc.TSync = 200

	pair, err := Run(context.Background(), Transports{}, WithConfig(rc))
	if err != nil {
		t.Fatalf("pairwise: %v", err)
	}
	fed, err := RunFederation(context.Background(), FederationConfig{Boards: 1, InProcBoards: true}, WithConfig(rc))
	if err != nil {
		t.Fatalf("federation: %v", err)
	}
	if got, want := fingerprint(fed.RunResult), fingerprint(pair); got != want {
		t.Errorf("virtual-time fingerprint diverged:\npair %+v\nfed  %+v", want, got)
	}
	if fed.TransportKind != TransportInProc {
		t.Errorf("in-process federation reported transport %v", fed.TransportKind)
	}
}

// TestFederationMultiBoardDeterminism covers the 1-device+K-board
// topology: the run must verify every packet, keep the conservation
// invariant, and produce the identical fingerprint on repeated runs (the
// -race build makes this an adversarial-interleaving check for the wire
// variant, which runs each board on its own goroutine).
func TestFederationMultiBoardDeterminism(t *testing.T) {
	for _, inproc := range []bool{false, true} {
		name := "wire"
		if inproc {
			name = "inprocBoards"
		}
		t.Run(name, func(t *testing.T) {
			run := func() FederationResult {
				rc := DefaultRunConfig()
				rc.TB = smallTB()
				rc.TSync = 200
				res, err := RunFederation(context.Background(),
					FederationConfig{Boards: 2, InProcBoards: inproc}, WithConfig(rc))
				if err != nil {
					t.Fatalf("federation: %v", err)
				}
				return res
			}
			a, b := run(), run()
			if a.Accuracy != 1.0 {
				t.Errorf("accuracy %.3f (router %+v)", a.Accuracy, a.Router)
			}
			if a.Conservation != nil {
				t.Errorf("conservation: %v", a.Conservation)
			}
			if len(a.Apps) != 2 || len(a.BoardCycles) != 2 {
				t.Fatalf("%d app stats, %d board clocks", len(a.Apps), len(a.BoardCycles))
			}
			if a.Apps[0].Verified == 0 || a.Apps[1].Verified == 0 {
				t.Errorf("load not split: verified %d/%d", a.Apps[0].Verified, a.Apps[1].Verified)
			}
			if fingerprint(a.RunResult) != fingerprint(b.RunResult) {
				t.Errorf("repeated runs diverged:\nfirst  %+v\nsecond %+v",
					fingerprint(a.RunResult), fingerprint(b.RunResult))
			}
			if a.Fed.Syncs != b.Fed.Syncs || a.Fed.Elided != b.Fed.Elided {
				t.Errorf("schedules diverged: %d/%d vs %d/%d syncs/elided",
					a.Fed.Syncs, a.Fed.Elided, b.Fed.Syncs, b.Fed.Elided)
			}
		})
	}
}

// TestFederationPulseDevices covers the K-device+1-board topology: two
// auxiliary HDL kernels beat into board 0's private windows alongside
// the router traffic. Every emitted heartbeat must arrive (the routed
// exchange loses nothing), deterministically.
func TestFederationPulseDevices(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		name := "plain"
		if adaptive {
			name = "adaptive"
		}
		t.Run(name, func(t *testing.T) {
			run := func() FederationResult {
				rc := DefaultRunConfig()
				rc.TB = smallTB()
				rc.TSync = 200
				rc.Adaptive = adaptive
				res, err := RunFederation(context.Background(),
					FederationConfig{Boards: 1, PulseDevices: 2}, WithConfig(rc))
				if err != nil {
					t.Fatalf("federation: %v", err)
				}
				return res
			}
			res := run()
			if res.Accuracy != 1.0 {
				t.Errorf("accuracy %.3f with pulse devices attached", res.Accuracy)
			}
			if len(res.PulseSent) != 2 || len(res.PulseSeen) != 2 {
				t.Fatalf("pulse counters: sent %v seen %v", res.PulseSent, res.PulseSeen)
			}
			for p := range res.PulseSent {
				if res.PulseSent[p] == 0 {
					t.Errorf("pulse %d never beat", p)
				}
				if res.PulseSent[p] != res.PulseSeen[p] {
					t.Errorf("pulse %d: %d heartbeats sent, %d observed by the board DSR",
						p, res.PulseSent[p], res.PulseSeen[p])
				}
			}
			again := run()
			if fingerprint(res.RunResult) != fingerprint(again.RunResult) {
				t.Errorf("repeated runs diverged")
			}
			if res.PulseSeen[0] != again.PulseSeen[0] || res.PulseSeen[1] != again.PulseSeen[1] {
				t.Errorf("pulse delivery diverged: %v vs %v", res.PulseSeen, again.PulseSeen)
			}
		})
	}
}

// TestFederationConfigValidate: incoherent topologies fail fast with
// actionable errors, like RunConfig.Validate.
func TestFederationConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		fc   FederationConfig
	}{
		{"no boards", FederationConfig{Boards: 0}},
		{"negative pulses", FederationConfig{Boards: 1, PulseDevices: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.fc.Validate(); err == nil {
				t.Fatal("invalid federation config accepted")
			}
			if _, err := RunFederation(context.Background(), tc.fc); err == nil {
				t.Fatal("RunFederation accepted an invalid config")
			}
		})
	}
}

// TestFederationIRQBounds: engine e raises IRQ IRQPacket+e and pulse
// device p raises PulseIRQ0+p on a board vector of rtos.NumIRQs lines.
// The largest topologies that fit run to completion; one more board or
// pulse device fails Validate and RunFederation with ErrIRQRange instead
// of panicking on the caller's goroutine. 252 boards would wrap a uint8
// IRQ back to line 0.
func TestFederationIRQBounds(t *testing.T) {
	cases := []struct {
		name string
		fc   FederationConfig
		ok   bool
	}{
		{"27 boards", FederationConfig{Boards: 27, InProcBoards: true}, true},
		{"16 pulse devices", FederationConfig{Boards: 1, PulseDevices: 16, InProcBoards: true}, true},
		{"27 boards and 16 pulse devices", FederationConfig{Boards: 27, PulseDevices: 16, InProcBoards: true}, true},
		{"28 boards", FederationConfig{Boards: 28, InProcBoards: true}, false},
		{"17 pulse devices", FederationConfig{Boards: 1, PulseDevices: 17, InProcBoards: true}, false},
		{"252 boards", FederationConfig{Boards: 252, InProcBoards: true}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rc := DefaultRunConfig()
			rc.TB = smallTB()
			rc.TSync = 200
			res, err := RunFederation(context.Background(), tc.fc, WithConfig(rc))
			if !tc.ok {
				if verr := tc.fc.Validate(); !errors.Is(verr, ErrIRQRange) {
					t.Errorf("Validate = %v, want ErrIRQRange", verr)
				}
				if !errors.Is(err, ErrIRQRange) {
					t.Errorf("RunFederation = %v, want ErrIRQRange", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if res.Conservation != nil {
				t.Fatal(res.Conservation)
			}
			if len(res.Apps) != tc.fc.Boards || len(res.PulseSent) != tc.fc.PulseDevices {
				t.Fatalf("%d apps, %d pulse devices", len(res.Apps), len(res.PulseSent))
			}
		})
	}
}

// TestRunDispatchesFederation: the plain Run entry point honors
// RunConfig.Federation, returning the embedded pairwise-compatible result.
func TestRunDispatchesFederation(t *testing.T) {
	rc := DefaultRunConfig()
	rc.TB = smallTB()
	rc.TSync = 200

	direct, err := Run(context.Background(), Transports{}, WithConfig(rc))
	if err != nil {
		t.Fatalf("pairwise: %v", err)
	}
	rc.Federation = &FederationConfig{Boards: 1}
	viaField, err := Run(context.Background(), Transports{}, WithConfig(rc))
	if err != nil {
		t.Fatalf("federated Run: %v", err)
	}
	if fingerprint(direct) != fingerprint(viaField) {
		t.Errorf("Federation result diverged from pairwise:\npair %+v\nfed  %+v",
			fingerprint(direct), fingerprint(viaField))
	}
}

// TestMultiBoardCoSimSplitsLoad: two boards, each serving one checksum
// engine through its own link, split the verification load evenly.
func TestMultiBoardCoSimSplitsLoad(t *testing.T) {
	rc := DefaultRunConfig()
	rc.TB = smallTB()
	rc.TSync = 200
	res, err := RunFederation(context.Background(), FederationConfig{Boards: 2}, WithConfig(rc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Conservation != nil {
		t.Fatal(res.Conservation)
	}
	if res.Accuracy != 1.0 {
		t.Fatalf("dual-board accuracy %.3f (router %+v)", res.Accuracy, res.Router)
	}
	if len(res.Apps) != 2 {
		t.Fatalf("%d app stats", len(res.Apps))
	}
	total := res.Apps[0].Delivered + res.Apps[1].Delivered
	if total != res.Generated {
		t.Fatalf("boards delivered %d of %d", total, res.Generated)
	}
	// Round-robin assignment: the split is even.
	if res.Apps[0].Delivered != res.Apps[1].Delivered {
		t.Fatalf("uneven split: %d vs %d", res.Apps[0].Delivered, res.Apps[1].Delivered)
	}
	// Both boards advanced the same virtual time (same grants).
	if res.BoardCycles[0] != res.BoardCycles[1] || res.BoardCycles[0] == 0 {
		t.Fatalf("board times %v", res.BoardCycles)
	}
}

// TestMultiBoardMatchesSingleBoardAccuracy: with the verification load
// halved per board, the dual-board setup must be at least as accurate as
// a single board at the same Tsync.
func TestMultiBoardMatchesSingleBoardAccuracy(t *testing.T) {
	mk := func(boards int, tsync uint64) float64 {
		rc := DefaultRunConfig()
		rc.TSync = tsync
		var acc float64
		if boards == 1 {
			res, err := Run(context.Background(), Transports{}, WithConfig(rc))
			if err != nil {
				t.Fatal(err)
			}
			acc = res.Accuracy
		} else {
			res, err := RunFederation(context.Background(), FederationConfig{Boards: boards}, WithConfig(rc))
			if err != nil {
				t.Fatal(err)
			}
			acc = res.Accuracy
		}
		return acc
	}
	for _, ts := range []uint64{2000, 8000} {
		single := mk(1, ts)
		dual := mk(2, ts)
		if dual < single-0.01 {
			t.Fatalf("Tsync=%d: dual-board accuracy %.3f below single %.3f", ts, dual, single)
		}
	}
}

// TestMultiBoardOneBoardDegeneratesToSingle: a one-board federation is
// the topology Run executes by default.
func TestMultiBoardOneBoardDegeneratesToSingle(t *testing.T) {
	rc := DefaultRunConfig()
	rc.TB = smallTB()
	rc.TSync = 300
	single, err := Run(context.Background(), Transports{}, WithConfig(rc))
	if err != nil {
		t.Fatal(err)
	}
	multi, err := RunFederation(context.Background(), FederationConfig{Boards: 1}, WithConfig(rc))
	if err != nil {
		t.Fatal(err)
	}
	if single.Router != multi.Router {
		t.Fatalf("1-board multi differs from single:\n%+v\n%+v", single.Router, multi.Router)
	}
}

// TestMultiBoardValidation: a federation without boards is rejected.
func TestMultiBoardValidation(t *testing.T) {
	if _, err := RunFederation(context.Background(), FederationConfig{Boards: 0}); err == nil {
		t.Fatal("0 boards accepted")
	}
}
