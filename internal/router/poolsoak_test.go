package router

import (
	"context"
	"testing"
	"time"

	"repro/internal/cosim"
)

// TestChaosAdaptivePoolSoak is the pooled wire path's integration soak:
// a chaos-injured, session-healed, batch-coalesced, adaptively elongated
// run exercises every buffer-recycling path at once — pooled batch
// bodies, ack-recycled session envelopes, chaos clones of both, and the
// codec pools on each decode. The run must stay bit-identical to a plain
// fault-free run, and the adaptive rendezvous accounting must balance:
// every TSync boundary is either synced or provably elided, so
// plain.SyncEvents == adaptive.SyncEvents + adaptive.SyncsElided.
// A recycled buffer handed to two owners shows up here as divergence.
func TestChaosAdaptivePoolSoak(t *testing.T) {
	mk := func(adaptive bool, chaos bool) RunConfig {
		rc := DefaultRunConfig()
		rc.TB = smallTB()
		rc.TB.PacketsPerPort = 20
		rc.TB.Period = 4000 // sparse traffic: idle TSync boundaries to elide
		rc.TSync = 200
		rc.Adaptive = adaptive
		rc.Batch = adaptive
		if chaos {
			sc := cosim.UniformScenario(42, cosim.FaultProfile{
				Drop: 0.05, Duplicate: 0.05, Reorder: 0.05, Corrupt: 0.05, Truncate: 0.02,
			})
			sess := cosim.DefaultSessionConfig()
			sess.RetransmitTimeout = 5 * time.Millisecond
			rc.Chaos = &sc
			rc.Resilience = &sess
		}
		return rc
	}
	run := func(rc RunConfig) RunResult {
		t.Helper()
		res, err := Run(context.Background(), Transports{}, WithConfig(rc))
		if err != nil {
			t.Fatal(err)
		}
		if res.Conservation != nil {
			t.Fatal(res.Conservation)
		}
		return res
	}

	plain := run(mk(false, false))
	soak := run(mk(true, true))

	if plain.Router != soak.Router || plain.BoardCycles != soak.BoardCycles ||
		plain.BoardSWTicks != soak.BoardSWTicks || plain.SimCycles != soak.SimCycles {
		t.Fatalf("chaos+adaptive+pool run diverged from plain:\nplain %+v board %d/%d hw %d\nsoak  %+v board %d/%d hw %d",
			plain.Router, plain.BoardCycles, plain.BoardSWTicks, plain.SimCycles,
			soak.Router, soak.BoardCycles, soak.BoardSWTicks, soak.SimCycles)
	}
	if plain.HW.SyncEvents != soak.HW.SyncEvents+soak.HW.SyncsElided {
		t.Fatalf("rendezvous accounting broken: plain %d syncs, soak %d synced + %d elided",
			plain.HW.SyncEvents, soak.HW.SyncEvents, soak.HW.SyncsElided)
	}
	if soak.HW.SyncsElided == 0 {
		t.Fatal("adaptive soak elided nothing: the elongation path was not exercised")
	}
	if soak.Link.Link.FramesInjured == 0 {
		t.Fatal("chaos injured nothing: the fault paths were not exercised")
	}
	if soak.Link.Link.Retransmits == 0 {
		t.Fatal("session retransmitted nothing: the recovery paths were not exercised")
	}
}

// TestRunSurvivesLateDuplicateOfFinishAck: with every frame duplicated
// and a link delay, the board's duplicate of its final ack is still
// being sent when the simulator has the first copy. The run must
// succeed: the board is done, and the link may only close under it
// after it returns.
func TestRunSurvivesLateDuplicateOfFinishAck(t *testing.T) {
	rc := DefaultRunConfig()
	rc.TB = smallTB()
	rc.TSync = 500
	sc := cosim.UniformScenario(7, cosim.FaultProfile{Duplicate: 1})
	sess := cosim.DefaultSessionConfig()
	rc.Chaos = &sc
	rc.Resilience = &sess
	rc.LinkDelay = 200 * time.Microsecond
	for i := 0; i < 5; i++ {
		if _, err := Run(context.Background(), Transports{}, WithConfig(rc)); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
}
