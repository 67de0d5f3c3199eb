package repro

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/cosim"
	"repro/internal/hdlsim"
	"repro/internal/router"
)

// adaptiveOutcome is the bit-compared virtual-time result of a run. It
// deliberately includes every field the paper's evaluation reports:
// router statistics, the board's cycle/tick clock, and the HDL cycle
// count.
type adaptiveOutcome struct {
	r      router.Stats
	cycles uint64
	ticks  uint64
	sim    uint64
}

// TestAdaptiveSyncDeterminism is the tentpole property of the adaptive
// quantum: over a ≥1000-quantum workload, enabling lookahead-driven grant
// elongation plus wire-frame batching changes only the wall-clock cost —
// the virtual-time result is bit-identical to the plain TSync stepping,
// and the elided boundaries exactly account for the missing sync events.
func TestAdaptiveSyncDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("soak; skipped in -short")
	}
	base := router.DefaultRunConfig()
	base.TSync = 25 // >1000 quanta over the default workload

	run := func(adaptive bool) router.RunResult {
		rc := base
		rc.Adaptive = adaptive
		rc.Batch = adaptive
		res, err := router.Run(context.Background(), router.Transports{}, router.WithConfig(rc))
		if err != nil {
			t.Fatalf("adaptive=%v: %v", adaptive, err)
		}
		if res.Conservation != nil {
			t.Fatalf("adaptive=%v: %v", adaptive, res.Conservation)
		}
		return res
	}

	plain := run(false)
	adpt := run(true)
	again := run(true)

	if plain.HW.SyncEvents < 1000 {
		t.Fatalf("only %d quanta; the soak wants ≥1000", plain.HW.SyncEvents)
	}
	if plain.HW.SyncsElided != 0 {
		t.Fatalf("plain run elided %d boundaries", plain.HW.SyncsElided)
	}
	if adpt.HW.SyncsElided == 0 {
		t.Fatalf("adaptive run elided nothing: %+v", adpt.HW)
	}

	out := func(r router.RunResult) adaptiveOutcome {
		return adaptiveOutcome{r: r.Router, cycles: r.BoardCycles, ticks: r.BoardSWTicks, sim: r.SimCycles}
	}
	if out(plain) != out(adpt) {
		t.Fatalf("adaptive sync changed the virtual-time result:\nplain    %+v\nadaptive %+v", out(plain), out(adpt))
	}
	if out(adpt) != out(again) {
		t.Fatalf("adaptive runs differ between executions:\n%+v\n%+v", out(adpt), out(again))
	}

	// Every TSync boundary is either a rendezvous or an elision; the
	// positions are identical across modes, so the counts must balance.
	if plain.HW.SyncEvents != adpt.HW.SyncEvents+adpt.HW.SyncsElided {
		t.Fatalf("boundary accounting broken: plain %d syncs, adaptive %d syncs + %d elided",
			plain.HW.SyncEvents, adpt.HW.SyncEvents, adpt.HW.SyncsElided)
	}
}

// TestAdaptiveChaosSoakDeterminism layers the adaptive quantum and frame
// batching on top of an injured link healed by the session layer: the
// full stack (batch over session over chaos) must still produce the
// clean plain run's bits.
func TestAdaptiveChaosSoakDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("soak; skipped in -short")
	}
	rc := router.DefaultRunConfig()
	rc.TSync = 25

	run := func(adaptive, chaos bool) (adaptiveOutcome, cosim.LinkStats) {
		cfg := rc
		cfg.Adaptive = adaptive
		cfg.Batch = adaptive
		if chaos {
			sc := cosim.UniformScenario(20260805, cosim.FaultProfile{
				Drop: 0.01, Duplicate: 0.01, Reorder: 0.015, Corrupt: 0.01,
			})
			cfg.Chaos = &sc
			rcfg := cosim.DefaultSessionConfig()
			rcfg.RetransmitTimeout = 10 * time.Millisecond
			cfg.Resilience = &rcfg
		}
		res, err := router.Run(context.Background(), router.Transports{}, router.WithConfig(cfg))
		if err != nil {
			t.Fatalf("adaptive=%v chaos=%v: %v", adaptive, chaos, err)
		}
		if res.Conservation != nil {
			t.Fatalf("adaptive=%v chaos=%v: %v", adaptive, chaos, res.Conservation)
		}
		return adaptiveOutcome{r: res.Router, cycles: res.BoardCycles, ticks: res.BoardSWTicks, sim: res.SimCycles}, res.Link.Link
	}

	clean, _ := run(false, false)
	dirty, link := run(true, true)
	again, _ := run(true, true)

	if clean != dirty {
		t.Fatalf("adaptive+batch over chaos changed the result:\nclean %+v\ndirty %+v", clean, dirty)
	}
	if dirty != again {
		t.Fatalf("same-seed adaptive chaos runs differ:\n%+v\n%+v", dirty, again)
	}
	if link.FramesInjured == 0 {
		t.Fatalf("chaos injected nothing: %+v", link)
	}
	if link.Retransmits == 0 {
		t.Fatalf("session repaired nothing despite %d injuries: %+v", link.FramesInjured, link)
	}
}

// TestAdaptiveLeadGrid checks that adaptive elision needs no promise from
// the device model: over a grid of TSync values, packet periods and link
// stacks (and a board hosted in-process, with no link), every
// Adaptive+Batch run equals plain TSync stepping in every
// simulated statistic, and its rendezvous plus elided boundaries add up
// to the plain run's rendezvous. An elongated grant that applied its
// traffic at the start of the accumulated ticks, instead of at the start
// of the quantum that produced it, shifts the board's view of the device
// and fails here.
func TestAdaptiveLeadGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("grid of full co-simulations; skipped in -short")
	}
	type outcome struct {
		r         router.Stats
		cycles    uint64
		ticks     uint64
		sim       uint64
		app       router.AppStats
		consumers router.ConsumerStats
	}
	sess := cosim.DefaultSessionConfig()
	stacks := []struct {
		name  string
		shape func(*router.RunConfig)
	}{
		{"inproc", func(rc *router.RunConfig) {}},
		{"tcp", func(rc *router.RunConfig) { rc.Transport = router.TransportTCP }},
		{"tcp+session", func(rc *router.RunConfig) { rc.Transport, rc.Resilience = router.TransportTCP, &sess }},
		{"inproc board", func(rc *router.RunConfig) { rc.Federation = &router.FederationConfig{Boards: 1, InProcBoards: true} }},
	}
	run := func(rc router.RunConfig) (outcome, hdlsim.DriverStats) {
		t.Helper()
		res, err := router.Run(context.Background(), router.Transports{}, router.WithConfig(rc))
		if err != nil {
			t.Fatal(err)
		}
		if res.Conservation != nil {
			t.Fatal(res.Conservation)
		}
		return outcome{res.Router, res.BoardCycles, res.BoardSWTicks, res.SimCycles, res.App, res.Consumers}, res.HW
	}
	elided := uint64(0)
	for _, tsync := range []uint64{1, 3, 25, 100} {
		for _, period := range []uint64{10000, 1337} {
			base := router.DefaultRunConfig()
			base.TSync = tsync
			base.TB.Period = period
			base.TB.PacketsPerPort = 4
			base.TB.Seed = 7
			want, plain := run(base)
			for _, st := range stacks {
				rc := base
				st.shape(&rc)
				rc.Adaptive, rc.Batch = true, true
				got, hw := run(rc)
				name := fmt.Sprintf("tsync=%d period=%d %s", tsync, period, st.name)
				if got != want {
					t.Errorf("%s: adaptive result differs from plain stepping\nplain    %+v\nadaptive %+v", name, want, got)
				}
				if plain.SyncEvents != hw.SyncEvents+hw.SyncsElided {
					t.Errorf("%s: plain %d rendezvous, adaptive %d + %d elided", name, plain.SyncEvents, hw.SyncEvents, hw.SyncsElided)
				}
				elided += hw.SyncsElided
			}
		}
	}
	if elided == 0 {
		t.Fatal("no run elided a boundary; the grid exercises nothing")
	}
}
