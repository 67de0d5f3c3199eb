package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/cosim"
	"repro/internal/obs"
	"repro/internal/router"
)

// Options tunes the experiment sweeps.
type Options struct {
	// Quick shrinks sweeps for CI-time runs.
	Quick bool
	// LinkDelay emulates the paper's host↔board Ethernet latency for the
	// wall-clock figures (F5 always uses a delay; F6 uses this value,
	// default 0 = plain loopback TCP).
	LinkDelay time.Duration
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
	// Obs, when non-nil, receives live metrics from every co-simulation
	// run of the sweep (see router.RunConfig.Obs); cosim-experiments
	// wires it to the -debug-addr server.
	Obs *obs.Registry
}

func (o Options) log(format string, args ...any) {
	if o.Progress != nil {
		fmt.Fprintf(o.Progress, format+"\n", args...)
	}
}

// runConfig is DefaultRunConfig with the sweep-wide observability
// registry attached.
func (o Options) runConfig() router.RunConfig {
	rc := router.DefaultRunConfig()
	rc.Obs = o.Obs
	return rc
}

// run executes one configured co-simulation through the router.Run entry
// point; the sweeps never need cancellation, so the background context is
// fine.
func run(rc router.RunConfig) (router.RunResult, error) {
	return router.Run(context.Background(), router.Transports{}, router.WithConfig(rc))
}

// fig5Delay is the emulated link latency for Figure 5. The overhead
// figures only make sense when per-sync cost dominates per-cycle cost, as
// on the paper's physical network.
const fig5Delay = 2 * time.Millisecond

// Fig5TSyncs are the synchronization intervals of Figure 5's curves.
var Fig5TSyncs = []uint64{1000, 2000, 5000, 10000}

// Fig5 reproduces "Co-Simulation Overhead": total co-simulation wall time
// as a function of the number of exchanged packets N, one curve per
// T_sync. Expected shape: linear in N for every T_sync; slope decreasing
// with T_sync; time ratio between T_sync=1000 and T_sync=10000 roughly
// constant in N.
func Fig5(opt Options) (*Table, error) {
	ns := []int{20, 40, 60, 80, 100}
	period := uint64(50000)
	delay := fig5Delay
	if opt.Quick {
		ns = []int{20, 40, 60}
		period = 20000
		delay = 500 * time.Microsecond
	}
	t := &Table{
		Title:  "Figure 5: co-simulation wall time [s] vs exchanged packets N",
		Header: append([]string{"N"}, tsyncHeaders(Fig5TSyncs)...),
	}
	var ratioSum float64
	for _, n := range ns {
		cells := []any{n}
		var first, last time.Duration
		for i, ts := range Fig5TSyncs {
			rc := opt.runConfig()
			rc.TB.PacketsPerPort = n / rc.TB.Ports
			rc.TB.Period = period
			rc.TSync = ts
			rc.Transport = router.TransportTCP
			rc.LinkDelay = delay
			res, err := run(rc)
			if err != nil {
				return nil, fmt.Errorf("fig5 N=%d Tsync=%d: %w", n, ts, err)
			}
			opt.log("fig5: %v", res)
			cells = append(cells, fmt.Sprintf("%.3f", res.Wall.Seconds()))
			if i == 0 {
				first = res.Wall
			}
			last = res.Wall
		}
		ratio := first.Seconds() / last.Seconds()
		ratioSum += ratio
		cells = append(cells, fmt.Sprintf("%.2f", ratio))
		t.Append(cells...)
	}
	t.Header = append(t.Header, "ratio(1000/10000)")
	t.Note("emulated link latency %v per message; packet period %d cycles", delay, period)
	t.Note("paper: linear in N; ratio time(Tsync=1000)/time(Tsync=10000) ≈ 8, constant in N; measured mean ratio %.2f", ratioSum/float64(len(ns)))
	return t, nil
}

// Fig5Adaptive extends Figure 5 with the adaptive-synchronization sweep:
// the same latency-dominated workload, once with plain quantum stepping
// and once with lookahead-negotiated elongation plus wire-frame batching.
// The simulated-time results must match bit for bit (the sweep fails
// otherwise); only the rendezvous count — and with it the wall time —
// drops.
func Fig5Adaptive(opt Options) (*Table, error) {
	ns := []int{20, 40, 60, 80, 100}
	period := uint64(50000)
	delay := fig5Delay
	const tsync = 1000
	if opt.Quick {
		ns = []int{20, 40, 60}
		period = 20000
		delay = 500 * time.Microsecond
	}
	t := &Table{
		Title:  fmt.Sprintf("Figure 5 (adaptive): plain vs adaptive+batch quantum, Tsync=%d", tsync),
		Header: []string{"N", "wall_plain[s]", "wall_adpt[s]", "syncs_plain", "syncs_adpt", "elided", "speedup"},
	}
	mk := func(n int, adaptive bool) router.RunConfig {
		rc := opt.runConfig()
		rc.TB.PacketsPerPort = n / rc.TB.Ports
		rc.TB.Period = period
		rc.TSync = tsync
		rc.Transport = router.TransportTCP
		rc.LinkDelay = delay
		rc.Adaptive = adaptive
		rc.Batch = adaptive
		return rc
	}
	for _, n := range ns {
		plain, err := run(mk(n, false))
		if err != nil {
			return nil, fmt.Errorf("fig5a N=%d plain: %w", n, err)
		}
		adpt, err := run(mk(n, true))
		if err != nil {
			return nil, fmt.Errorf("fig5a N=%d adaptive: %w", n, err)
		}
		opt.log("fig5a: plain %v", plain)
		opt.log("fig5a: adaptive %v (elided %d)", adpt, adpt.HW.SyncsElided)
		if plain.BoardCycles != adpt.BoardCycles || plain.BoardSWTicks != adpt.BoardSWTicks ||
			plain.SimCycles != adpt.SimCycles || plain.Router != adpt.Router {
			return nil, fmt.Errorf("fig5a N=%d: adaptive run diverged from plain: board %d/%d vs %d/%d, hw %d vs %d",
				n, plain.BoardCycles, plain.BoardSWTicks, adpt.BoardCycles, adpt.BoardSWTicks,
				plain.SimCycles, adpt.SimCycles)
		}
		t.Append(n,
			fmt.Sprintf("%.3f", plain.Wall.Seconds()),
			fmt.Sprintf("%.3f", adpt.Wall.Seconds()),
			plain.HW.SyncEvents, adpt.HW.SyncEvents, adpt.HW.SyncsElided,
			fmt.Sprintf("%.2f", plain.Wall.Seconds()/adpt.Wall.Seconds()))
	}
	t.Note("emulated link latency %v per message; packet period %d cycles", delay, period)
	t.Note("every row's simulated-time result is verified bit-identical between the two runs:")
	t.Note("elongation only skips rendezvous the lookahead negotiation proves unobservable")
	return t, nil
}

func tsyncHeaders(ts []uint64) []string {
	h := make([]string, len(ts))
	for i, v := range ts {
		h[i] = fmt.Sprintf("Tsync=%d", v)
	}
	return h
}

// Fig6TSyncs is the sweep of Figure 6 (log-spaced, as in the paper's
// log-log plot; the paper calls out T_sync = 1 and T_sync = 360).
var Fig6TSyncs = []uint64{1, 2, 5, 10, 36, 100, 360, 1000, 3600, 10000}

// Fig6 reproduces "Co-Simulation Overhead vs T_sync": the ratio between
// timed co-simulation wall time and the wall time of the same workload
// with no synchronization (the loopback run, T_sync=∞). Expected shape:
// monotone decay, near-identical curves for N=100 and N=1000.
func Fig6(opt Options) (*Table, error) {
	ns := []int{100, 1000}
	tsyncs := Fig6TSyncs
	if opt.Quick {
		ns = []int{100}
		tsyncs = []uint64{1, 10, 100, 1000, 10000}
	}
	t := &Table{
		Title:  "Figure 6: co-simulation overhead ratio vs Tsync (baseline: unsynchronized simulation)",
		Header: append([]string{"Tsync"}, nHeaders(ns)...),
	}
	base := make(map[int]time.Duration)
	for _, n := range ns {
		tbc := router.DefaultTBConfig()
		tbc.PacketsPerPort = n / tbc.Ports
		// Run the baseline three times and keep the minimum: it is the
		// denominator of every ratio, so noise here skews the whole table.
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			res, err := router.RunLoopback(tbc)
			if err != nil {
				return nil, fmt.Errorf("fig6 baseline N=%d: %w", n, err)
			}
			if best == 0 || res.Wall < best {
				best = res.Wall
			}
		}
		base[n] = best
		opt.log("fig6: baseline N=%d: %v", n, best)
	}
	for _, ts := range tsyncs {
		cells := []any{ts}
		for _, n := range ns {
			rc := opt.runConfig()
			rc.TB.PacketsPerPort = n / rc.TB.Ports
			rc.TSync = ts
			rc.Transport = router.TransportTCP
			rc.LinkDelay = opt.LinkDelay
			res, err := run(rc)
			if err != nil {
				return nil, fmt.Errorf("fig6 N=%d Tsync=%d: %w", n, ts, err)
			}
			opt.log("fig6: %v", res)
			cells = append(cells, fmt.Sprintf("%.1f", res.Wall.Seconds()/base[n].Seconds()))
		}
		t.Append(cells...)
	}
	t.Note("TCP loopback, extra link delay %v per message", opt.LinkDelay)
	t.Note("paper (100Mb host↔board Ethernet): ~1000x at Tsync=1 decaying to ~100x at Tsync=360;")
	t.Note("the decay shape reproduces; absolute ratios scale with link-RTT/simulator-speed (see EXPERIMENTS.md)")
	return t, nil
}

func nHeaders(ns []int) []string {
	h := make([]string, len(ns))
	for i, n := range ns {
		h[i] = fmt.Sprintf("N=%d", n)
	}
	return h
}

// Fig7TSyncs is the accuracy sweep.
var Fig7TSyncs = []uint64{1000, 2000, 3000, 4000, 5000, 6000, 8000, 10000, 15000, 20000, 40000}

// Fig7 reproduces "Simulation Accuracy vs T_sync": the percentage of
// packets the system handles, for N=100 and N=1000. Expected shape: 100%
// plateau up to T_sync ≈ 5000, then progressive decline, with N=1000
// slightly below N=100 past the knee.
func Fig7(opt Options) (*Table, error) {
	ns := []int{100, 1000}
	tsyncs := Fig7TSyncs
	if opt.Quick {
		tsyncs = []uint64{1000, 4000, 6000, 10000, 20000}
	}
	t := &Table{
		Title:  "Figure 7: simulation accuracy [% packets handled] vs Tsync",
		Header: append([]string{"Tsync"}, nHeaders(ns)...),
	}
	for _, ts := range tsyncs {
		cells := []any{ts}
		for _, n := range ns {
			res, err := accuracyRun(opt, n, ts)
			if err != nil {
				return nil, fmt.Errorf("fig7 N=%d Tsync=%d: %w", n, ts, err)
			}
			opt.log("fig7: %v", res)
			if res.Conservation != nil {
				return nil, fmt.Errorf("fig7 N=%d Tsync=%d: %w", n, ts, res.Conservation)
			}
			cells = append(cells, fmt.Sprintf("%.1f", 100*res.Accuracy))
		}
		t.Append(cells...)
	}
	t.Note("deterministic in-process transport; FIFO capacity 4 packets/port, period 1250 cycles/port")
	t.Note("paper: 100%% up to Tsync≈5000, then decline; N=1000 marginally below N=100 past the knee")
	return t, nil
}

// accuracyRun executes one deterministic accuracy point.
func accuracyRun(opt Options, n int, tsync uint64) (router.RunResult, error) {
	rc := opt.runConfig()
	rc.TB.PacketsPerPort = n / rc.TB.Ports
	rc.TSync = tsync
	rc.Transport = router.TransportInProc
	return run(rc)
}

// Fig8 reproduces the paper's closing design-exploration remark: because
// overhead falls and inaccuracy rises with T_sync, the product
// accuracy × speedup has a maximum; a designer free to choose T_sync in a
// range should pick that point.
func Fig8(opt Options) (*Table, error) {
	tsyncs := []uint64{1000, 2000, 3000, 4000, 5000, 6000, 8000, 10000, 15000, 20000}
	if opt.Quick {
		tsyncs = []uint64{1000, 3000, 5000, 8000, 15000}
	}
	const n = 100
	t := &Table{
		Title:  "Figure 8 (derived): accuracy × speedup — optimal Tsync selection",
		Header: []string{"Tsync", "accuracy", "wall[s]", "speedup_vs_lockstep", "quality=acc*speedup"},
	}
	// Lockstep reference for the speedup axis.
	ref, err := wallRun(opt, n, 1, opt.LinkDelay)
	if err != nil {
		return nil, err
	}
	opt.log("fig8: lockstep ref %v", ref)
	bestQ, bestTS := 0.0, uint64(0)
	for _, ts := range tsyncs {
		acc, err := accuracyRun(opt, n, ts)
		if err != nil {
			return nil, err
		}
		wall, err := wallRun(opt, n, ts, opt.LinkDelay)
		if err != nil {
			return nil, err
		}
		opt.log("fig8: %v / %v", acc, wall)
		speedup := ref.Wall.Seconds() / wall.Wall.Seconds()
		q := acc.Accuracy * speedup
		if q > bestQ {
			bestQ, bestTS = q, ts
		}
		t.Append(ts, fmt.Sprintf("%.3f", acc.Accuracy), fmt.Sprintf("%.3f", wall.Wall.Seconds()),
			fmt.Sprintf("%.1f", speedup), fmt.Sprintf("%.1f", q))
	}
	t.Note("optimal Tsync by accuracy×speedup: %d (quality %.1f)", bestTS, bestQ)
	t.Note("paper §6: \"there is a value of Tsync which maximizes the product (accuracy x overhead)\"")
	return t, nil
}

func wallRun(opt Options, n int, tsync uint64, delay time.Duration) (router.RunResult, error) {
	rc := opt.runConfig()
	rc.TB.PacketsPerPort = n / rc.TB.Ports
	rc.TSync = tsync
	rc.Transport = router.TransportTCP
	rc.LinkDelay = delay
	return run(rc)
}

// AblationPolicies compares the coupling disciplines the paper situates
// itself against: lockstep (tightest timed coupling), the paper's quantum
// scheme at several T_sync, and the unsynchronized functional baseline.
func AblationPolicies(opt Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation A1: synchronization policies (N=100)",
		Header: []string{"policy", "accuracy", "wall[s]", "sync events"},
	}
	const n = 100
	lock, err := wallRun(opt, n, 1, opt.LinkDelay)
	if err != nil {
		return nil, err
	}
	t.Append("lockstep (Tsync=1)", fmt.Sprintf("%.3f", lock.Accuracy),
		fmt.Sprintf("%.3f", lock.Wall.Seconds()), lock.HW.SyncEvents)
	for _, ts := range []uint64{1000, 5000, 20000} {
		r, err := wallRun(opt, n, ts, opt.LinkDelay)
		if err != nil {
			return nil, err
		}
		t.Append(fmt.Sprintf("quantum Tsync=%d", ts), fmt.Sprintf("%.3f", r.Accuracy),
			fmt.Sprintf("%.3f", r.Wall.Seconds()), r.HW.SyncEvents)
	}
	tbc := router.DefaultTBConfig()
	tbc.PacketsPerPort = n / tbc.Ports
	free, err := router.RunLoopback(tbc)
	if err != nil {
		return nil, err
	}
	t.Append("unsynchronized (functional)", fmt.Sprintf("%.3f", free.Accuracy),
		fmt.Sprintf("%.3f", free.Wall.Seconds()), 0)
	t.Note("rollback (optimistic) is deliberately absent: the board's free-running watchdog")
	t.Note("cannot be rolled back — the same argument the paper makes in §2")
	return t, nil
}

// AblationTiming compares the ISS-measured software timing model against
// analytic annotation (paper refs [14,15]) at the accuracy knee.
func AblationTiming(opt Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation A2: software timing model (N=100)",
		Header: []string{"Tsync", "accuracy(ISS)", "accuracy(annotated)", "ISS kcycles"},
	}
	for _, ts := range []uint64{2000, 5000, 8000, 15000} {
		rcI := opt.runConfig()
		rcI.TB.PacketsPerPort = 25
		rcI.TSync = ts
		resI, err := run(rcI)
		if err != nil {
			return nil, err
		}
		rcA := rcI
		rcA.AppCfg.Timing = router.TimingAnnotated
		resA, err := run(rcA)
		if err != nil {
			return nil, err
		}
		opt.log("A2: Tsync=%d iss=%.3f annotated=%.3f", ts, resI.Accuracy, resA.Accuracy)
		t.Append(ts, fmt.Sprintf("%.3f", resI.Accuracy), fmt.Sprintf("%.3f", resA.Accuracy),
			resI.App.ISSCycles/1000)
	}
	t.Note("the annotated model approximates the ISS measurement; divergence at the knee")
	t.Note("quantifies the value of instruction-accurate software timing")
	return t, nil
}

// AblationTransport quantifies per-sync cost across transports.
func AblationTransport(opt Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation A3: transport cost per synchronization event (N=20, Tsync=1)",
		Header: []string{"transport", "sync events", "wall[s]", "us/sync"},
	}
	for _, tr := range []router.TransportKind{router.TransportInProc, router.TransportTCP} {
		rc := opt.runConfig()
		rc.TB.PacketsPerPort = 5
		rc.TSync = 1
		rc.Transport = tr
		res, err := run(rc)
		if err != nil {
			return nil, err
		}
		t.Append(tr.String(), res.HW.SyncEvents, fmt.Sprintf("%.3f", res.Wall.Seconds()),
			fmt.Sprintf("%.2f", float64(res.Wall.Microseconds())/float64(res.HW.SyncEvents)))
	}
	t.Note("the gap is the socket round trip — the cost the virtual tick amortizes over Tsync cycles")
	return t, nil
}

// AblationMultiBoard scales the number of boards serving the router's
// verification load with a compute-heavy kernel — the multi-processor
// extension (paper refs [19],[20]). A single board saturates its granted
// quanta and loses packets; splitting the engines restores accuracy.
func AblationMultiBoard(opt Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation A5: boards serving verification (N=200, Tsync=2000, heavy kernel)",
		Header: []string{"boards", "accuracy", "fifo drops", "per-board packets"},
	}
	mkCfg := func() router.RunConfig {
		rc := opt.runConfig()
		rc.TB.PacketsPerPort = 50
		rc.TSync = 2000
		rc.AppCfg.Timing = router.TimingAnnotated
		rc.AppCfg.AnnotatedBase = 40000
		rc.AppCfg.AnnotatedPerWord = 16
		return rc
	}
	single, err := run(mkCfg())
	if err != nil {
		return nil, err
	}
	t.Append(1, fmt.Sprintf("%.3f", single.Accuracy), single.Router.DroppedFull,
		fmt.Sprint(single.App.Delivered))
	for _, boards := range []int{2, 4} {
		res, err := router.RunFederation(context.Background(), router.FederationConfig{Boards: boards},
			router.WithConfig(mkCfg()), router.WithTransport(router.TransportInProc))
		if err != nil {
			return nil, err
		}
		var per []string
		for _, a := range res.Apps {
			per = append(per, fmt.Sprint(a.Delivered))
		}
		t.Append(boards, fmt.Sprintf("%.3f", res.Accuracy), res.Router.DroppedFull,
			strings.Join(per, "/"))
		opt.log("A5: boards=%d acc=%.3f", boards, res.Accuracy)
	}
	t.Note("each board has its own DATA/INT/CLOCK link and device window; grants fan out")
	t.Note("to all boards before any acknowledgement is awaited (concurrent quanta)")
	return t, nil
}

// AblationSyncMode compares alternating and pipelined quantum scheduling.
func AblationSyncMode(opt Options) (*Table, error) {
	t := &Table{
		Title:  "Ablation A4: quantum scheduling (N=100, TCP)",
		Header: []string{"Tsync", "mode", "accuracy", "wall[s]"},
	}
	for _, ts := range []uint64{1000, 4000, 8000} {
		for _, mode := range []cosim.SyncMode{cosim.SyncAlternating, cosim.SyncPipelined} {
			rc := opt.runConfig()
			rc.TB.PacketsPerPort = 25
			rc.TSync = ts
			rc.Transport = router.TransportTCP
			rc.LinkDelay = opt.LinkDelay
			rc.Mode = mode
			res, err := run(rc)
			if err != nil {
				return nil, err
			}
			t.Append(ts, mode.String(), fmt.Sprintf("%.3f", res.Accuracy),
				fmt.Sprintf("%.3f", res.Wall.Seconds()))
		}
	}
	t.Note("pipelined overlaps board and simulator execution (the paper's concurrent quanta)")
	t.Note("at the cost of one extra quantum of board→HW latency, shifting the accuracy knee down")
	return t, nil
}
