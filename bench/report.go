package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/cosim"
	"repro/internal/router"
)

// endToEnd computes the user-visible metrics of the untraced timed phase
// and of the set-ups timed before it. Each run's host time is divided by
// its host factor (see probe.go). runs_per_s is multiplied by the phase's
// mean factor, weighted by run time: raw over corrected total run time.
func (e *env) endToEnd(ph phase, allocBytes uint64, setups []float64) *metricSet {
	ms := newMetricSet(endToEnd)
	var cycles, rawS, hostS float64
	hosts := make([]float64, 0, len(ph.samples))
	for _, s := range ph.samples {
		f := hostFactor(ph.probes, s.start)
		cycles += float64(s.out.res.SimCycles)
		rawS += s.host.Seconds()
		hostS += s.host.Seconds() / f
		hosts = append(hosts, s.host.Seconds()/f)
	}
	ms.set("sim_mcycles_per_s", cycles/1e6/hostS)
	ms.set("runs_per_s", float64(len(ph.samples))/ph.elapsed.Seconds()*rawS/hostS)
	ms.set("run_s_p50", quantile(hosts, 0.5))
	ms.set("run_s_p90", quantile(hosts, 0.9))
	ms.set("setup_s", quantile(setups, 0.5))
	ms.set("accuracy_pct", e.accuracyPct())
	ms.set("alloc_kb_per_mcycle", float64(allocBytes)/1024/(cycles/1e6))
	ms.set("max_rss_mb", peakRSSMiB())
	return ms
}

// accuracyPct is forwarded over generated packets across the reference
// runs: one per distinct input, so it does not depend on how many runs
// fit in the time budget.
func (e *env) accuracyPct() float64 {
	var fwd, gen float64
	for _, r := range e.refs {
		fwd += float64(r.res.Router.Forwarded)
		gen += float64(r.res.Generated)
	}
	return 100 * fwd / gen
}

// layers computes the per-layer metrics that come from run results, the
// farm and the set-ups' build times, which every workload has.
func (e *env) layers(samples []sample, build []float64) *metricSet {
	ms := newMetricSet(perLayer)
	ms.set("router.build_ms", 1e3*quantile(build, 0.5))

	n := float64(len(samples))
	var syncs, elided, grants, flushes, retrans, quanta, fedElided, lost float64
	var wallNS float64
	hosts := make([]float64, 0, len(samples))
	overheads := make([]float64, 0, len(samples))
	for _, s := range samples {
		r := s.out.res
		syncs += float64(r.HW.SyncEvents)
		elided += float64(r.HW.SyncsElided)
		grants += float64(r.Board.Grants)
		flushes += float64(r.Batch.Flushes)
		retrans += float64(r.Link.Link.Retransmits)
		quanta += float64(s.out.quanta)
		fedElided += float64(s.out.elided)
		wallNS += float64(r.Wall)
		for i := range s.out.pulseSent {
			lost += float64(s.out.pulseSent[i] - s.out.pulseSeen[i])
		}
		hosts = append(hosts, s.host.Seconds())
		overheads = append(overheads, (s.host - r.Wall).Seconds())
	}
	ms.set("sync.rendezvous", syncs/n)
	ms.set("sync.elided", elided/n)
	ms.set("sync.elided_ratio", elided/(syncs+elided))
	ms.set("board.grants", grants/n)
	ms.set("stack.batch_flushes", flushes/n)
	ms.set("stack.retransmits", retrans/n)
	if quanta > 0 {
		ms.set("federation.boundaries", quanta/n)
		ms.set("federation.elided", fedElided/n)
		ms.set("federation.us_per_boundary", wallNS/1e3/quanta)
		ms.set("federation.pulse_lost", lost)
	}
	if e.farm != nil {
		ms.set("farm.latency_s_p50", quantile(hosts, 0.5))
		ms.set("farm.latency_s_p90", quantile(hosts, 0.9))
		ms.set("farm.overhead_s_p50", quantile(overheads, 0.5))
		snap := e.farm.Snapshot()
		ms.set("farm.failed", float64(snap.Failed))
		ms.set("farm.rejected", float64(snap.Rejected))
	}
	return ms
}

// setUps times setupReps set-ups of the first input, as a run does them
// before its first cycle: build the testbench and board side(s), then
// open the link(s), stack the configured decorators on both ends and
// close them again. build holds the first part, total the whole, in
// seconds.
//
// It runs first in an invocation, while the heap is small, after
// setupWarmups untimed set-ups, and on one Go processor: one set-up has
// nothing to run in parallel. Automatic garbage collection is off and a
// full collection precedes each set-up. So no collection falls into a
// set-up, and the runtime returns no memory to the OS between set-ups,
// which would make the next one fault its pages in again. A non-nil cal
// runs the calibration kernel setupProbes times before the set-ups and as
// often after them, and every time is divided by the median factor of
// those probes. The kernel does not run between set-ups, because a
// set-up right after it took up to twice as long.
func (e *env) setUps(cal *calibrator) (build, total []float64, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	in := e.ins[0]
	rc := in.rc
	boards := 1
	if in.fed != nil {
		boards = in.fed.Boards
		rc.TB.Engines = boards
	}
	stack := cosim.StackConfig{Delay: rc.LinkDelay, Chaos: rc.Chaos, Session: rc.Resilience, Batch: rc.Batch}
	var probes []probe
	calibrate := func() error {
		for i := 0; cal != nil && i < setupProbes; i++ {
			p, err := cal.run()
			if err != nil {
				return err
			}
			probes = append(probes, p)
		}
		return nil
	}
	if err := calibrate(); err != nil {
		return nil, nil, err
	}
	for i := 0; i < setupWarmups+setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		router.BuildTestbench(rc.TB)
		for b := 0; b < boards; b++ {
			acfg := rc.AppCfg
			acfg.Engine = b
			if _, err := router.BuildBoardSide(rc.BoardCfg, acfg); err != nil {
				return nil, nil, fmt.Errorf("building board side: %w", err)
			}
		}
		t1 := time.Now()
		for b := 0; b < boards; b++ {
			hw, board, err := basePair(rc.Transport)
			if err != nil {
				return nil, nil, fmt.Errorf("opening link: %w", err)
			}
			_, hwClose := cosim.BuildStack(hw, stack)
			_, boardClose := cosim.BuildStack(board, stack.Peer())
			hwClose()
			boardClose()
		}
		if i >= setupWarmups {
			build = append(build, t1.Sub(t0).Seconds())
			total = append(total, time.Since(t0).Seconds())
		}
	}
	if err := calibrate(); err != nil {
		return nil, nil, err
	}
	f := medianFactor(probes)
	for i := range total {
		build[i] /= f
		total[i] /= f
	}
	return build, total, nil
}

// spanHint estimates the spans one wrapper records over the traced pass
// from the warm-up runs: a grant and an ack per rendezvous plus the data
// and interrupt traffic, doubled for session acknowledgements.
func spanHint(warm []sample, runs int) int {
	var per uint64
	for _, s := range warm {
		hw := s.out.res.HW
		per = max(per, 2*hw.SyncEvents+hw.DataIn+hw.DataOut+hw.Interrupts+8)
	}
	return int(2*per) * runs
}

// tracedPass runs every input through the timed link, splits each run by
// layer and adds the span-derived metrics to ms. untraced are the layer
// pass's untraced samples, the base of trace.overhead_pct.
func (e *env) tracedPass(ctx context.Context, tr *tracer, ms *metricSet, untraced []sample) ([]sample, []error, error) {
	var samples []sample
	var fails []error
	var acc runLayers
	var cycles float64
	serializes := false
	// One traced run per input; the spans of all of them stay in memory.
	for i, in := range e.ins {
		r := int32(i)
		tr.run.Store(r)
		tr.keepFrames.Store(i == 0)
		t0 := time.Now()
		out, err := e.execute(ctx, in, tr)
		host := time.Since(t0)
		if err := e.check(in, out, err); err != nil {
			fails = append(fails, err)
			continue
		}
		samples = append(samples, sample{host: host, out: out})
		analyzeRun(&acc, tr.spansOf(sideHW, levelTop, r), tr.spansOf(sideBoard, levelTop, r),
			tr.spansOf(sideHW, levelBase, r), tr.spansOf(sideBoard, levelBase, r), out.res.Wall)
		cycles += float64(out.res.SimCycles)
		serializes = out.res.TransportKind != router.TransportInProc
	}
	if len(samples) == 0 {
		return samples, fails, nil
	}
	n := float64(len(samples))
	baseFrames := float64(len(acc.baseSends))
	var waitNS float64
	for _, w := range acc.waits {
		waitNS += float64(w)
	}
	ms.set("hdlsim.self_s", float64(acc.hdlSelf)/1e9/n)
	ms.set("hdlsim.ns_per_cycle", float64(acc.hdlSelf)/cycles)
	ms.set("hdlsim.share", float64(acc.hdlSelf)/float64(acc.wall))
	ms.set("board.self_s", float64(acc.boardSelf)/1e9/n)
	ms.set("board.ns_per_grant", float64(acc.boardSelf)/float64(acc.grants))
	ms.set("board.share", float64(acc.boardSelf)/float64(acc.wall))
	ms.set("sync.wait_s", waitNS/1e9/n)
	ms.set("sync.wait_us_p50", quantile(nsToUS(acc.waits), 0.5))
	ms.set("sync.wait_us_p99", quantile(nsToUS(acc.waits), 0.99))
	ms.set("link.rtt_us_p50", quantile(nsToUS(acc.rtts), 0.5))
	ms.set("link.rtt_us_p99", quantile(nsToUS(acc.rtts), 0.99))
	ms.set("stack.msgs", float64(acc.topMsgs)/n)
	ms.set("stack.frames_per_msg", baseFrames/float64(acc.topMsgs))
	ms.set("stack.top_s", float64(acc.topSend)/1e9/n)
	ms.set("transport.frames", baseFrames/n)
	ms.set("transport.send_s", float64(acc.baseSend)/1e9/n)
	ms.set("transport.send_us_p50", quantile(nsToUS(acc.baseSends), 0.5))
	ms.set("transport.send_us_p99", quantile(nsToUS(acc.baseSends), 0.99))

	encNS, decNS, err := codecCost(tr.frames())
	if err != nil {
		return nil, nil, err
	}
	ms.set("codec.frames", baseFrames/n)
	ms.set("codec.bytes_per_frame", float64(acc.baseBytes)/baseFrames)
	ms.set("codec.encode_ns", encNS)
	ms.set("codec.decode_ns", decNS)
	if serializes {
		// Every frame is encoded by its sender and decoded by its receiver;
		// an in-process link hands messages over without the codec.
		ms.set("codec.share", baseFrames*(encNS+decNS)/float64(acc.wall))
	}

	ms.set("trace.overhead_pct", 100*(medianHost(samples)/medianHost(untraced)-1))
	return samples, fails, nil
}

func nsToUS(xs []int64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) / 1e3
	}
	return out
}

func medianHost(samples []sample) float64 {
	xs := make([]float64, len(samples))
	for i, s := range samples {
		xs[i] = s.host.Seconds()
	}
	return quantile(xs, 0.5)
}
