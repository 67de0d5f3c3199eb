package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cosim"
	"repro/internal/farm"
	"repro/internal/router"
)

// options are the command-line settings of one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceDir string
	scale    float64
}

// report is the benchmark's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// warmupRuns are untimed runs per client before measuring, so caches,
// pools and the heap reach their steady state first.
const warmupRuns = 3

// Set-up timing (see setUps): untimed and timed set-ups per invocation,
// and calibration probes on either side of them.
const (
	setupWarmups = 5
	setupReps    = 31
	setupProbes  = 5
)

// env is one workload's state during an invocation.
type env struct {
	w    *workload
	ins  []input
	refs map[string]outcome // by input key
	farm *farm.Farm
}

// sample is one measured run.
type sample struct {
	start time.Time
	host  time.Duration // around the public entry point, or Submit→Result
	out   outcome
}

// phase is what one timed phase measured.
type phase struct {
	samples []sample
	fails   []error       // failed runs, apart from the samples
	elapsed time.Duration // wall time of the phase, less the probes
	probes  []probe       // in time order; empty when no calibrator ran
}

// runWorkload performs one invocation: set-ups, reference runs, warm-up,
// then the untraced timed phase (trace 0) or the layer pass (trace 1).
func runWorkload(ctx context.Context, o options) (report, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return report{}, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.clients))
	e := &env{w: w, ins: w.inputs(drawTBSeeds(o.seed), o.scale)}
	var cal *calibrator
	if o.trace == 0 {
		if cal, err = newCalibrator(); err != nil {
			return report{}, err
		}
		defer cal.close()
	}
	build, setups, err := e.setUps(cal)
	if err != nil {
		return report{}, err
	}
	if err := e.references(ctx); err != nil {
		return report{}, err
	}
	failed := 0
	if o.seed == 1 && o.scale == 1 {
		failed += e.checkGolden()
	}
	if w.clients > 1 {
		f, err := farm.New(farm.WithWorkers(w.clients), farm.WithQueueDepth(w.clients))
		if err != nil {
			return report{}, err
		}
		defer f.Close()
		e.farm = f
	}

	warm, err := e.timed(ctx, 0, warmupRuns*w.clients, nil)
	if err == nil && len(warm.fails) > 0 {
		err = warm.fails[0]
	}
	if err != nil {
		return report{}, fmt.Errorf("%s: warm-up run: %w", w.name, err)
	}
	runtime.GC()

	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 0 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ph, err := e.timed(ctx, budget, 1, cal)
		runtime.ReadMemStats(&after)
		if err != nil {
			return report{}, err
		}
		logFailures(w.name, ph.fails)
		ms := e.endToEnd(ph, after.TotalAlloc-before.TotalAlloc, setups)
		fmt.Fprintf(os.Stderr, "bench: %s: median host factor %.4f over %d probes\n", w.name, medianFactor(ph.probes), len(ph.probes))
		return finish(ph.samples, ph.fails, failed, ms), nil
	}

	if w.traced {
		budget /= 2
	}
	ph, err := e.timed(ctx, budget, 1, nil)
	if err != nil {
		return report{}, err
	}
	samples, fails := ph.samples, ph.fails
	logFailures(w.name, fails)
	ms := e.layers(samples, build)
	if w.traced {
		tr := newTracer(spanHint(warm.samples, len(e.ins)))
		traced, tfails, err := e.tracedPass(ctx, tr, ms, samples)
		if err != nil {
			return report{}, err
		}
		logFailures(w.name+" (traced)", tfails)
		samples = append(samples, traced...)
		fails = append(fails, tfails...)
		dir := o.traceDir
		if dir == "" {
			dir = ".bench_build/trace"
		}
		path, err := tr.writeSpans(dir, w.name)
		if err != nil {
			return report{}, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "bench: %s: spans written to %s\n", w.name, path)
	}
	return finish(samples, fails, failed, ms), nil
}

func finish(samples []sample, fails []error, failed int, ms *metricSet) report {
	failed += len(fails)
	return report{
		Correct:   failed == 0,
		Attempted: len(samples) + len(fails),
		Failed:    failed,
		Metrics:   ms.out(),
	}
}

func logFailures(name string, fails []error) {
	for _, err := range fails {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
	}
}

// references runs every distinct input once in its plain, in-process
// form. Measured runs must reproduce these fingerprints exactly.
func (e *env) references(ctx context.Context) error {
	e.refs = make(map[string]outcome)
	for _, in := range e.ins {
		if _, ok := e.refs[in.key]; ok {
			continue
		}
		var out outcome
		var err error
		if in.fed != nil {
			fc := *in.fed
			fc.InProcBoards = true
			out, err = federationOutcome(router.RunFederation(ctx, fc, router.WithConfig(plain(in.rc))))
		} else {
			out.res, err = router.Run(ctx, router.Transports{}, router.WithConfig(plain(in.rc)))
		}
		if err == nil {
			err = out.res.Conservation
		}
		if err != nil {
			return fmt.Errorf("%s: reference run %s: %w", e.w.name, in.key, err)
		}
		e.refs[in.key] = out
	}
	return nil
}

func federationOutcome(fr router.FederationResult, err error) (outcome, error) {
	return outcome{
		res:       fr.RunResult,
		pulseSent: fr.PulseSent,
		pulseSeen: fr.PulseSeen,
		quanta:    fr.Fed.Quanta,
		elided:    fr.Fed.Elided,
	}, err
}

// execute performs one measured run of in; tr is nil for untraced runs.
func (e *env) execute(ctx context.Context, in input, tr *tracer) (outcome, error) {
	switch {
	case in.spec != nil:
		s, err := e.farm.Submit(ctx, *in.spec)
		if err != nil {
			return outcome{}, err
		}
		res, err := s.Result()
		return outcome{res: res}, err
	case in.fed != nil:
		return federationOutcome(router.RunFederation(ctx, *in.fed, router.WithConfig(in.rc)))
	case tr != nil:
		return runTraced(ctx, in.rc, tr)
	default:
		res, err := router.Run(ctx, router.Transports{}, router.WithConfig(in.rc))
		return outcome{res: res}, err
	}
}

// check reports why a run does not count as correct, or nil.
func (e *env) check(in input, out outcome, err error) error {
	if err != nil {
		return fmt.Errorf("run %s: %w", in.key, err)
	}
	if out.res.Conservation != nil {
		return fmt.Errorf("run %s: %w", in.key, out.res.Conservation)
	}
	if got, want := out.digest(), e.refs[in.key].digest(); got != want {
		return fmt.Errorf("run %s: fingerprint %s differs from the reference's %s", in.key, got, want)
	}
	if out.res.TransportKind != in.rc.Transport {
		return fmt.Errorf("run %s: result reports transport %v, the run used %v", in.key, out.res.TransportKind, in.rc.Transport)
	}
	return nil
}

// timed runs inputs on the workload's closed-loop clients until d has
// passed and at least minRuns runs started. A non-nil cal runs the
// calibration kernel before the first run, every probeEvery between runs,
// and after the last; runs hold gate shared and probes hold it alone, so
// the two never overlap.
func (e *env) timed(ctx context.Context, d time.Duration, minRuns int, cal *calibrator) (phase, error) {
	var ph phase
	var next atomic.Int64
	var mu sync.Mutex
	var gate sync.RWMutex
	var probeErr error
	var probeNS float64 // kernel time inside the phase, taken off elapsed
	calibrate := func() bool {
		p, err := cal.run()
		if err != nil {
			probeErr = err
			return false
		}
		ph.probes = append(ph.probes, p)
		return true
	}
	stop, probed := make(chan struct{}), make(chan struct{})
	if cal != nil {
		if !calibrate() {
			return ph, probeErr
		}
		go func() {
			defer close(probed)
			tick := time.NewTicker(probeEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
				gate.Lock()
				ok := calibrate()
				if ok {
					probeNS += ph.probes[len(ph.probes)-1].ns
				}
				gate.Unlock()
				if !ok {
					return
				}
			}
		}()
	} else {
		close(probed)
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < e.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= minRuns && !time.Now().Before(deadline) {
					return
				}
				in := e.ins[i%len(e.ins)]
				gate.RLock()
				t0 := time.Now()
				out, err := e.execute(ctx, in, nil)
				host := time.Since(t0)
				gate.RUnlock()
				err = e.check(in, out, err)
				mu.Lock()
				if err != nil {
					ph.fails = append(ph.fails, err)
				} else {
					ph.samples = append(ph.samples, sample{start: t0, host: host, out: out})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-probed
	ph.elapsed = time.Since(start) - time.Duration(probeNS)
	if cal != nil && probeErr == nil {
		calibrate()
	}
	return ph, probeErr
}

// runTraced builds the link itself — base pair, timing layer, the
// configured decorator stack, a second timing layer — and hands the top
// to router.Run with the config's stack fields cleared, so the program
// runs exactly the stack it would have built.
func runTraced(ctx context.Context, rc router.RunConfig, tr *tracer) (outcome, error) {
	hwBase, boardBase, err := basePair(rc.Transport)
	if err != nil {
		return outcome{}, err
	}
	stack := cosim.StackConfig{Delay: rc.LinkDelay, Chaos: rc.Chaos, Session: rc.Resilience, Batch: rc.Batch}
	hwT, hwClose := cosim.BuildStack(tr.wrap(hwBase, sideHW, levelBase), stack)
	boardT, boardClose := cosim.BuildStack(tr.wrap(boardBase, sideBoard, levelBase), stack.Peer())
	defer hwClose()
	defer boardClose()
	rc.LinkDelay, rc.Chaos, rc.Resilience, rc.Batch = 0, nil, nil, false
	res, err := router.Run(ctx, router.Transports{
		HW:    tr.wrap(hwT, sideHW, levelTop),
		Board: tr.wrap(boardT, sideBoard, levelTop),
	}, router.WithConfig(rc))
	return outcome{res: res}, err
}

// basePair opens the two ends of a link the way router.Run's self-dial
// does.
func basePair(kind router.TransportKind) (hw, board cosim.Transport, err error) {
	switch kind {
	case router.TransportInProc:
		hw, board = cosim.NewInProcPair(4096)
		return hw, board, nil
	case router.TransportTCP:
		ln, err := cosim.ListenTCP("127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		defer ln.Close()
		type accepted struct {
			tr  cosim.Transport
			err error
		}
		acc := make(chan accepted, 1)
		go func() {
			tr, err := ln.Accept()
			acc <- accepted{tr, err}
		}()
		board, err = cosim.DialTCP(ln.Addr())
		if err != nil {
			ln.Close()
			if a := <-acc; a.tr != nil {
				a.tr.Close()
			}
			return nil, nil, err
		}
		a := <-acc
		if a.err != nil {
			board.Close()
			return nil, nil, a.err
		}
		return a.tr, board, nil
	default:
		return nil, nil, fmt.Errorf("traced runs support inproc and tcp links, not %v", kind)
	}
}
