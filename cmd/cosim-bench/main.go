// Command cosim-bench runs miniature versions of the paper's evaluation
// benchmarks (Figures 5–7, plus a chaos/resilience point), preceded by
// the Kernel/ family of compute-floor micro-benchmarks (RTOS quantum and
// interrupt dispatch, HDL clock cycles, the timed event queue), and emits
// a stable machine-readable BENCH_cosim.json:
//
//	cosim-bench -runs 3 -out BENCH_cosim.json
//
// Each benchmark executes one scaled-down co-simulation several times
// and keeps the fastest run (the minimum is the least noisy wall-clock
// estimator), reporting ns/op plus derived rates: CLOCK rendezvous per
// wall-clock second, wire bytes per quantum, accuracy, and session
// retransmits. The JSON is the artifact the CI regression gate
// (cmd/cosim-benchcmp) compares against a committed baseline, so the
// repository records a perf trajectory instead of an empty one.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/cosim"
	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/fleet"
	"repro/internal/router"
)

// Result is one benchmark's measurement. Fields are flat and stable:
// cosim-benchcmp and future tooling key on Name and read NsPerOp.
type Result struct {
	Name             string  `json:"name"`
	Runs             int     `json:"runs"`
	NsPerOp          int64   `json:"ns_per_op"`
	SyncsPerSec      float64 `json:"syncs_per_sec,omitempty"`
	BytesPerQuantum  float64 `json:"bytes_per_quantum,omitempty"`
	FramesPerQuantum float64 `json:"frames_per_quantum,omitempty"`
	AllocsPerQuantum float64 `json:"allocs_per_quantum,omitempty"`
	AccuracyPct      float64 `json:"accuracy_pct,omitempty"`
	Retransmits      uint64  `json:"retransmits,omitempty"`
	SessionsPerSec   float64 `json:"sessions_per_sec,omitempty"`
}

// File is the BENCH_cosim.json schema.
type File struct {
	Schema     int      `json:"schema"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	Benchmarks []Result `json:"benchmarks"`
}

// bench is one named configuration to measure.
type bench struct {
	name string
	run  func() (router.RunResult, error)
}

// cosimBench builds a co-simulation benchmark from config overrides.
func cosimBench(name string, n int, tsync uint64, mutate func(*router.RunConfig)) bench {
	return bench{name: name, run: func() (router.RunResult, error) {
		rc := router.DefaultRunConfig()
		rc.TB.PacketsPerPort = n / rc.TB.Ports
		rc.TSync = tsync
		if mutate != nil {
			mutate(&rc)
		}
		res, err := router.Run(context.Background(), router.Transports{}, router.WithConfig(rc))
		if err != nil {
			return res, err
		}
		if res.Conservation != nil {
			return res, res.Conservation
		}
		return res, nil
	}}
}

// benches assembles the suite: the miniature Fig.5/6/7 axes mirrored
// from the root bench_test.go, plus one chaos/resilience point so the
// retransmit trajectory is recorded too.
func benches() []bench {
	var out []bench
	// Fig.5 regime: sparse workload over TCP, sync cost dominates.
	for _, n := range []int{20, 40, 80} {
		for _, ts := range []uint64{1000, 10000} {
			out = append(out, cosimBench(
				fmt.Sprintf("Fig5/N=%d/Tsync=%d", n, ts), n, ts,
				func(rc *router.RunConfig) {
					rc.Transport = router.TransportTCP
					rc.TB.Period = 10000
				}))
		}
	}
	// Fig.6 axis: overhead decay with T_sync over TCP, plus the
	// unsynchronized loopback baseline.
	for _, ts := range []uint64{1, 10, 100, 1000, 10000} {
		out = append(out, cosimBench(
			fmt.Sprintf("Fig6/Tsync=%d", ts), 40, ts,
			func(rc *router.RunConfig) { rc.Transport = router.TransportTCP }))
	}
	out = append(out, bench{name: "Fig6/baseline=unsync", run: func() (router.RunResult, error) {
		tbc := router.DefaultTBConfig()
		tbc.PacketsPerPort = 40 / tbc.Ports
		return router.RunLoopback(tbc)
	}})
	// Fig.7 axis: accuracy across the knee, deterministic in-process.
	for _, ts := range []uint64{1000, 4000, 6000, 10000, 20000} {
		out = append(out, cosimBench(fmt.Sprintf("Fig7/Tsync=%d", ts), 100, ts, nil))
	}
	// Adaptive regime: the Fig.5 miniature at the pathological TSync=1 —
	// a rendezvous every cycle — paired with the same workload under
	// lookahead elongation + frame batching. The pair is the tentpole's
	// tracked speedup; both report boundaries/sec, so the adaptive run's
	// elided rendezvous count toward its rate.
	for _, pt := range []struct {
		name     string
		adaptive bool
	}{{"plain", false}, {"adaptive", true}} {
		adaptive := pt.adaptive
		out = append(out, cosimBench(
			fmt.Sprintf("Adaptive/Fig5/Tsync=1/%s", pt.name), 20, 1,
			func(rc *router.RunConfig) {
				rc.Transport = router.TransportTCP
				rc.TB.Period = 10000
				rc.Adaptive = adaptive
				rc.Batch = adaptive
			}))
	}
	// Transport family: the Fig.5 miniature at the pathological TSync=1 —
	// a rendezvous every cycle, so per-frame transport cost dominates wall
	// clock — across the three host-link transports. This is the tcp/uds/shm
	// triple the zero-copy work is judged by (cosim-benchcmp asserts shm's
	// speedup over tcp); shm is emitted only where the platform supports it.
	for _, tk := range []router.TransportKind{router.TransportTCP, router.TransportUDS, router.TransportShm} {
		if tk == router.TransportShm && !cosim.ShmSupported() {
			continue
		}
		kind := tk
		out = append(out, cosimBench(
			fmt.Sprintf("Transport/Fig5/N=20/%s", kind), 20, 1,
			func(rc *router.RunConfig) {
				rc.Transport = kind
				rc.TB.Period = 10000
			}))
	}
	// Federation family: the same miniature workload driven by the
	// hierarchical time manager instead of the pairwise driver loop.
	// K=2 measures the manager's overhead on a topology the pairwise
	// engine could also run (it must stay bit-identical, so the delta is
	// pure scheduling cost); Boards=2 and Pulse=2 track the genuinely
	// N-party schedules the old loop could not express.
	out = append(out, cosimBench("Federation/K=2", 200, 1000, func(rc *router.RunConfig) {
		rc.Federation = &router.FederationConfig{Boards: 1}
	}))
	out = append(out, cosimBench("Federation/Boards=2", 200, 1000, func(rc *router.RunConfig) {
		rc.Federation = &router.FederationConfig{Boards: 2}
	}))
	out = append(out, cosimBench("Federation/Pulse=2", 200, 1000, func(rc *router.RunConfig) {
		rc.Federation = &router.FederationConfig{Boards: 1, PulseDevices: 2}
	}))
	// Chaos point: a faulty link healed by the session layer; the
	// retransmit count is the tracked quantity.
	out = append(out, cosimBench("Chaos/session", 40, 1000, func(rc *router.RunConfig) {
		sc := cosim.UniformScenario(42, cosim.FaultProfile{Drop: 0.02, Duplicate: 0.02, Corrupt: 0.02})
		rc.Chaos = &sc
		sess := cosim.DefaultSessionConfig()
		sess.RetransmitTimeout = 20 * time.Millisecond
		rc.Resilience = &sess
	}))
	return out
}

// measureFarm runs the multi-session farm load several times and keeps
// the fastest aggregate (same estimator as the solo benches).
func measureFarm(runs int) (Result, error) {
	const sessions, workers = 8, 4
	r := Result{Name: fmt.Sprintf("Farm/N=%d", sessions), Runs: runs}
	var best experiments.FarmLoadResult
	var bestAllocs uint64
	for i := 0; i < runs; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		load, err := experiments.RunFarmLoad(experiments.Options{}, sessions, workers)
		runtime.ReadMemStats(&after)
		if err != nil {
			return r, err
		}
		if i == 0 || load.Wall < best.Wall {
			best = load
			bestAllocs = after.Mallocs - before.Mallocs
		}
	}
	r.NsPerOp = best.Wall.Nanoseconds()
	r.SessionsPerSec = best.SessionsPerSec
	r.Retransmits = best.Retransmits
	if best.SyncEvents > 0 {
		r.AllocsPerQuantum = float64(bestAllocs) / float64(best.SyncEvents)
	}
	return r, nil
}

// runFleetLoad drives sessions through a coordinator placing across
// in-process fleet hosts (real control TCP, real farms) and returns the
// aggregate wall time.
func runFleetLoad(hosts, workers, sessions int) (time.Duration, error) {
	c := fleet.NewCoordinator(fleet.Config{})
	defer c.Close()
	for i := 0; i < hosts; i++ {
		f, err := farm.New(farm.WithWorkers(workers), farm.WithQueueDepth(sessions))
		if err != nil {
			return 0, err
		}
		defer f.Close()
		h, err := fleet.ListenHost(f, fleet.HostOptions{Name: fmt.Sprintf("bench-host-%d", i)})
		if err != nil {
			return 0, err
		}
		defer h.Close()
		if _, err := c.Enroll(h.Addr()); err != nil {
			return 0, err
		}
	}

	errs := make(chan error, sessions)
	start := time.Now()
	for i := 0; i < sessions; i++ {
		go func(i int) {
			_, err := c.Submit(context.Background(), experiments.FarmSessionSpec(experiments.Options{}, i, i%2 == 1))
			errs <- err
		}(i)
	}
	for i := 0; i < sessions; i++ {
		if err := <-errs; err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// measureFleet runs the distributed-placement load several times and
// keeps the fastest aggregate.
func measureFleet(runs int) (Result, error) {
	const hosts, workers, sessions = 2, 2, 8
	r := Result{Name: fmt.Sprintf("Fleet/Hosts=%d/N=%d", hosts, sessions), Runs: runs}
	var best time.Duration
	for i := 0; i < runs; i++ {
		wall, err := runFleetLoad(hosts, workers, sessions)
		if err != nil {
			return r, err
		}
		if best == 0 || wall < best {
			best = wall
		}
	}
	r.NsPerOp = best.Nanoseconds()
	r.SessionsPerSec = float64(sessions) / best.Seconds()
	return r, nil
}

func main() {
	out := flag.String("out", "BENCH_cosim.json", "output file (- for stdout)")
	runs := flag.Int("runs", 3, "measured runs per benchmark (fastest kept)")
	verbose := flag.Bool("v", false, "print per-benchmark progress on stderr")
	filter := flag.String("filter", "", "only run benchmarks whose name contains this substring")
	flag.Parse()
	if *runs < 1 {
		*runs = 1
	}

	file := File{Schema: 1, GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	// Kernel family first, on a heap the co-simulation runs have not grown.
	for _, kb := range kernelBenches() {
		if *filter != "" && !strings.Contains(kb.name, *filter) {
			continue
		}
		r, err := measureKernel(kb, *runs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosim-bench: %s: %v\n", kb.name, err)
			os.Exit(1)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "cosim-bench: %-24s %12d ns/op\n", r.Name, r.NsPerOp)
		}
		file.Benchmarks = append(file.Benchmarks, r)
	}
	for _, b := range benches() {
		if *filter != "" && !strings.Contains(b.name, *filter) {
			continue
		}
		var best router.RunResult
		var bestWall time.Duration
		var bestAllocs uint64
		for i := 0; i < *runs; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			res, err := b.run()
			wall := time.Since(start)
			runtime.ReadMemStats(&after)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cosim-bench: %s: %v\n", b.name, err)
				os.Exit(1)
			}
			if bestWall == 0 || wall < bestWall {
				best, bestWall = res, wall
				bestAllocs = after.Mallocs - before.Mallocs
			}
		}
		r := Result{
			Name:        b.name,
			Runs:        *runs,
			NsPerOp:     bestWall.Nanoseconds(),
			AccuracyPct: 100 * best.Accuracy,
			Retransmits: best.Link.Link.Retransmits,
		}
		// Rates are per quantum boundary: with adaptive elongation the
		// elided rendezvous still advance virtual time, so they count —
		// SyncsPerSec is boundaries simulated per wall-clock second.
		if quanta := best.HW.SyncEvents + best.HW.SyncsElided; quanta > 0 {
			r.SyncsPerSec = float64(quanta) / bestWall.Seconds()
			r.BytesPerQuantum = float64(best.Link.BytesSent) / float64(quanta)
			r.AllocsPerQuantum = float64(bestAllocs) / float64(quanta)
			// HW-side wire frames: the batch layer's counters when one is
			// stacked, otherwise one frame per protocol message.
			frames := best.Batch.Flushes + best.Batch.Bypassed
			if frames == 0 {
				frames = best.Link.DataSent + best.Link.IntSent + best.Link.SyncEvents
			}
			r.FramesPerQuantum = float64(frames) / float64(quanta)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "cosim-bench: %-24s %12d ns/op  %8.1f syncs/s  acc=%.1f%%\n",
				r.Name, r.NsPerOp, r.SyncsPerSec, r.AccuracyPct)
		}
		file.Benchmarks = append(file.Benchmarks, r)
	}

	// Farm point: 8 concurrent TCP sessions (chaos+resilience on half) on
	// 4 workers; sessions/sec is the tracked throughput.
	if *filter == "" || strings.Contains("Farm/N=8", *filter) {
		fr, err := measureFarm(*runs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosim-bench: %s: %v\n", fr.Name, err)
			os.Exit(1)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "cosim-bench: %-24s %12d ns/op  %8.1f sessions/s\n",
				fr.Name, fr.NsPerOp, fr.SessionsPerSec)
		}
		file.Benchmarks = append(file.Benchmarks, fr)
	}

	// Fleet point: the same session shape placed across 2 in-process
	// hosts by the coordinator; sessions/sec tracks control-plane
	// overhead on top of the farm number above.
	if *filter == "" || strings.Contains("Fleet/Hosts=2/N=8", *filter) {
		fr, err := measureFleet(*runs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cosim-bench: %s: %v\n", fr.Name, err)
			os.Exit(1)
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "cosim-bench: %-24s %12d ns/op  %8.1f sessions/s\n",
				fr.Name, fr.NsPerOp, fr.SessionsPerSec)
		}
		file.Benchmarks = append(file.Benchmarks, fr)
	}

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "cosim-bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "cosim-bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("cosim-bench: wrote %d benchmarks to %s\n", len(file.Benchmarks), *out)
}
