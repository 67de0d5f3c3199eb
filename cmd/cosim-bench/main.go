// Command cosim-bench measures what the repository benchmark (bench/)
// cannot express: the Kernel/ family of compute-floor micro-benchmarks
// (RTOS quantum and interrupt dispatch, HDL clock cycles, the timed event
// queue, the wire codec, the ISS), allocations per quantum on each
// host-link transport together with shm's speedup floor over tcp, and the
// multi-host fleet. It writes a stable machine-readable BENCH_cosim.json
// and, given -baseline, gates the fresh results in the same process:
//
//	cosim-bench -runs 3 -out BENCH_cosim.json -baseline BENCH_baseline.json
//
// Each benchmark executes several times and keeps the fastest run (the
// minimum is the least noisy wall-clock estimator). See gate for what
// fails the gate.
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
// the gate and future tooling key on Name and read NsPerOp.
type Result struct {
	Name             string  `json:"name"`
	Runs             int     `json:"runs"`
	NsPerOp          int64   `json:"ns_per_op"`
	SyncsPerSec      float64 `json:"syncs_per_sec,omitempty"`
	BytesPerQuantum  float64 `json:"bytes_per_quantum,omitempty"`
	FramesPerQuantum float64 `json:"frames_per_quantum,omitempty"`
	AllocsPerQuantum float64 `json:"allocs_per_quantum,omitempty"`
	AccuracyPct      float64 `json:"accuracy_pct,omitempty"`
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

// transportName names the Transport/ entry for one host-link transport.
func transportName(kind router.TransportKind) string {
	return "Transport/Fig5/N=20/" + kind.String()
}

// measureTransport runs the Fig.5 miniature at the pathological TSync=1 —
// a rendezvous every cycle, so per-frame transport cost dominates wall
// clock — over one host-link transport, and keeps the fastest run.
func measureTransport(kind router.TransportKind, runs int) (Result, error) {
	r := Result{Name: transportName(kind), Runs: runs}
	var best router.RunResult
	var bestWall time.Duration
	var bestAllocs uint64
	for i := 0; i < runs; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		rc := router.DefaultRunConfig()
		rc.TB.PacketsPerPort = 20 / rc.TB.Ports
		rc.TB.Period = 10000
		rc.TSync = 1
		rc.Transport = kind
		res, err := router.Run(context.Background(), router.Transports{}, router.WithConfig(rc))
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		if err == nil {
			err = res.Conservation
		}
		if err != nil {
			return r, err
		}
		if bestWall == 0 || wall < bestWall {
			best, bestWall = res, wall
			bestAllocs = after.Mallocs - before.Mallocs
		}
	}
	r.NsPerOp = bestWall.Nanoseconds()
	r.AccuracyPct = 100 * best.Accuracy
	if quanta := best.HW.SyncEvents; quanta > 0 {
		r.SyncsPerSec = float64(quanta) / bestWall.Seconds()
		r.BytesPerQuantum = float64(best.Link.BytesSent) / float64(quanta)
		r.AllocsPerQuantum = float64(bestAllocs) / float64(quanta)
		// HW-side wire frames: one per protocol message (no batch layer).
		frames := best.Link.DataSent + best.Link.IntSent + best.Link.SyncEvents
		r.FramesPerQuantum = float64(frames) / float64(quanta)
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

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "cosim-bench: %v\n", err)
	os.Exit(1)
}

func main() {
	out := flag.String("out", "BENCH_cosim.json", "output file (- for stdout)")
	runs := flag.Int("runs", 3, "measured runs per benchmark (fastest kept)")
	verbose := flag.Bool("v", false, "print per-benchmark progress on stderr")
	filter := flag.String("filter", "", "only run benchmarks whose name contains this substring")
	baseline := flag.String("baseline", "", "gate the fresh results against this committed baseline file")
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
			fatal(fmt.Errorf("%s: %w", kb.name, err))
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "cosim-bench: %-36s %12d ns/op\n", r.Name, r.NsPerOp)
		}
		file.Benchmarks = append(file.Benchmarks, r)
	}
	// Transport family: shm is emitted only where the platform supports it.
	for _, kind := range []router.TransportKind{router.TransportTCP, router.TransportUDS, router.TransportShm} {
		if kind == router.TransportShm && !cosim.ShmSupported() {
			continue
		}
		if name := transportName(kind); *filter != "" && !strings.Contains(name, *filter) {
			continue
		}
		r, err := measureTransport(kind, *runs)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", r.Name, err))
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "cosim-bench: %-36s %12d ns/op  %8.1f syncs/s  acc=%.1f%%\n",
				r.Name, r.NsPerOp, r.SyncsPerSec, r.AccuracyPct)
		}
		file.Benchmarks = append(file.Benchmarks, r)
	}
	// Fleet point: 8 TCP sessions (chaos+resilience on half) placed across
	// 2 in-process hosts by the coordinator; sessions/sec tracks the
	// control plane on top of the farm.
	if *filter == "" || strings.Contains("Fleet/Hosts=2/N=8", *filter) {
		r, err := measureFleet(*runs)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", r.Name, err))
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "cosim-bench: %-36s %12d ns/op  %8.1f sessions/s\n",
				r.Name, r.NsPerOp, r.SessionsPerSec)
		}
		file.Benchmarks = append(file.Benchmarks, r)
	}

	// Write the artifact before gating, so a failing gate still leaves it.
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
	} else {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("cosim-bench: wrote %d benchmarks to %s\n", len(file.Benchmarks), *out)
	}

	if *baseline == "" {
		return
	}
	base, err := loadBaseline(*baseline)
	if err != nil {
		fatal(err)
	}
	report, failures := gate(base, file.Benchmarks)
	for _, line := range report {
		fmt.Println(line)
	}
	if failures > 0 {
		fatal(fmt.Errorf("%d gate check(s) failed against %s", failures, *baseline))
	}
}
