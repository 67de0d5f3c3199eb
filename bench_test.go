// Package repro's root benchmark suite: one benchmark per evaluation
// figure of the paper plus the DESIGN.md ablations. Each benchmark runs a
// scaled-down instance of the corresponding experiment (the full sweeps
// live in cmd/cosim-experiments) and reports the figure's key quantity as
// a custom metric, so `go test -bench=. -benchmem` regenerates the whole
// evaluation in miniature.
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cosim"
	"repro/internal/router"
	"repro/internal/servo"
)

// benchRun executes one co-simulation with the given overrides.
func benchRun(b *testing.B, n int, tsync uint64, mutate func(*router.RunConfig)) router.RunResult {
	b.Helper()
	rc := router.DefaultRunConfig()
	rc.TB.PacketsPerPort = n / rc.TB.Ports
	rc.TSync = tsync
	if mutate != nil {
		mutate(&rc)
	}
	res, err := router.Run(context.Background(), router.Transports{}, router.WithConfig(rc))
	if err != nil {
		b.Fatal(err)
	}
	if res.Conservation != nil {
		b.Fatal(res.Conservation)
	}
	return res
}

// BenchmarkFig5OverheadVsN regenerates Figure 5's axes: wall time (ns/op)
// as a function of N for two T_sync values. Linearity in N and the
// slope gap between the sub-benchmarks are the figure's claims.
func BenchmarkFig5OverheadVsN(b *testing.B) {
	for _, n := range []int{20, 40, 80} {
		for _, ts := range []uint64{1000, 10000} {
			b.Run(fmt.Sprintf("N=%d/Tsync=%d", n, ts), func(b *testing.B) {
				var syncs uint64
				for i := 0; i < b.N; i++ {
					res := benchRun(b, n, ts, func(rc *router.RunConfig) {
						rc.Transport = router.TransportTCP
						rc.TB.Period = 10000 // sparse workload: sync-dominated regime
					})
					syncs = res.HW.SyncEvents
				}
				b.ReportMetric(float64(syncs), "syncs/op")
			})
		}
	}
}

// BenchmarkFig6OverheadVsTsync regenerates Figure 6's axis: wall time per
// run across a log-spaced T_sync sweep (the loopback baseline is the last
// sub-benchmark). ns/op decaying toward the baseline as T_sync grows is
// the figure's claim.
func BenchmarkFig6OverheadVsTsync(b *testing.B) {
	const n = 40
	for _, ts := range []uint64{1, 10, 100, 1000, 10000} {
		b.Run(fmt.Sprintf("Tsync=%d", ts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchRun(b, n, ts, func(rc *router.RunConfig) {
					rc.Transport = router.TransportTCP
				})
			}
		})
	}
	b.Run("baseline=unsync", func(b *testing.B) {
		tbc := router.DefaultTBConfig()
		tbc.PacketsPerPort = n / tbc.Ports
		for i := 0; i < b.N; i++ {
			if _, err := router.RunLoopback(tbc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig7AccuracyVsTsync regenerates Figure 7: the accuracy_pct
// metric must read 100 on the plateau and decline past the knee at
// T_sync ≈ 5000.
func BenchmarkFig7AccuracyVsTsync(b *testing.B) {
	for _, ts := range []uint64{1000, 4000, 6000, 10000, 20000} {
		b.Run(fmt.Sprintf("Tsync=%d", ts), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				res := benchRun(b, 100, ts, nil)
				acc = res.Accuracy
			}
			b.ReportMetric(100*acc, "accuracy_pct")
		})
	}
}

// BenchmarkFig8QualityVsTsync reports the derived accuracy×speedup metric
// used for the optimal-T_sync selection (wall time is ns/op; quality uses
// the accuracy metric divided by time relative to the tightest point).
func BenchmarkFig8QualityVsTsync(b *testing.B) {
	for _, ts := range []uint64{1000, 4000, 8000} {
		b.Run(fmt.Sprintf("Tsync=%d", ts), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				res := benchRun(b, 100, ts, func(rc *router.RunConfig) {
					rc.Transport = router.TransportTCP
				})
				acc = res.Accuracy
			}
			b.ReportMetric(100*acc, "accuracy_pct")
		})
	}
}

// BenchmarkE2ServoQuality regenerates experiment E2 in miniature: the
// closed-loop servo's settling behaviour across the coupling spectrum
// (accuracy metric: integral absolute error; small = good, huge =
// unstable loop).
func BenchmarkE2ServoQuality(b *testing.B) {
	for _, ts := range []uint64{250, 2000, 6000} {
		b.Run(fmt.Sprintf("Tsync=%d", ts), func(b *testing.B) {
			var iae float64
			for i := 0; i < b.N; i++ {
				rc := servo.DefaultRunConfig()
				rc.TSync = ts
				q, err := servo.Run(rc)
				if err != nil {
					b.Fatal(err)
				}
				iae = q.IAE
			}
			b.ReportMetric(iae, "IAE")
		})
	}
}

// BenchmarkAblationSyncPolicies compares lockstep, quantum and
// unsynchronized coupling (A1).
func BenchmarkAblationSyncPolicies(b *testing.B) {
	const n = 20
	b.Run("lockstep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchRun(b, n, 1, nil)
		}
	})
	b.Run("quantum=1000", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchRun(b, n, 1000, nil)
		}
	})
	b.Run("unsynchronized", func(b *testing.B) {
		tbc := router.DefaultTBConfig()
		tbc.PacketsPerPort = n / tbc.Ports
		for i := 0; i < b.N; i++ {
			if _, err := router.RunLoopback(tbc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationTimingModel compares ISS-measured vs annotated software
// timing (A2).
func BenchmarkAblationTimingModel(b *testing.B) {
	for _, timing := range []router.TimingModel{router.TimingISS, router.TimingAnnotated} {
		b.Run(timing.String(), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				res := benchRun(b, 40, 2000, func(rc *router.RunConfig) {
					rc.AppCfg.Timing = timing
				})
				acc = res.Accuracy
			}
			b.ReportMetric(100*acc, "accuracy_pct")
		})
	}
}

// BenchmarkAblationTransport compares per-sync cost across transports (A3)
// in the lockstep regime where sync cost dominates.
func BenchmarkAblationTransport(b *testing.B) {
	for _, tr := range []router.TransportKind{router.TransportInProc, router.TransportTCP} {
		b.Run(tr.String(), func(b *testing.B) {
			var syncs uint64
			for i := 0; i < b.N; i++ {
				res := benchRun(b, 12, 1, func(rc *router.RunConfig) {
					rc.Transport = tr
				})
				syncs = res.HW.SyncEvents
			}
			b.ReportMetric(float64(syncs), "syncs/op")
		})
	}
}

// BenchmarkAblationMultiBoard compares one vs two boards under a heavy
// verification kernel (A5); the accuracy metric shows the recovery.
func BenchmarkAblationMultiBoard(b *testing.B) {
	mkCfg := func() router.RunConfig {
		rc := router.DefaultRunConfig()
		rc.TB.PacketsPerPort = 25
		rc.TSync = 2000
		rc.AppCfg.Timing = router.TimingAnnotated
		rc.AppCfg.AnnotatedBase = 40000
		return rc
	}
	b.Run("boards=1", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			res, err := router.Run(context.Background(), router.Transports{}, router.WithConfig(mkCfg()))
			if err != nil {
				b.Fatal(err)
			}
			acc = res.Accuracy
		}
		b.ReportMetric(100*acc, "accuracy_pct")
	})
	b.Run("boards=2", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			res, err := router.RunFederation(context.Background(), router.FederationConfig{Boards: 2},
				router.WithConfig(mkCfg()), router.WithTransport(router.TransportInProc))
			if err != nil {
				b.Fatal(err)
			}
			acc = res.Accuracy
		}
		b.ReportMetric(100*acc, "accuracy_pct")
	})
}

// BenchmarkAblationSyncMode compares alternating vs pipelined quantum
// scheduling (A4).
func BenchmarkAblationSyncMode(b *testing.B) {
	for _, mode := range []cosim.SyncMode{cosim.SyncAlternating, cosim.SyncPipelined} {
		b.Run(mode.String(), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				res := benchRun(b, 40, 4000, func(rc *router.RunConfig) {
					rc.Transport = router.TransportTCP
					rc.Mode = mode
				})
				acc = res.Accuracy
			}
			b.ReportMetric(100*acc, "accuracy_pct")
		})
	}
}
