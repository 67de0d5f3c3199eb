package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"

	"repro/internal/router"
)

const (
	// nsThreshold and allocsThreshold are the largest current/baseline
	// ratios of ns_per_op and allocs_per_quantum the gate lets pass.
	nsThreshold     = 1.25
	allocsThreshold = 1.25
	// shmFloor is the zero-copy claim checked on every fresh run: shm must
	// beat tcp by this factor at the sync-dominated Transport/ point, and
	// allocate no more per quantum. It was set on a 1-core worst case;
	// multi-core CI runners favour shm's rendezvous turnaround even more.
	shmFloor = 3.0
)

// loadBaseline reads a committed baseline file. A missing file is not an
// error: it returns nil, and the gate then skips the baseline comparison.
func loadBaseline(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// gate checks fresh results against a baseline and returns the report,
// one line per check, and the number of failed checks.
//
// Every current entry must have a baseline entry, so a new benchmark
// cannot ride ungated, and may exceed it by at most nsThreshold in
// ns_per_op and allocsThreshold in allocs_per_quantum (the latter only
// when both sides report it). A nil base, meaning no baseline file exists,
// skips that comparison with a notice: deleting the baseline re-bootstraps
// it after a deliberate perf change or new runner hardware. The shm floor
// is checked on the current results alone; it is skipped with a warning
// when no shm entry was measured (a filtered run, or no shm on the
// platform).
func gate(base *File, cur []Result) (report []string, failures int) {
	printf := func(format string, a ...any) { report = append(report, fmt.Sprintf(format, a...)) }
	now := make(map[string]Result, len(cur))
	for _, r := range cur {
		now[r.Name] = r
	}

	slowName, fastName := transportName(router.TransportTCP), transportName(router.TransportShm)
	slow, okSlow := now[slowName]
	fast, okFast := now[fastName]
	switch {
	case !okFast:
		printf("  floor: %s not measured (filtered out, or no shm on this platform); skipped", fastName)
	case !okSlow || slow.NsPerOp <= 0 || fast.NsPerOp <= 0:
		printf("  floor: %s needs %s measured in the same run  FAIL", fastName, slowName)
		failures++
	default:
		ratio := float64(slow.NsPerOp) / float64(fast.NsPerOp)
		verdict := "ok"
		if ratio < shmFloor {
			verdict = "TOO SLOW"
			failures++
		}
		printf("  floor %-44s %.2fx (need ≥%.2fx)  %s", fastName+" vs "+slowName, ratio, shmFloor, verdict)
		if slow.AllocsPerQuantum > 0 && fast.AllocsPerQuantum > slow.AllocsPerQuantum {
			printf("  floor: %s allocs/quantum %.2f worse than %s's %.2f  FAIL",
				fastName, fast.AllocsPerQuantum, slowName, slow.AllocsPerQuantum)
			failures++
		}
	}

	if base == nil {
		printf("no baseline file; regression gate skipped")
		return report, failures
	}
	was := make(map[string]Result, len(base.Benchmarks))
	for _, r := range base.Benchmarks {
		was[r.Name] = r
	}
	missing := 0
	for _, r := range cur {
		b, ok := was[r.Name]
		if !ok || b.NsPerOp <= 0 {
			printf("  %-36s %12d ns/op  MISSING FROM BASELINE", r.Name, r.NsPerOp)
			missing++
			continue
		}
		ratio := float64(r.NsPerOp) / float64(b.NsPerOp)
		verdict := "ok"
		if ratio > nsThreshold {
			verdict = "REGRESSION"
			failures++
		}
		printf("  %-36s %12d -> %12d ns/op  (%.2fx)  %s", r.Name, b.NsPerOp, r.NsPerOp, ratio, verdict)
		if b.AllocsPerQuantum > 0 && r.AllocsPerQuantum > 0 {
			ratio := r.AllocsPerQuantum / b.AllocsPerQuantum
			verdict := "ok"
			if ratio > allocsThreshold {
				verdict = "REGRESSION"
				failures++
			}
			printf("  %-36s %12.1f -> %12.1f allocs/quantum  (%.2fx)  %s",
				"", b.AllocsPerQuantum, r.AllocsPerQuantum, ratio, verdict)
		}
	}
	failures += missing
	switch {
	case missing > 0:
		printf("%d benchmark(s) have no baseline entry; regenerate the baseline "+
			"(go run ./cmd/cosim-bench -runs 3 -out BENCH_baseline.json) and commit it", missing)
	case failures == 0:
		printf("%d benchmark(s) within %.2fx ns/op and %.2fx allocs/quantum of baseline",
			len(cur), nsThreshold, allocsThreshold)
	}
	return report, failures
}
