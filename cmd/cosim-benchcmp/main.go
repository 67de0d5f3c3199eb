// Command cosim-benchcmp is the CI perf-regression gate: it compares a
// freshly generated BENCH_cosim.json against a committed baseline and
// fails when any gated benchmark slowed down — in wall clock (ns_per_op)
// or in steady-state allocation rate (allocs_per_quantum) — by more than
// the allowed factor.
//
//	cosim-benchcmp -baseline BENCH_baseline.json -current BENCH_cosim.json
//
// A missing baseline file is not an error — the gate prints a notice
// and exits 0, so the pipeline works on branches that predate the
// baseline (and the baseline can simply be deleted to re-bootstrap it
// after a deliberate perf change or a runner-hardware change). A missing
// baseline *entry* for a gated benchmark IS an error: a new family that
// never lands in the baseline would otherwise ride ungated forever.
// Per metric, a baseline entry without allocs_per_quantum (recorded
// before the allocation gate existed) skips that comparison only.
//
// Relative-speed assertions between entries of the current file gate
// claimed speedups independently of the baseline:
//
//	cosim-benchcmp -speedup "Transport/Fig5/N=20/tcp:Transport/Fig5/N=20/shm:3"
//
// fails unless the shm point is ≥3× faster (ns_per_op) than the tcp
// point AND its allocs_per_quantum is no worse.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// benchEntry is one benchmark's gated metrics.
type benchEntry struct {
	Name             string  `json:"name"`
	NsPerOp          int64   `json:"ns_per_op"`
	AllocsPerQuantum float64 `json:"allocs_per_quantum"`
}

// benchFile mirrors the cosim-bench output schema (only the fields the
// gate reads).
type benchFile struct {
	Schema     int          `json:"schema"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

func load(path string) (map[string]benchEntry, *benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]benchEntry, len(f.Benchmarks))
	for _, b := range f.Benchmarks {
		out[b.Name] = b
	}
	return out, &f, nil
}

func main() {
	baseline := flag.String("baseline", "BENCH_baseline.json", "committed baseline file")
	current := flag.String("current", "BENCH_cosim.json", "freshly generated file")
	prefix := flag.String("prefix", "Kernel/,Fig5/,Farm/,Fleet/,Adaptive/,Transport/,Federation/", "only gate benchmarks whose name has one of these comma-separated prefixes (empty = all)")
	threshold := flag.Float64("threshold", 1.25, "fail when current/baseline ns/op exceeds this ratio")
	allocsThreshold := flag.Float64("allocs-threshold", 1.25, "fail when current/baseline allocs_per_quantum exceeds this ratio")
	speedup := flag.String("speedup", "", "comma-separated slow:fast:minRatio assertions over the current file (fail unless fast is minRatio× faster than slow with allocs no worse)")
	flag.Parse()

	var prefixes []string
	for _, p := range strings.Split(*prefix, ",") {
		if p = strings.TrimSpace(p); p != "" {
			prefixes = append(prefixes, p)
		}
	}
	matches := func(name string) bool {
		if len(prefixes) == 0 {
			return true
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				return true
			}
		}
		return false
	}

	// The current file is always needed (speedup assertions gate it even
	// without a baseline). Iterate in its order so the report is stable.
	cur, ordered, err := load(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cosim-benchcmp: %v\n", err)
		os.Exit(1)
	}
	speedupFailures := checkSpeedups(cur, *speedup)

	base, _, err := load(*baseline)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Printf("cosim-benchcmp: no baseline at %s; skipping regression gate\n", *baseline)
			if speedupFailures > 0 {
				fmt.Fprintf(os.Stderr, "cosim-benchcmp: %d speedup assertion(s) failed\n", speedupFailures)
				os.Exit(1)
			}
			return
		}
		fmt.Fprintf(os.Stderr, "cosim-benchcmp: %v\n", err)
		os.Exit(1)
	}
	regressions := speedupFailures
	compared := 0
	missing := 0
	for _, b := range ordered.Benchmarks {
		if !matches(b.Name) {
			continue
		}
		bl, ok := base[b.Name]
		if !ok || bl.NsPerOp <= 0 {
			fmt.Printf("  %-28s %12d ns/op  MISSING FROM BASELINE\n", b.Name, b.NsPerOp)
			missing++
			continue
		}
		compared++
		ratio := float64(b.NsPerOp) / float64(bl.NsPerOp)
		verdict := "ok"
		if ratio > *threshold {
			verdict = "REGRESSION"
			regressions++
		}
		fmt.Printf("  %-28s %12d -> %12d ns/op  (%.2fx)  %s\n", b.Name, bl.NsPerOp, b.NsPerOp, ratio, verdict)
		// Allocation gate: only when both files carry the metric (older
		// baselines predate it; a run without quanta reports zero).
		if bl.AllocsPerQuantum > 0 && b.AllocsPerQuantum > 0 {
			aRatio := b.AllocsPerQuantum / bl.AllocsPerQuantum
			aVerdict := "ok"
			if aRatio > *allocsThreshold {
				aVerdict = "REGRESSION"
				regressions++
			}
			fmt.Printf("  %-28s %12.1f -> %12.1f allocs/quantum  (%.2fx)  %s\n",
				"", bl.AllocsPerQuantum, b.AllocsPerQuantum, aRatio, aVerdict)
		}
	}
	if missing > 0 {
		fmt.Fprintf(os.Stderr, "cosim-benchcmp: %d gated benchmark(s) have no baseline entry — the baseline predates a new family; regenerate it (make bench, commit BENCH_cosim.json as BENCH_baseline.json) so the new numbers are gated\n", missing)
		os.Exit(1)
	}
	if compared == 0 && speedupFailures == 0 {
		fmt.Printf("cosim-benchcmp: no %q benchmarks shared with the baseline; nothing gated\n", *prefix)
		return
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "cosim-benchcmp: %d metric(s) regressed beyond the allowed factor\n", regressions)
		os.Exit(1)
	}
	fmt.Printf("cosim-benchcmp: %d benchmark(s) within %.2fx ns/op and %.2fx allocs/quantum of baseline\n",
		compared, *threshold, *allocsThreshold)
}

// checkSpeedups evaluates "slow:fast:minRatio" assertions against the
// current file and returns the number of failures. An entry named in an
// assertion but absent from the file fails it — except a missing *fast*
// entry whose name ends in "/shm" on a platform that cannot emit it;
// callers gate that path in CI where shm always exists, so absence here
// (a exotic local platform) degrades to a warning.
func checkSpeedups(cur map[string]benchEntry, spec string) int {
	failures := 0
	for _, a := range strings.Split(spec, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		parts := strings.Split(a, ":")
		if len(parts) != 3 {
			fmt.Fprintf(os.Stderr, "cosim-benchcmp: bad -speedup assertion %q (want slow:fast:minRatio)\n", a)
			failures++
			continue
		}
		minRatio, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || minRatio <= 0 {
			fmt.Fprintf(os.Stderr, "cosim-benchcmp: bad -speedup ratio in %q\n", a)
			failures++
			continue
		}
		slow, okS := cur[parts[0]]
		fast, okF := cur[parts[1]]
		if !okF && strings.HasSuffix(parts[1], "/shm") {
			fmt.Printf("  speedup %s: %s not in current file (platform without shm?); skipped\n", a, parts[1])
			continue
		}
		if !okS || !okF || slow.NsPerOp <= 0 || fast.NsPerOp <= 0 {
			fmt.Fprintf(os.Stderr, "cosim-benchcmp: speedup assertion %q references entries missing from the current file\n", a)
			failures++
			continue
		}
		ratio := float64(slow.NsPerOp) / float64(fast.NsPerOp)
		verdict := "ok"
		if ratio < minRatio {
			verdict = "TOO SLOW"
			failures++
		}
		fmt.Printf("  speedup %-44s %.2fx (need ≥%.2fx)  %s\n",
			parts[1]+" vs "+parts[0], ratio, minRatio, verdict)
		// The faster transport must also not buy its speed with garbage:
		// allocs per quantum may not exceed the slow side's.
		if fast.AllocsPerQuantum > slow.AllocsPerQuantum && slow.AllocsPerQuantum > 0 {
			fmt.Fprintf(os.Stderr, "cosim-benchcmp: %s allocs/quantum %.2f worse than %s's %.2f\n",
				parts[1], fast.AllocsPerQuantum, parts[0], slow.AllocsPerQuantum)
			failures++
		}
	}
	return failures
}
