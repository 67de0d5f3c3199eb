// Command bench is the repository's benchmark. It drives the
// co-simulator only through its public entry points and times each layer
// from outside, around the calls into it.
//
// One workload per invocation, with the result as the last line of
// standard output:
//
//	bash bench/run.sh -workload router-compute -seed 1 -seconds 20 -trace 0
//
// Without -workload it runs every workload, each in a fresh child
// process, and prints a table; -sets 2 runs the suite twice and fails
// when the two sets disagree beyond a metric's bound. See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print its result line (default: every workload, one child process each)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; seed 2 is held out for confirming claims")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured phase of one invocation, in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the layer pass and reports the per-layer metrics instead")
	flag.StringVar(&o.traceDir, "trace-dir", "", "where the layer pass writes its spans (default .bench_build/trace)")
	flag.Float64Var(&o.scale, "scale", 1, "multiplies every workload's packet count; below 1 only for the self-test")
	sets := flag.Int("sets", 1, "suite mode: number of full sets to run and compare")
	reps := flag.Int("reps", 1, "suite mode: invocations per workload in each set")
	golden := flag.String("write-golden", "", "write the seed-1 reference digests to this file and exit")
	flag.Parse()

	ctx := context.Background()
	if err := validate(o, *sets, *reps); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(2)
	}
	if *golden != "" {
		if err := writeGolden(ctx, *golden); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if o.workload == "" {
		if err := runSuite(o, *sets, *reps); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	rep, err := runWorkload(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func validate(o options, sets, reps int) error {
	if o.workload != "" {
		if _, err := workloadByName(o.workload); err != nil {
			return err
		}
	}
	switch {
	case o.trace != 0 && o.trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, not %d", o.trace)
	case o.seconds < 0:
		return fmt.Errorf("-seconds must not be negative")
	case o.scale <= 0:
		return fmt.Errorf("-scale must be positive")
	case sets < 1 || reps < 1:
		return fmt.Errorf("-sets and -reps must be at least 1")
	case sets > 1 && o.trace != 0:
		return fmt.Errorf("-sets compares end-to-end metrics; it needs -trace 0")
	}
	return nil
}

// runSuite runs every workload in its own child process, so heap, RSS
// and GC state do not carry over, one at a time, so load comes from one
// process.
func runSuite(o options, sets, reps int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// values[set][workload][metric] holds one value per invocation.
	values := make([]map[string]map[string][]float64, sets)
	incorrect := 0
	for s := range values {
		values[s] = make(map[string]map[string][]float64)
		for r := 0; r < reps; r++ {
			for _, w := range workloads {
				rep, err := runChild(exe, o, w.name)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				if !rep.Correct {
					incorrect++
				}
				if values[s][w.name] == nil {
					values[s][w.name] = make(map[string][]float64)
				}
				for name, v := range rep.Metrics {
					values[s][w.name][name] = append(values[s][w.name][name], v.Value)
				}
			}
		}
	}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	disagree := printSets(values, defs)
	if incorrect > 0 {
		return fmt.Errorf("%d invocation(s) reported incorrect results", incorrect)
	}
	if disagree > 0 {
		return fmt.Errorf("%d workload metric(s) differ between sets by more than their bound", disagree)
	}
	return nil
}

// runChild re-executes this binary for one workload and parses its
// result line.
func runChild(exe string, o options, name string) (report, error) {
	args := []string{
		"-workload", name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(o.trace),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
	}
	if o.traceDir != "" {
		args = append(args, "-trace-dir", o.traceDir)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return report{}, err
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var rep report
	if jerr := json.Unmarshal([]byte(last), &rep); jerr != nil {
		if err != nil {
			return report{}, err
		}
		return report{}, fmt.Errorf("parsing result line: %w", jerr)
	}
	return rep, nil
}

// printSets prints each set's median and quartiles per workload and
// metric and, from the second set on, the median's relative difference
// to the first set's. It returns how many differences exceed a bound.
func printSets(values []map[string]map[string][]float64, defs []metricDef) int {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	defer tw.Flush()
	header := "workload\tmetric\tunit"
	for s := range values {
		header += fmt.Sprintf("\tset%d median [q1, q3]", s+1)
	}
	if len(values) > 1 {
		header += "\tmax diff\tbound\t"
	}
	fmt.Fprintln(tw, header)
	disagree := 0
	for _, w := range workloads {
		for _, d := range defs {
			row := fmt.Sprintf("%s\t%s\t%s", w.name, d.name, d.unit)
			var base, worst float64
			for s := range values {
				q1, med, q3 := quartiles(values[s][w.name][d.name])
				row += fmt.Sprintf("\t%.6g [%.6g, %.6g]", med, q1, q3)
				switch {
				case s == 0:
					base = med
				case base != 0:
					worst = max(worst, math.Abs(med/base-1))
				case med != 0:
					worst = 1
				}
			}
			if len(values) > 1 {
				verdict := "ok"
				if worst > d.bound {
					verdict = "DIFFERS"
					disagree++
				}
				row += fmt.Sprintf("\t%.2f%%\t%.0f%%\t%s", 100*worst, 100*d.bound, verdict)
			}
			fmt.Fprintln(tw, row)
		}
	}
	return disagree
}
