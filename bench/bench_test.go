package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// testScale shrinks every workload so the whole suite runs in seconds.
const testScale = 0.04

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestTablesMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the bench has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file has %q (%q), bench has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the bench has %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound == nil || *m.Bound != d.bound {
			t.Errorf("end-to-end metric %d: file has %+v, bench has %+v", i, m, d)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the bench has %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: file has %+v, bench has %+v", i, m, d)
		}
	}
}

// TestEveryWorkloadReportsEveryMetric runs each workload untraced and
// through the layer pass at a tiny scale. Every run is checked against
// its plain in-process reference, so a correct report also shows that
// traced runs reproduce the untraced fingerprints.
func TestEveryWorkloadReportsEveryMetric(t *testing.T) {
	f := readBenchmarkFile(t)
	type nameUnit struct{ name, unit string }
	want := make([][]nameUnit, 2) // by -trace value
	for _, m := range f.EndToEnd {
		want[0] = append(want[0], nameUnit{m.Name, m.Unit})
	}
	for _, m := range f.PerLayer {
		want[1] = append(want[1], nameUnit{m.Name, m.Unit})
	}
	for _, w := range workloads {
		for trace, defs := range want {
			o := options{workload: w.name, seed: 3, seconds: 0.05, trace: trace, traceDir: t.TempDir(), scale: testScale}
			rep, err := runWorkload(context.Background(), o)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics reported, BENCHMARK.json names %d", w.name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				got, ok := rep.Metrics[d.name]
				if !ok || got.Unit != d.unit {
					t.Errorf("%s trace=%d: metric %s reported as %+v (present %v), want unit %s", w.name, trace, d.name, got, ok, d.unit)
				}
			}
		}
	}
}

// TestLayerSplitAddsUpToWall checks the subtraction the layer metrics
// rest on: on each pairwise workload, HDL self time, board self time,
// the link round trips and the hw side's DATA/INT calls account for the
// run's wall time to within 10%. It also checks that the timing layers
// leave the reported transport kind honest.
func TestLayerSplitAddsUpToWall(t *testing.T) {
	for _, w := range workloads {
		if !w.traced {
			continue
		}
		in := w.inputs(drawTBSeeds(3), 0.2)[0]
		tr := newTracer(1 << 12)
		out, err := runTraced(context.Background(), in.rc, tr)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if out.res.TransportKind != in.rc.Transport {
			t.Errorf("%s: result reports transport %v, the run used %v", w.name, out.res.TransportKind, in.rc.Transport)
		}
		var l runLayers
		analyzeRun(&l, tr.spansOf(sideHW, levelTop, 0), tr.spansOf(sideBoard, levelTop, 0),
			tr.spansOf(sideHW, levelBase, 0), tr.spansOf(sideBoard, levelBase, 0), out.res.Wall)
		if uint64(l.grants) != out.res.HW.SyncEvents || len(l.rtts) != l.grants {
			t.Errorf("%s: %d board quanta and %d round trips from spans, %d rendezvous in the result", w.name, l.grants, len(l.rtts), out.res.HW.SyncEvents)
		}
		sum := l.hdlSelf + l.boardSelf + l.hwNonClock
		for _, rtt := range l.rtts {
			sum += rtt
		}
		r := float64(sum) / float64(l.wall)
		if r < 0.9 || r > 1.1 {
			t.Errorf("%s: layers sum to %v of a %v wall (%.3f)", w.name, time.Duration(sum), time.Duration(l.wall), r)
		}
		t.Logf("%s: layers sum to %.3f of wall", w.name, r)
	}
}

func TestHostFactorAveragesNeighbouringProbes(t *testing.T) {
	t0 := time.Now()
	probes := []probe{
		{at: t0, ns: refKernelNS},
		{at: t0.Add(100 * time.Millisecond), ns: 2 * refKernelNS},
		{at: t0.Add(200 * time.Millisecond), ns: 3 * refKernelNS},
	}
	for _, c := range []struct {
		start time.Duration
		want  float64
	}{{-time.Millisecond, 1}, {50 * time.Millisecond, 1.5}, {150 * time.Millisecond, 2.5}, {250 * time.Millisecond, 3}} {
		if got := hostFactor(probes, t0.Add(c.start)); got != c.want {
			t.Errorf("run starting at %v: factor %v, want %v", c.start, got, c.want)
		}
	}
	if got := medianFactor(probes); got != 2 {
		t.Errorf("median factor %v, want 2", got)
	}
}

// TestCalibratorAllocatesNothing guards the probe's isolation: a kernel
// that allocated could start a garbage collection of the program's heap.
func TestCalibratorAllocatesNothing(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if _, err := c.run(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() {
		if _, err := c.run(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("calibration kernel allocates %v times per run", n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
