package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef is one metric of BENCHMARK.json. bench_test.go checks that
// this table and the file agree name for name.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: allowed relative regression
}

// endToEnd are the metrics a user of the co-simulator sees, measured with
// tracing off. Host-time metrics name host time; accuracy_pct is a
// simulated statistic.
var endToEnd = []metricDef{
	{"sim_mcycles_per_s", "Mcycle/s", "higher", 0.25},
	{"runs_per_s", "1/s", "higher", 0.25},
	{"run_s_p50", "s", "lower", 0.25},
	{"run_s_p90", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"accuracy_pct", "%", "higher", 0},
	{"alloc_kb_per_mcycle", "KiB/Mcycle", "lower", 0.10},
	{"max_rss_mb", "MiB", "lower", 0.20},
}

// perLayer are the metrics of the traced pass, one group per module.
// A metric that a workload cannot measure from outside reads 0 there
// (see README.md).
var perLayer = []metricDef{
	{name: "router.build_ms", unit: "ms", better: "lower"},
	{name: "hdlsim.self_s", unit: "s", better: "lower"},
	{name: "hdlsim.ns_per_cycle", unit: "ns", better: "lower"},
	{name: "hdlsim.share", unit: "ratio", better: "lower"},
	{name: "board.self_s", unit: "s", better: "lower"},
	{name: "board.ns_per_grant", unit: "ns", better: "lower"},
	{name: "board.share", unit: "ratio", better: "lower"},
	{name: "board.grants", unit: "count", better: "lower"},
	{name: "sync.rendezvous", unit: "count", better: "lower"},
	{name: "sync.elided", unit: "count", better: "higher"},
	{name: "sync.elided_ratio", unit: "ratio", better: "higher"},
	{name: "sync.wait_s", unit: "s", better: "lower"},
	{name: "sync.wait_us_p50", unit: "us", better: "lower"},
	{name: "sync.wait_us_p99", unit: "us", better: "lower"},
	{name: "link.rtt_us_p50", unit: "us", better: "lower"},
	{name: "link.rtt_us_p99", unit: "us", better: "lower"},
	{name: "codec.frames", unit: "count", better: "lower"},
	{name: "codec.bytes_per_frame", unit: "B", better: "lower"},
	{name: "codec.encode_ns", unit: "ns", better: "lower"},
	{name: "codec.decode_ns", unit: "ns", better: "lower"},
	{name: "codec.share", unit: "ratio", better: "lower"},
	{name: "stack.msgs", unit: "count", better: "lower"},
	{name: "stack.frames_per_msg", unit: "ratio", better: "lower"},
	{name: "stack.batch_flushes", unit: "count", better: "lower"},
	{name: "stack.retransmits", unit: "count", better: "lower"},
	{name: "stack.top_s", unit: "s", better: "lower"},
	{name: "transport.frames", unit: "count", better: "lower"},
	{name: "transport.send_s", unit: "s", better: "lower"},
	{name: "transport.send_us_p50", unit: "us", better: "lower"},
	{name: "transport.send_us_p99", unit: "us", better: "lower"},
	{name: "federation.boundaries", unit: "count", better: "lower"},
	{name: "federation.elided", unit: "count", better: "higher"},
	{name: "federation.us_per_boundary", unit: "us", better: "lower"},
	{name: "federation.pulse_lost", unit: "count", better: "lower"},
	{name: "farm.latency_s_p50", unit: "s", better: "lower"},
	{name: "farm.latency_s_p90", unit: "s", better: "lower"},
	{name: "farm.overhead_s_p50", unit: "s", better: "lower"},
	{name: "farm.failed", unit: "count", better: "lower"},
	{name: "farm.rejected", unit: "count", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet fills values for a table of definitions, so a metric can
// never be reported under the wrong unit or be forgotten.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]float64, len(defs))}
}

func (s *metricSet) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	s.vals[name] = v
}

// out returns every defined metric; those never set read 0.
func (s *metricSet) out() map[string]metricValue {
	m := make(map[string]metricValue, len(s.defs))
	for _, d := range s.defs {
		m[d.name] = metricValue{Value: s.vals[d.name], Unit: d.unit}
	}
	return m
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs need not be sorted; it is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// quartiles matches Python's statistics.quantiles(xs, n=4), the
// "exclusive" method, so -sets reports the spread the same way it is
// judged. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	m := len(d)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return d[0], d[0], d[0]
	}
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := i*(m+1) - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
