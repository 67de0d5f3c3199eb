// Package obs is the repository's live observability layer: a
// dependency-free metrics registry (atomic counters, gauges and
// fixed-bucket histograms) with Prometheus text and JSON exposition,
// plus an optional debug HTTP server (see server.go).
//
// The registry is the co-simulation analogue of CHESSY-style
// synchronization instrumentation: endpoints publish per-quantum CLOCK
// rendezvous latencies and live channel counters into it, so a run can
// be observed while it is alive instead of only through the Metrics
// struct read after router.Run returns.
//
// Metric names follow Prometheus conventions; labels are baked into the
// registered name with the Name helper:
//
//	reg.Counter(obs.Name("cosim_msgs_total", "side", "hw", "chan", "data"))
//
// All instrument operations are lock-free on the hot path; registration
// and exposition take the registry mutex.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) promKind() string { return "counter" }

// Gauge is a float64 that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add sums d into the gauge (CAS loop; safe for concurrent adders).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) promKind() string { return "gauge" }

// counterFunc exposes a caller-owned monotonic counter, read at scrape
// time. This is how the session layer's resilience counters are
// harvested incrementally: every exposition reads the live atomics.
type counterFunc struct{ fn func() uint64 }

func (counterFunc) promKind() string { return "counter" }

// gaugeFunc exposes a caller-owned instantaneous value at scrape time.
type gaugeFunc struct{ fn func() float64 }

func (gaugeFunc) promKind() string { return "gauge" }

// DefaultLatencyBuckets spans 1µs..2.5s, the plausible range of a CLOCK
// rendezvous from in-process channels to a congested WAN link.
var DefaultLatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5,
}

// Histogram is a fixed-bucket histogram (cumulative exposition, like a
// Prometheus classic histogram). Observations are in seconds.
type Histogram struct {
	upper  []float64 // sorted upper bounds; +Inf is implicit
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-summed
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefaultLatencyBuckets
	}
	upper := append([]float64(nil), buckets...)
	sort.Float64s(upper)
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records a value in seconds.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d as seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values, in seconds.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func (h *Histogram) promKind() string { return "histogram" }

// metric is any registered instrument.
type metric interface{ promKind() string }

// Registry holds named instruments. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]metric)}
}

// Name renders a full metric name with labels: Name("m", "k", "v")
// returns `m{k="v"}`. Label pairs are emitted in the given order.
func Name(base string, kv ...string) string {
	if len(kv) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", kv[i], kv[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// splitName separates `base{labels}` into its two parts.
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], strings.TrimSuffix(name[i+1:], "}")
	}
	return name, ""
}

// register get-or-creates the named metric via mk, panicking on a kind
// clash: registering one name as two different instrument types is a
// programming error, not a runtime condition.
func (r *Registry) register(name string, mk func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := mk()
	r.metrics[name] = m
	return m
}

// Counter get-or-creates a counter.
func (r *Registry) Counter(name string) *Counter {
	m := r.register(name, func() metric { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %s", name, m.promKind()))
	}
	return c
}

// Gauge get-or-creates a gauge.
func (r *Registry) Gauge(name string) *Gauge {
	m := r.register(name, func() metric { return &Gauge{} })
	g, ok := m.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %s", name, m.promKind()))
	}
	return g
}

// Histogram get-or-creates a histogram; buckets are upper bounds in
// seconds (nil selects DefaultLatencyBuckets). The bucket layout of an
// already-registered histogram wins.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	m := r.register(name, func() metric { return newHistogram(buckets) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q already registered as %s", name, m.promKind()))
	}
	return h
}

// CounterFunc registers fn as a scrape-time counter. Re-registering a
// name replaces the function.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = counterFunc{fn: fn}
}

// GaugeFunc registers fn as a scrape-time gauge, replacing any previous
// registration of the name.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = gaugeFunc{fn: fn}
}

// snapshot returns the registered names sorted for stable exposition:
// primary key base name (so # TYPE headers group), secondary the label
// set.
func (r *Registry) snapshot() (names []string, metrics map[string]metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	metrics = make(map[string]metric, len(r.metrics))
	for k, v := range r.metrics {
		metrics[k] = v
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		bi, li := splitName(names[i])
		bj, lj := splitName(names[j])
		if bi != bj {
			return bi < bj
		}
		return li < lj
	})
	return names, metrics
}

func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
