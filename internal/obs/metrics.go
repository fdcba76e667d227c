package obs

import (
	"expvar"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// The metrics registry: named counters, gauges and histograms that the
// pipeline increments as it works — run-cache hits and misses, worker
// occupancy, leaves dispatched, monitor samples, lost wraps. Metrics
// are process-global and always live (single atomic operations), and
// every metric is also published through the standard expvar registry
// so an embedding server exposes them on /debug/vars for free.
// report.MetricsTable renders the same registry for the CLIs.

// Counter is a monotonically increasing count.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level (e.g. busy workers). It tracks the
// high-water mark alongside the current value.
type Gauge struct {
	name string
	v    atomic.Int64
	max  atomic.Int64
}

// Set stores an absolute level.
func (g *Gauge) Set(v int64) {
	g.v.Store(v)
	updateMax(&g.max, v)
}

// Add moves the level by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	v := g.v.Add(delta)
	updateMax(&g.max, v)
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Max returns the high-water mark since the last reset.
func (g *Gauge) Max() int64 { return g.max.Load() }

func updateMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// histBuckets is the number of power-of-two histogram buckets. Bucket
// i counts observations in [2^(i-histZero), 2^(i-histZero+1)); with
// histZero 30 the covered range is ~1 ns to ~34 s for values in
// seconds, which brackets everything the pipeline times.
const (
	histBuckets = 64
	histZero    = 30
)

// Histogram is a lock-free power-of-two histogram of float64
// observations. Values are stored as raw float64 (atomic bit images),
// so observations of any unit and magnitude — seconds, bytes, cell
// counts — survive unscaled: the old implementation kept the sum and
// max as nanosecond-scaled integers, which silently overflowed (and
// mangled MaxValue/Mean) for any observation that was not a short
// duration. The unit string, when set, is purely presentational:
// Metrics() renders it as a suffix.
type Histogram struct {
	name    string
	unit    string // rendering suffix ("s", "B", ...); "" = unitless
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bit image of the running sum
	maxBits atomic.Uint64 // float64 bit image of the max
}

// addFloat atomically adds v to the float64 stored in bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// maxFloat atomically raises the float64 stored in bits to at least v.
func maxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if v <= math.Float64frombits(old) || bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Observe records one value. Non-positive values land in the lowest
// bucket.
func (h *Histogram) Observe(v float64) {
	idx := 0
	if v > 0 {
		idx = math.Ilogb(v) + histZero
		if idx < 0 {
			idx = 0
		} else if idx >= histBuckets {
			idx = histBuckets - 1
		}
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	addFloat(&h.sumBits, v)
	maxFloat(&h.maxBits, v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the average observed value, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load()) / float64(n)
}

// MaxValue returns the largest observed value, in the unit the caller
// observed in.
func (h *Histogram) MaxValue() float64 { return math.Float64frombits(h.maxBits.Load()) }

// Unit returns the histogram's presentational unit suffix ("" when the
// histogram is unitless).
func (h *Histogram) Unit() string { return h.unit }

// Buckets returns the non-zero buckets as (lower bound, count) pairs
// in increasing order.
func (h *Histogram) Buckets() []struct {
	Low   float64
	Count int64
} {
	var out []struct {
		Low   float64
		Count int64
	}
	for i := 0; i < histBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			out = append(out, struct {
				Low   float64
				Count int64
			}{math.Pow(2, float64(i-histZero)), n})
		}
	}
	return out
}

// registry is the process-global named-metric store.
var registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// GetCounter returns the named counter, creating (and publishing to
// expvar) it on first use. Safe for concurrent use; idempotent.
func GetCounter(name string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.counts == nil {
		registry.counts = make(map[string]*Counter)
	}
	if c, ok := registry.counts[name]; ok {
		return c
	}
	c := &Counter{name: name}
	registry.counts[name] = c
	publish(name, func() any { return c.Value() })
	return c
}

// GetGauge returns the named gauge, creating it on first use.
func GetGauge(name string) *Gauge {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.gauges == nil {
		registry.gauges = make(map[string]*Gauge)
	}
	if g, ok := registry.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name}
	registry.gauges[name] = g
	publish(name, func() any { return g.Value() })
	return g
}

// GetHistogramUnit returns the named histogram, creating it with the
// given presentational unit suffix on first use. The unit set at
// creation wins; later calls with a different unit get the existing
// histogram unchanged.
func GetHistogramUnit(name, unit string) *Histogram {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.hists == nil {
		registry.hists = make(map[string]*Histogram)
	}
	if h, ok := registry.hists[name]; ok {
		return h
	}
	h := &Histogram{name: name, unit: unit}
	registry.hists[name] = h
	publish(name, func() any {
		return map[string]any{"count": h.Count(), "mean": h.Mean(), "max": h.MaxValue()}
	})
	return h
}

// publish registers the metric with expvar under obs.<name>, guarding
// against the panic expvar raises on duplicate names (tests may reset
// and re-create metrics). Called with registry.mu held, which also
// serializes the Get/Publish window.
func publish(name string, f func() any) {
	key := "obs." + name
	if expvar.Get(key) != nil {
		return
	}
	expvar.Publish(key, expvar.Func(f))
}

// MetricValue is one rendered registry entry for tables and tests.
type MetricValue struct {
	Name  string
	Kind  string // "counter", "gauge", "histogram"
	Value string
}

// Metrics snapshots the registry, sorted by name.
func Metrics() []MetricValue {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	out := make([]MetricValue, 0,
		len(registry.counts)+len(registry.gauges)+len(registry.hists))
	for n, c := range registry.counts {
		out = append(out, MetricValue{Name: n, Kind: "counter", Value: fmt.Sprintf("%d", c.Value())})
	}
	for n, g := range registry.gauges {
		out = append(out, MetricValue{
			Name: n, Kind: "gauge",
			Value: fmt.Sprintf("%d (max %d)", g.Value(), g.Max()),
		})
	}
	for n, h := range registry.hists {
		out = append(out, MetricValue{
			Name: n, Kind: "histogram",
			Value: fmt.Sprintf("n=%d mean=%.3g%s max=%.3g%s",
				h.Count(), h.Mean(), h.unit, h.MaxValue(), h.unit),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ResetMetrics zeroes every registered metric (the registrations and
// expvar publications persist). Tests and benchmarks use it to start
// from a clean count.
func ResetMetrics() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.counts {
		c.v.Store(0)
	}
	for _, g := range registry.gauges {
		g.v.Store(0)
		g.max.Store(0)
	}
	for _, h := range registry.hists {
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
		h.count.Store(0)
		h.sumBits.Store(0)
		h.maxBits.Store(0)
	}
}
