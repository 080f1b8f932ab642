// Package obs is the observability layer of the pipeline: a process-wide
// metrics registry (counters, gauges, bounded histograms), lightweight
// hierarchical spans carried through context.Context, and a structured
// event log for rule applications, budget consumption and degradation.
//
// The paper argues that rewriting pays for itself in execution work saved;
// this package is what lets the system measure that claim in-band instead
// of asserting it per-benchmark. Design constraints, in order:
//
//  1. Disabled must be free. Every hook in the rewrite/execute hot paths
//     is gated on a nil check (a nil *Recorder no-ops, a missing context
//     recorder costs one Value lookup at phase entry, never per row).
//     The root allocation regression test pins this at 0 allocs/op.
//  2. Bounded memory. Histograms are fixed-bucket; span trees cap their
//     fanout (Span.Truncated counts what was dropped) so a 10^6-round
//     fixpoint cannot OOM the trace.
//  3. Zero dependencies. Standard library only, like internal/guard, so
//     every layer (rewrite, engine, core, cmd) can depend on it freely.
//
// See docs/OBSERVABILITY.md for the metric name inventory, the span
// hierarchy and the exposition formats.
package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 metric. Safe for
// concurrent use; the zero value is ready.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored: counters only
// go up, matching the Prometheus contract).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 metric. Safe for concurrent use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefaultDurationBuckets are the histogram bounds used for phase timings,
// in seconds: 10µs .. ~84s, exponential with factor 4.
var DefaultDurationBuckets = []float64{
	10e-6, 40e-6, 160e-6, 640e-6, 2.56e-3, 10.24e-3, 40.96e-3, 163.84e-3, 655.36e-3, 2.62144, 10.48576, 41.94304,
}

// DefaultCountBuckets are the histogram bounds used for per-query counts
// (rows, checks): 1 .. ~1M, exponential with factor 4.
var DefaultCountBuckets = []float64{1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576}

// Histogram is a bounded fixed-bucket histogram: observations land in the
// first bucket whose upper bound is >= the value, with an implicit +Inf
// overflow bucket. Quantiles are estimated by linear interpolation within
// the winning bucket — coarse, but bounded-memory and mergeable, which is
// what a production scrape needs. Safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds
	counts []uint64  // len(bounds)+1; last is +Inf
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// NewHistogram builds a histogram over ascending upper bounds. An empty
// bounds slice gets DefaultDurationBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultDurationBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1), min: math.Inf(1), max: math.Inf(-1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile estimates the q-th quantile (0 < q < 1) from the buckets:
// the observation rank is located in its bucket and interpolated linearly
// between the bucket's bounds (clamped by the observed min/max for the
// outermost buckets). Returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := q * float64(h.count)
	var cum float64
	for i, c := range h.counts {
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		lo, hi := 0.0, h.max
		if i < len(h.bounds) {
			hi = math.Min(h.bounds[i], h.max)
		}
		if i > 0 {
			lo = h.bounds[i-1]
		}
		lo = math.Max(lo, h.min)
		if hi <= lo {
			return hi
		}
		// Interpolate the rank's position within this bucket.
		frac := (rank - (cum - float64(c))) / float64(c)
		return lo + frac*(hi-lo)
	}
	return h.max
}

// snapshot copies the histogram state for exposition.
func (h *Histogram) snapshot() (bounds []float64, counts []uint64, count uint64, sum float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.bounds, append([]uint64(nil), h.counts...), h.count, h.sum
}

// metricKind is what every series of a family is.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// String is the kind's name on a Prometheus # TYPE line.
func (k metricKind) String() string {
	return [...]string{"counter", "gauge", "histogram"}[k]
}

// Registry is a named collection of metric families. Every registered
// metric is one family (labelVec, labels.go) of one kind with zero or
// more labels; a plain Counter, Gauge or Histogram is the family with no
// labels. Get-or-create accessors are safe for concurrent use and
// idempotent: the first registration of a name wins, later calls return
// the same instance, and a kind or label mismatch panics — it is a
// programming error, like a duplicate expvar name.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]*labelVec
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*labelVec{}}
}

// family returns the named family, creating it on first use. Whichever
// path found it, a kind or label mismatch panics, so racing registrations
// of one name with different kinds never hand out a nil handle.
func (r *Registry) family(name, help string, kind metricKind, bounds []float64, labels []string) *labelVec {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	f, ok := r.metrics[name]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if f, ok = r.metrics[name]; !ok {
			f = newLabelVec(name, help, kind, bounds, labels)
			r.metrics[name] = f
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered with a different kind", name))
	}
	if !slices.Equal(f.labels, labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered with different labels", name))
	}
	return f
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.CounterVec(name, help).With()
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.GaugeVec(name, help).With()
}

// Histogram returns the named histogram, creating it on first use with
// the given bucket bounds (nil = DefaultDurationBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramVec(name, help, bounds).With()
}

// CounterVec returns the named counter family, creating it on first use
// with the given label names. Later calls must pass the same labels.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return (*CounterVec)(r.family(name, help, kindCounter, nil, labels))
}

// GaugeVec returns the named gauge family, creating it on first use with
// the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return (*GaugeVec)(r.family(name, help, kindGauge, nil, labels))
}

// HistogramVec returns the named histogram family, creating it on first
// use with the given bucket bounds (nil = duration defaults) and label
// names. Every series shares the bound layout.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return (*HistogramVec)(r.family(name, help, kindHistogram, bounds, labels))
}

// sorted returns the families in name order for deterministic exposition.
func (r *Registry) sorted() []*labelVec {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]*labelVec, 0, len(r.metrics))
	for _, f := range r.metrics {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
