package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// A metric family: every registered metric is one labelVec of one kind,
// keyed by a fixed label vector. A plain Counter, Gauge or Histogram is the
// family with no labels, whose one series the family holds directly;
// CounterVec, GaugeVec and HistogramVec are the same family seen through
// its kind's handle type.
//
// Design constraints, matching the rest of the package:
//
//  1. Bounded cardinality. A family accepts at most max distinct
//     label-value combinations (DefaultMaxSeries). Past the cap, new
//     combinations collapse into an overflow series whose FIRST label
//     value is OverflowLabel ("_other") — by convention the first label is
//     the high-cardinality one (tenant), the rest a closed vocabulary
//     (codes). Nothing is ever dropped: an overflowed observation still
//     counts, so the sum over all series of a family remains exact.
//     Collapses are counted (overflowed), for the tests that pin the
//     policy: no exposition carries the count.
//  2. Exact sums. Series are ordinary *Counter/*Gauge/*Histogram handles
//     backed by atomics; With() is a read-locked map hit on the steady
//     state, and callers on hot paths may cache the series handle.
//  3. Prometheus-faithful exposition. Label values are escaped per the
//     text exposition format (backslash, quote, newline), label names
//     render in their declared order, and series render in sorted key
//     order so scrapes are deterministic (expose.go).
//  4. Nil is off. A nil vector returns nil series, and nil series no-op —
//     the disabled path stays allocation-free.
type labelVec struct {
	name   string
	help   string
	kind   metricKind
	labels []string
	bounds []float64 // histogram bucket bounds, shared by every series
	// one is the only series of a family with no labels.
	one *labelSeries

	mu     sync.RWMutex
	max    int
	series map[string]*labelSeries
	// overflowed counts label-value combinations collapsed into the
	// _other overflow series because the family was at capacity.
	overflowed atomic.Int64
}

// labelSeries is one series of a family: its label values plus the
// metric (exactly one of c/g/h is set, matching the family's kind).
type labelSeries struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// DefaultMaxSeries bounds the label-set cardinality of one family: high
// enough for a realistic tenant roster times a closed code vocabulary, low
// enough that a tenant-name-per-request bug cannot grow a scrape without
// bound.
const DefaultMaxSeries = 256

// OverflowLabel is the value substituted for the first (high-cardinality)
// label of combinations created past the cardinality cap.
const OverflowLabel = "_other"

func newLabelVec(name, help string, kind metricKind, bounds []float64, labels []string) *labelVec {
	v := &labelVec{name: name, help: help, kind: kind, labels: append([]string(nil), labels...),
		bounds: bounds, max: DefaultMaxSeries, series: map[string]*labelSeries{}}
	if len(labels) == 0 {
		v.one = v.newSeries(nil)
		v.series[""] = v.one
	}
	return v
}

// newSeries builds a series of the family's kind.
func (v *labelVec) newSeries(values []string) *labelSeries {
	s := &labelSeries{values: values}
	switch v.kind {
	case kindCounter:
		s.c = &Counter{}
	case kindGauge:
		s.g = &Gauge{}
	default:
		s.h = NewHistogram(v.bounds)
	}
	return s
}

// seriesKey joins label values into a map key. Values are joined with an
// unlikely separator; label values are escaped only when rendered.
func seriesKey(values []string) string {
	return strings.Join(values, "\x1f")
}

// with returns the series for values, creating it under the cardinality
// policy.
func (v *labelVec) with(values []string) *labelSeries {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: metric %s expects %d label value(s), got %d", v.name, len(v.labels), len(values)))
	}
	if v.one != nil {
		return v.one
	}
	key := seriesKey(values)
	v.mu.RLock()
	s, ok := v.series[key]
	v.mu.RUnlock()
	if ok {
		return s
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if s, ok := v.series[key]; ok {
		return s
	}
	kept := append([]string(nil), values...)
	if len(v.series) >= v.max && kept[0] != OverflowLabel {
		// At capacity: collapse the high-cardinality first label into the
		// overflow series and count the collapse. The overflow series
		// itself is created past the cap (its remaining labels come from
		// closed vocabularies, so the set stays bounded).
		v.overflowed.Add(1)
		kept[0] = OverflowLabel
		if key = seriesKey(kept); v.series[key] != nil {
			return v.series[key]
		}
	}
	s = v.newSeries(kept)
	v.series[key] = s
	return s
}

// sortedSeries snapshots the series in deterministic (sorted-key) order
// for exposition.
func (v *labelVec) sortedSeries() []*labelSeries {
	v.mu.RLock()
	keys := make([]string, 0, len(v.series))
	for k := range v.series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*labelSeries, len(keys))
	for i, k := range keys {
		out[i] = v.series[k]
	}
	v.mu.RUnlock()
	return out
}

// CounterVec is a family of counters keyed by a label vector, e.g.
// lera_server_requests_total{tenant,code}.
type CounterVec labelVec

// With returns the counter for the given label values (in declared label
// order), creating it on first use under the cardinality policy. A nil
// vector returns a nil (no-op) counter.
func (cv *CounterVec) With(values ...string) *Counter {
	if cv == nil {
		return nil
	}
	return (*labelVec)(cv).with(values).c
}

// GaugeVec is a family of gauges keyed by a label vector, e.g.
// lera_build_info{commit,go_version}.
type GaugeVec labelVec

// With returns the gauge for the given label values (nil-safe).
func (gv *GaugeVec) With(values ...string) *Gauge {
	if gv == nil {
		return nil
	}
	return (*labelVec)(gv).with(values).g
}

// HistogramVec is a family of histograms keyed by a label vector, e.g.
// lera_server_request_seconds{tenant}. All series share one bucket
// layout, so the per-label series merge cleanly on the scrape side.
type HistogramVec labelVec

// With returns the histogram for the given label values (nil-safe).
func (hv *HistogramVec) With(values ...string) *Histogram {
	if hv == nil {
		return nil
	}
	return (*labelVec)(hv).with(values).h
}

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format: backslash, double quote and newline.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var sb strings.Builder
	sb.Grow(len(s) + 8)
	for _, r := range s {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// labelString renders a {k="v",...} label set in declared label order,
// values escaped, with le="bound" appended when le is non-empty (the
// histogram bucket form, matching client_golang's rendering). With no
// labels and no le it renders nothing.
func labelString(labels, values []string, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(values[i]))
		sb.WriteByte('"')
	}
	if le != "" {
		if len(labels) > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`le="`)
		sb.WriteString(le)
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}
