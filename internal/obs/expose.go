package obs

// Exposition: the registry renders as expvar-style JSON and as Prometheus
// text exposition format (version 0.0.4), and serves both over HTTP.
// Exposition holds only read locks and snapshots histograms, so a scrape
// never blocks the hot path for longer than one bucket copy.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// HistogramSummary is the JSON shape of one histogram.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// summary is the JSON shape of one histogram series.
func summary(h *Histogram) HistogramSummary {
	return HistogramSummary{Count: h.Count(), Sum: h.Sum(),
		P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99)}
}

// familyValue is a family's JSON value: its one series' value when it has
// no labels, else a map from each series' label string to its value.
func familyValue[T any](f *labelVec, series []*labelSeries, value func(*labelSeries) T) any {
	if f.one != nil {
		return value(f.one)
	}
	m := make(map[string]T, len(series))
	for _, s := range series {
		m[labelString(f.labels, s.values, "")] = value(s)
	}
	return m
}

// Snapshot returns the registry as a name->value map: a counter or gauge
// as int64, a histogram as HistogramSummary, and a labeled family as a
// map from each series' label string to that value.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{}
	for _, f := range r.sorted() {
		series := f.sortedSeries()
		switch f.kind {
		case kindCounter:
			out[f.name] = familyValue(f, series, func(s *labelSeries) int64 { return s.c.Value() })
		case kindGauge:
			out[f.name] = familyValue(f, series, func(s *labelSeries) int64 { return s.g.Value() })
		case kindHistogram:
			out[f.name] = familyValue(f, series, func(s *labelSeries) HistogramSummary { return summary(s.h) })
		}
	}
	return out
}

// WriteJSON writes the registry as one sorted-key JSON object, the same
// shape expvar would publish.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// promEscape escapes a help string for the Prometheus text format.
func promEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WritePrometheus writes the registry in Prometheus text exposition
// format: one # TYPE line per family, counters and gauges as one sample
// per series, histograms as cumulative _bucket{...,le=...} series plus
// _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b bytes.Buffer
	for _, f := range r.sorted() {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, promEscape(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.sortedSeries() {
			ls := labelString(f.labels, s.values, "")
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, ls, s.c.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, ls, s.g.Value())
			case kindHistogram:
				bounds, counts, count, sum := s.h.snapshot()
				var cum uint64
				for i, bound := range bounds {
					cum += counts[i]
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.values, formatFloat(bound)), cum)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, labelString(f.labels, s.values, "+Inf"), count)
				fmt.Fprintf(&b, "%s_sum%s %v\n", f.name, ls, sum)
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, ls, count)
			}
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// formatFloat renders a bucket bound the way Prometheus clients expect
// (shortest representation, no exponent for small values).
func formatFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", f), "0"), ".")
}

// Handler serves the registry over HTTP: Prometheus text at the request
// path (conventionally /metrics), expvar-style JSON when the client asks
// with ?format=json or an Accept: application/json header.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		wantJSON := req.URL.Query().Get("format") == "json" ||
			strings.Contains(req.Header.Get("Accept"), "application/json")
		if wantJSON {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			_ = r.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
