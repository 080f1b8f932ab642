package server

// Production diagnostics (docs/OBSERVABILITY.md): the structured
// query-log emission and the always-on slow-query ring, both fed from
// handleQuery's deferred epilogue so every request — shed, parse-failed,
// panicked — leaves exactly one event, and any request that was slow,
// degraded or budget-tripped leaves its full QueryReport in the ring.

import (
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"lera/internal/core"
	"lera/internal/obs"
)

// recordDiagnostics runs once per finished request: it decides slow-ring
// capture and, when the query log or the ring will keep it, builds the
// request's one record — the log gets its event, the ring the whole
// entry. res is nil for requests that never executed (shed, parse
// failure, panic); the event then carries only the outcome code and
// elapsed time, keeping the 1:1 events-to-requests invariant.
func (s *Server) recordDiagnostics(t0 time.Time, elapsed time.Duration, tenant, query string, resp Response, res *core.Result) {
	capture := s.slow.ShouldCapture(elapsed, resp.Degraded, resp.Code)
	if s.qlog == nil && !capture {
		return
	}
	var err error
	if resp.Error != "" {
		err = errors.New(resp.Error)
	}
	e := core.NewSlowEntry(t0, tenant, query, resp.Code, elapsed, res, err)
	s.qlog.Record(e.QueryEvent)
	if capture {
		s.slow.Add(e)
	}
}

// metricsHandler wraps the registry's exposition handler with a
// scrape-time refresh of the pull-model diagnostics gauges: query-log
// accounting and slow-ring occupancy are copied into the registry just
// before rendering, so a scrape is always self-consistent.
func (s *Server) metricsHandler(reg *obs.Registry) http.Handler {
	inner := reg.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.syncDiagnosticsMetrics(reg)
		inner.ServeHTTP(w, r)
	})
}

// syncDiagnosticsMetrics copies the query-log and slow-ring accounting
// into the registry (also called before the final drain snapshot).
func (s *Server) syncDiagnosticsMetrics(reg *obs.Registry) {
	s.qlog.SyncMetrics(reg)
	if s.slow != nil {
		reg.Gauge("lera_server_slowlog_captured_total", "queries captured into the slow-query ring").Set(s.slow.Captured())
		reg.Gauge("lera_server_slowlog_evicted_total", "slow-query ring entries overwritten by newer captures").Set(s.slow.Evicted())
		reg.Gauge("lera_server_slowlog_size", "slow-query ring capacity").Set(int64(s.slow.Size()))
	}
}

// slowEntryJSON is the /debug/slowlog wire shape: the entry's query-log
// event fields and query_truncated, plus the rendered EXPLAIN ANALYZE
// report (the structured report tree is an internal type; the rendering
// is what edsql and EXPLAIN ANALYZE print, so operators read one format
// everywhere).
type slowEntryJSON struct {
	core.SlowEntry
	Report string `json:"report,omitempty"`
}

// handleSlowlog serves the slow-query ring, newest first.
func (s *Server) handleSlowlog(w http.ResponseWriter, _ *http.Request) {
	if s.slow == nil {
		writeJSON(w, http.StatusNotFound, map[string]any{"error": "slow-query ring disabled"})
		return
	}
	entries := s.slow.Snapshot()
	out := struct {
		ThresholdNs int64           `json:"threshold_ns"`
		Size        int             `json:"size"`
		Captured    int64           `json:"captured"`
		Evicted     int64           `json:"evicted"`
		Entries     []slowEntryJSON `json:"entries"`
	}{
		ThresholdNs: s.slow.Threshold.Nanoseconds(),
		Size:        s.slow.Size(),
		Captured:    s.slow.Captured(),
		Evicted:     s.slow.Evicted(),
		Entries:     make([]slowEntryJSON, 0, len(entries)),
	}
	for _, e := range entries {
		out.Entries = append(out.Entries, slowEntryJSON{SlowEntry: e, Report: core.FormatSlowEntry(e)})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}
