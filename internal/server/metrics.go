package server

// Server metrics (the lera_server_* family, docs/OBSERVABILITY.md). They
// live in the same obs.Registry as the session-level lera_* metrics, so
// one /metrics scrape shows the whole stack: admission decisions and tail
// latency next to rewrite and execution counters.

import (
	"time"

	"lera/internal/guard"
	"lera/internal/obs"
)

// metrics bundles the server's registry handles. All underlying types are
// atomic; the bundle is shared freely across connection goroutines.
type metrics struct {
	// requests is the request ledger, labeled {tenant, code}: it is
	// incremented exactly once per answer, in observe, so its growth over
	// a run equals the answers the clients received — what loadgen
	// audits. Tenant cardinality is bounded upstream (Tenants.Resolve
	// collapses unknown tenants to "default") and by the vector's own
	// _other overflow cap.
	requests *obs.CounterVec
	admitted *obs.Counter // passed admission control
	shed     *obs.Counter // refused with OVERLOADED
	degraded *obs.Counter // answered OK from the fallback plan
	panics   *obs.Counter // per-request panic isolation fired
	chaos    *obs.Counter // requests a chaos fault at the request hook failed

	inFlight    *obs.Gauge // queries currently executing
	queued      *obs.Gauge // queries waiting for an execution slot
	connections *obs.Gauge // open HTTP connections, kept by http.Server's ConnState hook
	sessions    *obs.Gauge // pooled sessions (constant after boot)
	drainState  *obs.Gauge // 0 serving, 1 draining

	latency *obs.HistogramVec // request wall-clock seconds by tenant
	encode  *obs.Histogram    // response rendering seconds
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		requests:    reg.CounterVec("lera_server_requests_total", "answers sent, one per request, by tenant and protocol code", "tenant", "code"),
		admitted:    reg.Counter("lera_server_admitted_total", "requests that checked out a pooled session"),
		shed:        reg.Counter("lera_server_shed_total", "requests refused with OVERLOADED at admission"),
		degraded:    reg.Counter("lera_server_degraded_total", "OK answers whose rewrite degraded to the fallback plan"),
		panics:      reg.Counter("lera_server_panics_total", "panics recovered by the per-request isolation"),
		chaos:       reg.Counter("lera_server_chaos_faults_total", "requests failed by a chaos fault at the server.request hook"),
		inFlight:    reg.Gauge("lera_server_in_flight", "pooled sessions checked out, as of the last admission or answer"),
		queued:      reg.Gauge("lera_server_queued", "requests waiting for a pooled session, as of the last answer"),
		connections: reg.Gauge("lera_server_connections", "open client connections"),
		sessions:    reg.Gauge("lera_server_sessions", "pooled sessions"),
		drainState:  reg.Gauge("lera_server_draining", "1 while the server is draining"),
		latency:     reg.HistogramVec("lera_server_request_seconds", "request wall-clock seconds, admission wait included and rendering excluded, by tenant", nil, "tenant"),
		encode:      reg.Histogram("lera_server_encode_seconds", "seconds spent rendering a response's JSON", nil),
	}
}

// observe records one finished request under its tenant.
func (m *metrics) observe(tenant string, c guard.Code, degraded bool, d time.Duration) {
	m.requests.With(tenant, string(c)).Inc()
	m.latency.With(tenant).Observe(d.Seconds())
	if c == guard.CodeOK && degraded {
		m.degraded.Inc()
	}
}
