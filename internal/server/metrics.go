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
	requests    *obs.CounterVec
	admitted    *obs.Counter // passed admission control
	shed        *obs.Counter // refused with OVERLOADED
	drainReject *obs.Counter // refused with DRAINING
	degraded    *obs.Counter // answered OK from the fallback plan
	panics      *obs.Counter // per-request panic isolation fired
	chaos       *obs.Counter // chaos faults that fired at the request hook

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
		requests:    reg.CounterVec("lera_server_requests_total", "queries finished, by tenant and protocol code", "tenant", "code"),
		admitted:    reg.Counter("lera_server_admitted_total", "queries that passed admission control"),
		shed:        reg.Counter("lera_server_shed_total", "queries shed with OVERLOADED at admission"),
		drainReject: reg.Counter("lera_server_draining_rejected_total", "queries refused with DRAINING"),
		degraded:    reg.Counter("lera_server_degraded_total", "queries answered from the rewrite fallback plan"),
		panics:      reg.Counter("lera_server_panics_total", "request panics isolated by the per-request recover"),
		chaos:       reg.Counter("lera_server_chaos_faults_total", "chaos faults fired at the server.request hook"),
		inFlight:    reg.Gauge("lera_server_in_flight", "queries currently executing"),
		queued:      reg.Gauge("lera_server_queued", "queries waiting for an execution slot"),
		connections: reg.Gauge("lera_server_connections", "open client connections"),
		sessions:    reg.Gauge("lera_server_sessions", "pooled sessions"),
		drainState:  reg.Gauge("lera_server_draining", "1 while the server is draining"),
		latency:     reg.HistogramVec("lera_server_request_seconds", "request wall-clock latency in seconds, by tenant", nil, "tenant"),
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
