// Package server is the multi-tenant network front end over the LERA
// pipeline: an HTTP/JSON API served by net/http, a bounded pool of
// forked core.Sessions over a shared immutable catalog + rule base +
// data snapshot that is also the admission gate (typed shedding, bounded
// queueing, graceful drain: admission.go), per-tenant guard budgets,
// per-request panic isolation, and a deterministic chaos mode
// (guard.Injector) so every overload and fault path is testable rather
// than asserted. See docs/SERVER.md.
//
// The robustness contract: every request receives exactly one typed
// outcome — rows, a degraded-but-correct answer with the degradation
// code, a typed budget/fault error code, or an explicit OVERLOADED /
// DRAINING shed. No hangs, no panics escaping a connection, and rows and
// engine counters for admitted queries are bit-identical to the embedded
// Session path (the pool forks are snapshots of the very same session).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"lera/internal/core"
	"lera/internal/engine"
	"lera/internal/guard"
	"lera/internal/obs"
	"lera/internal/value"
)

// Config configures a Server. The zero value is usable for tests: an
// empty database, default pool and admission bounds, no tenants file, no
// chaos.
type Config struct {
	// InitESQL is executed on the boot session before forking the pool:
	// DDL, views and INSERTs that define the served snapshot.
	InitESQL string
	// LoadFilms loads the paper's Figure 2-5 example database (schema,
	// views, sample rows and objects), like edsql's \films.
	LoadFilms bool
	// Rules is extra rule-language source merged into the rule base
	// (core.WithRules).
	Rules string
	// MaxInFlight is the session-pool size, and so the bound on
	// concurrently executing queries. Default 8.
	MaxInFlight int
	// MaxQueue bounds queries waiting for a pooled session; beyond it,
	// requests shed with OVERLOADED. Default (0) is 2*MaxInFlight;
	// negative means no queue at all — shed the moment every session is
	// busy.
	MaxQueue int
	// DrainTimeout bounds the graceful-drain wait for in-flight work;
	// after it, in-flight contexts are cancelled and the server waits
	// DrainGrace for the cancellations to land. Default 10s.
	DrainTimeout time.Duration
	// DrainGrace bounds the post-cancel wait. Default 2s.
	DrainGrace time.Duration
	// Parallelism is each pooled session's intra-query worker pool size
	// (0 = GOMAXPROCS, 1 = serial).
	Parallelism int
	// PlanCache, when > 0, arms a plan cache of that many entries,
	// shared read-mostly by every pooled session (core.WithPlanCache;
	// docs/PLANCACHE.md). Repeated query shapes then skip the rewriter,
	// observable as lera_plancache_* metrics.
	PlanCache int
	// PlanCacheValidation re-validates every n'th cache hit against a
	// cold rewrite (core.WithPlanCacheValidation). 0 = off.
	PlanCacheValidation int
	// MaxMemBytes is the server-wide per-operator memory grant, applied to
	// any tenant whose own maxMemBytes is unset (0 = ungoverned). Governed
	// operators that outgrow the grant spill to SpillDir, or fail with
	// MEM_BUDGET when no spill directory is configured
	// (docs/GUARDRAILS.md).
	MaxMemBytes int64
	// SpillDir is where governed operators spill partitions; ""
	// disables spilling (over-grant operators then fail with MEM_BUDGET).
	// Spill files live in a per-query subdirectory and are removed when
	// the query finishes, including on error, cancel and drain.
	SpillDir string
	// Tenants maps tenant names to guard budgets (see tenant.go). Nil
	// serves every request under unlimited default limits.
	Tenants Tenants
	// Chaos is the armed fault schedule (see chaos.go). Empty = off: the
	// server then holds no fault injector at all.
	Chaos []ChaosFault
	// Observer, when non-nil, supplies the metrics registry; default a
	// fresh observer (metrics only, no tracing).
	Observer *obs.Observer
	// ErrorLog, when non-nil, receives one line per isolated panic and
	// drain-phase event.
	ErrorLog io.Writer

	// QueryLog, when non-nil, receives one wide structured event per
	// finished request — shed, failed and panicked requests included, so
	// events are 1:1 with the request ledger (docs/OBSERVABILITY.md
	// "Structured query log"). The server closes it on Drain.
	QueryLog *obs.QueryLog

	// SlowLogSize is the slow-query ring capacity. 0 takes the default
	// (DefaultSlowLogSize); negative disables the ring.
	SlowLogSize int
	// SlowThreshold is the ring's capture latency bound
	// (0 = core.DefaultSlowThreshold). Degraded and non-OK queries are
	// captured regardless of latency.
	SlowThreshold time.Duration
}

// DefaultSlowLogSize is the slow-query ring capacity unless configured.
const DefaultSlowLogSize = 64

// Response is the JSON answer to one query, whether it came as POST or
// GET: Code is always set; OK responses carry columns
// and rows (plus the degradation record when the rewriter fell back);
// every failure carries the typed code and message. Rows are rendered
// values (value.Value.String), bit-identical to what FormatResult prints
// for the embedded session.
//
// On the wire a Response is exactly what encoding/json's Encoder.Encode
// writes for it, but the server never builds Rows or calls encoding/json:
// it writes the bytes straight from the result's values (response.go).
// Rows is the form a client decodes the answer into.
type Response struct {
	Code    string     `json:"code"`
	Error   string     `json:"error,omitempty"`
	Tenant  string     `json:"tenant,omitempty"`
	RowsN   int        `json:"rowCount"`
	Columns []string   `json:"columns,omitempty"`
	Rows    [][]string `json:"rows,omitempty"`

	Degraded       bool   `json:"degraded,omitempty"`
	DegradedCode   string `json:"degradedCode,omitempty"`
	DegradedReason string `json:"degradedReason,omitempty"`

	// Counters is the engine work-counter delta of this query alone —
	// the bit-identity witness against the embedded session.
	Counters *engine.Counters `json:"counters,omitempty"`
	// ElapsedNs is the server-side wall clock for the whole request,
	// admission wait included and rendering the response excluded.
	ElapsedNs int64 `json:"elapsedNs"`

	// result is what the server renders as "rows": the query's own result
	// rows. They outlive the session's return to the pool, since the
	// engine allocates every result row afresh and never reuses its
	// blocks (TestRenderedRowsOutliveSession).
	result [][]value.Value
}

// Server is one running instance. Build with New, run with Serve (or
// ListenAndServe), stop with Drain.
type Server struct {
	cfg  Config
	obs  *obs.Observer
	m    *metrics
	inj  *guard.Injector
	qlog *obs.QueryLog
	slow *core.SlowLog

	base *core.Session
	// pool holds the forked sessions queries run on; checking one out is
	// admission (admission.go).
	pool *pool
	// encoders holds idle response encoders (response.go). It is sized to
	// the pool: that many answers are rendered at once under full load;
	// beyond it an encoder is made for one response and dropped.
	encoders chan *encoder

	baseCtx context.Context
	cancel  context.CancelFunc

	httpSrv *http.Server

	mu        sync.Mutex
	ln        net.Listener
	draining  bool
	drained   chan struct{}
	drainErr  error
	drainOnce sync.Once
}

// New boots a server: builds the base session, executes the init ESQL,
// loads the example database if asked, and forks the session pool. Any
// init failure is returned here — a server that starts is a server whose
// snapshot and rule base are known-good.
func New(cfg Config) (*Server, error) {
	// An injector exists only where something can fire: with chaos off
	// no session carries one, and execution runs the compiled comparisons
	// without a lock every pooled session would share.
	var inj *guard.Injector
	if len(cfg.Chaos) > 0 {
		inj = guard.NewInjector()
	}
	return newServer(cfg, inj)
}

// newServer is New with the fault injector given: the pooled sessions
// share inj (nil: none), and cfg.Chaos is armed on it. Tests pass one to
// arm faults after construction.
func newServer(cfg Config, inj *guard.Injector) (*Server, error) {
	if err := errors.Join(
		cfg.Tenants.Validate(),
		guard.NonNegative("", "MaxMemBytes", cfg.MaxMemBytes),
		guard.NonNegative("", "Parallelism", int64(cfg.Parallelism)),
	); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 8
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 2 * cfg.MaxInFlight
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 2 * time.Second
	}
	Arm(inj, cfg.Chaos)

	ob := cfg.Observer
	if ob == nil {
		ob = obs.NewObserver()
	}

	var opts []core.Option
	if cfg.Rules != "" {
		opts = append(opts, core.WithRules(cfg.Rules))
	}
	if inj != nil {
		opts = append(opts, core.WithInjector(inj))
	}
	if cfg.PlanCache > 0 {
		opts = append(opts, core.WithPlanCache(cfg.PlanCache))
		if cfg.PlanCacheValidation > 0 {
			opts = append(opts, core.WithPlanCacheValidation(cfg.PlanCacheValidation))
		}
	}
	base := core.NewSession(opts...)
	base.Obs = ob
	base.Parallelism = cfg.Parallelism
	base.SpillDir = cfg.SpillDir
	if cfg.LoadFilms {
		if err := base.LoadFilms(); err != nil {
			return nil, fmt.Errorf("server: loading example database: %w", err)
		}
	}
	if cfg.InitESQL != "" {
		if _, err := base.Exec(cfg.InitESQL); err != nil {
			return nil, fmt.Errorf("server: init script: %w", err)
		}
	}

	slowSize := cfg.SlowLogSize
	if slowSize == 0 {
		slowSize = DefaultSlowLogSize
	}
	s := &Server{
		cfg:      cfg,
		obs:      ob,
		m:        newMetrics(ob.Metrics),
		inj:      inj,
		qlog:     cfg.QueryLog,
		slow:     core.NewSlowLog(slowSize, cfg.SlowThreshold),
		base:     base,
		pool:     newPool(cfg.MaxInFlight, cfg.MaxQueue),
		encoders: make(chan *encoder, cfg.MaxInFlight),
		drained:  make(chan struct{}),
	}
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	// The slow-query ring needs the full EXPLAIN ANALYZE operator tree for
	// any query it captures — and capture is decided after the fact, so
	// collection is on for every session forked from base: the pool here
	// and the replacements in handleQuery.
	base.DB.CollectStats = s.slow != nil
	// The first Fork compiles base's rule base (a broken one fails the
	// boot here); every fork, and every replacement later, shares that one
	// immutable *core.Rewriter.
	for i := 0; i < cfg.MaxInFlight; i++ {
		fork, err := base.Fork()
		if err != nil {
			return nil, fmt.Errorf("server: forking session pool: %w", err)
		}
		s.pool.checkin(fork)
	}
	s.m.sessions.Set(int64(cfg.MaxInFlight))

	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleHTTPQuery)
	mux.Handle("/metrics", s.metricsHandler(ob.Metrics))
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/debug/slowlog", s.handleSlowlog)
	s.httpSrv = &http.Server{
		Handler:     mux,
		BaseContext: func(net.Listener) context.Context { return s.baseCtx },
		// A connection that sends no request header within this bound is
		// closed, so an idle dialer cannot hold a connection open forever.
		ReadHeaderTimeout: 30 * time.Second,
		// net/http reports every connection New exactly once and then
		// Closed or Hijacked exactly once, so the gauge counts open ones.
		ConnState: func(_ net.Conn, st http.ConnState) {
			switch st {
			case http.StateNew:
				s.m.connections.Add(1)
			case http.StateClosed, http.StateHijacked:
				s.m.connections.Add(-1)
			}
		},
	}
	return s, nil
}

// Metrics returns the server's metrics registry.
func (s *Server) Metrics() *obs.Registry { return s.obs.Metrics }

// ListenAndServe listens on addr and serves until Drain completes or the
// listener fails.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve serves HTTP on ln. It blocks until Drain finishes, returning the
// drain result, or until the listener fails, returning that error.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	err := s.httpSrv.Serve(ln)
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if !draining {
		return err
	}
	<-s.drained
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drainErr
}

// handleQuery is the request path behind POST and GET /query: chaos
// hook, admission (a session checkout), guarded execution, typed response.
// It never panics — a panic anywhere inside is isolated per request,
// counted, and answered as INTERNAL.
func (s *Server) handleQuery(ctx context.Context, tenant, query string) (resp Response) {
	t0 := time.Now()
	tenantName, limits := s.cfg.Tenants.Resolve(tenant)
	if limits.MaxMemBytes == 0 {
		// The server-wide grant backstops tenants that set none; a tenant
		// entry with its own maxMemBytes overrides it either way.
		limits.MaxMemBytes = s.cfg.MaxMemBytes
	}
	resp.Tenant = tenantName

	// res outlives the execution closure so the deferred diagnostics —
	// the query-log event and the slow-query capture — can read the
	// report, cache outcome and budget of the finished query.
	var res *core.Result

	defer func() {
		if p := recover(); p != nil {
			s.m.panics.Inc()
			s.logf("panic isolated in request (tenant %s): %v", tenantName, p)
			resp = Response{Code: string(guard.CodeInternal), Tenant: tenantName,
				Error: fmt.Sprintf("internal panic (isolated): %v", p)}
		}
		s.account(t0, tenantName, query, &resp, res)
	}()

	// Chaos hook: deterministic latency/error/panic injection at the
	// request level, before admission (a stalled request holds no
	// session, like a slow client).
	if err := s.inj.Hit(ctx, RequestHook); err != nil {
		s.m.chaos.Inc()
		return s.errResponse(tenantName, err)
	}

	sess, err := s.pool.checkout(ctx)
	if err != nil {
		if errors.Is(err, guard.ErrOverloaded) {
			s.m.shed.Inc()
		}
		return s.errResponse(tenantName, err)
	}
	s.m.admitted.Inc()
	s.m.inFlight.Set(int64(s.pool.inFlight()))
	healthy := true
	defer func() {
		if !healthy {
			// The session panicked mid-query; its internal state is
			// suspect. Replace it with a fresh fork of the immutable
			// boot snapshot so the pool never shrinks. The fork reads
			// base (its compiled rule base included) and writes nothing
			// of it, so concurrent replacements need no lock.
			fork, ferr := s.base.Fork()
			if ferr != nil {
				s.logf("session replacement failed, recycling suspect session: %v", ferr)
				fork = sess
			}
			sess = fork
		}
		s.pool.checkin(sess)
	}()

	err = func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				healthy = false
				s.m.panics.Inc()
				s.logf("panic isolated in query (tenant %s): %v", tenantName, p)
				err = fmt.Errorf("internal panic (isolated): %v", p)
			}
		}()
		// Inside the isolation: the limits live on the session's DB, so a
		// session broken badly enough to panic here is replaced, not pooled.
		sess.Limits = limits
		res, err = sess.QueryCtx(ctx, query)
		return err
	}()
	if err != nil {
		return s.errResponse(tenantName, err)
	}

	resp.Code = string(guard.CodeOK)
	resp.result = res.Rows
	resp.RowsN = len(res.Rows)
	resp.Columns = res.Columns
	if st := res.RewriteStats(); st.Degraded {
		resp.Degraded = true
		resp.DegradedCode = st.DegradationCode
		resp.DegradedReason = st.DegradationReason
	}
	if res.Report != nil {
		c := res.Report.ExecCounters
		resp.Counters = &c
	}
	return resp
}

// account closes the books on one answered request: its elapsed time,
// the request ledger (lera_server_requests_total and
// lera_server_request_seconds, ticked here once per answer), the
// admission gauges, the query log and the slow-query ring.
func (s *Server) account(t0 time.Time, tenant, query string, resp *Response, res *core.Result) {
	elapsed := time.Since(t0)
	resp.ElapsedNs = elapsed.Nanoseconds()
	s.m.observe(tenant, guard.Code(resp.Code), resp.Degraded, elapsed)
	s.m.inFlight.Set(int64(s.pool.inFlight()))
	s.m.queued.Set(int64(s.pool.queuedCallers()))
	s.recordDiagnostics(t0, elapsed, tenant, query, *resp, res)
}

// errResponse builds the typed failure response for an error.
func (s *Server) errResponse(tenant string, err error) Response {
	return Response{Code: string(guard.CodeOf(err)), Tenant: tenant, Error: err.Error()}
}

// handleHTTPQuery serves POST /query {"tenant": "...", "query": "..."}
// (or GET /query?q=...&tenant=...) with a Response body and the HTTP
// status mapped from the code.
func (s *Server) handleHTTPQuery(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	var tenant, query string
	// reject answers a request that never reaches handleQuery with PARSE,
	// and accounts for it like any other answer: under the tenant the
	// request named if its body decoded, else the default tenant.
	reject := func(status int, msg string) {
		tenantName, _ := s.cfg.Tenants.Resolve(tenant)
		resp := Response{Code: string(guard.CodeParse), Tenant: tenantName, Error: msg}
		s.account(t0, tenantName, query, &resp, nil)
		s.writeResponse(w, status, &resp)
	}
	switch r.Method {
	case http.MethodPost:
		var req struct {
			Tenant string `json:"tenant"`
			Query  string `json:"query"`
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			reject(http.StatusBadRequest, fmt.Sprintf("request body exceeds the %d-byte limit", tooLarge.Limit))
			return
		}
		if err == nil {
			err = json.Unmarshal(body, &req)
		}
		if err != nil {
			reject(http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
		tenant, query = req.Tenant, req.Query
	case http.MethodGet:
		tenant, query = r.URL.Query().Get("tenant"), r.URL.Query().Get("q")
	default:
		reject(http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	if strings.TrimSpace(query) == "" {
		reject(http.StatusBadRequest, "empty query")
		return
	}
	resp := s.handleQuery(r.Context(), tenant, query)
	s.writeResponse(w, httpStatus(guard.Code(resp.Code)), &resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	status := http.StatusOK
	state := "ok"
	if draining {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, map[string]any{"status": state, "inFlight": s.pool.inFlight(), "queued": s.pool.queuedCallers()})
}

// httpStatus maps protocol codes onto HTTP statuses. Degraded answers are
// 200: the client got correct rows; the degradation is in the body.
func httpStatus(c guard.Code) int {
	switch c {
	case guard.CodeOK:
		return http.StatusOK
	case guard.CodeParse, guard.CodeInvalid:
		return http.StatusBadRequest
	case guard.CodeOverloaded:
		return http.StatusTooManyRequests
	case guard.CodeDraining:
		return http.StatusServiceUnavailable
	case guard.CodeDeadline:
		return http.StatusGatewayTimeout
	case guard.CodeCanceled:
		return http.StatusRequestTimeout
	case guard.CodeStepBudget, guard.CodeTermSize, guard.CodeRowBudget, guard.CodeMemBudget:
		return http.StatusUnprocessableEntity
	default: // INJECTED, EXTERNAL_*, INTERNAL
		return http.StatusInternalServerError
	}
}

// writeJSON answers the endpoints that are not queries (/healthz, a
// disabled /debug/slowlog); query responses go through writeResponse.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// Drain gracefully shuts the server down: stop accepting connections,
// refuse new queries with DRAINING, wait DrainTimeout for in-flight work,
// cancel what remains and wait DrainGrace for the cancellations to land,
// then close surviving connections and flush a final metrics snapshot to
// ErrorLog. Idempotent; concurrent callers share one drain. The returned
// error is nil on a clean drain and the typed deadline error when
// in-flight work had to be cancelled or outlived the grace period.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() { s.drain(ctx) })
	<-s.drained
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drainErr
}

func (s *Server) drain(ctx context.Context) {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	s.m.drainState.Set(1)
	if ln != nil {
		// Stop accepting, but leave open connections to http.Server until
		// Shutdown below: a keep-alive client still gets DRAINING answers.
		_ = ln.Close()
	}

	dctx, cancel := context.WithTimeout(ctx, s.cfg.DrainTimeout)
	defer cancel()
	err := s.pool.drain(dctx)
	if err != nil {
		// In-flight work outlived the deadline: cancel it and give the
		// cancellations a bounded grace period to unwind.
		s.logf("drain deadline after %v with %d in flight; cancelling", s.cfg.DrainTimeout, s.pool.inFlight())
		s.cancel()
		gctx, gcancel := context.WithTimeout(context.Background(), s.cfg.DrainGrace)
		if gerr := s.pool.drain(gctx); gerr == nil {
			err = fmt.Errorf("%w (in-flight work cancelled at drain deadline)", guard.ErrDeadline)
		} else {
			err = fmt.Errorf("%w (work still stuck after cancel+grace)", guard.ErrDeadline)
		}
		gcancel()
	}
	s.cancel() // idle pool sessions need no context beyond this point

	// Close idle connections, give busy ones a second to finish writing
	// their answers, then close whatever is still open.
	sctx, scancel := context.WithTimeout(context.Background(), time.Second)
	_ = s.httpSrv.Shutdown(sctx)
	scancel()
	_ = s.httpSrv.Close()
	s.m.drainState.Set(0)

	// Flush and close the query log first so its final accounting lands
	// in the snapshot below (events already offered are drained to the
	// sink; late stragglers count as drops, never disappear).
	if s.qlog != nil {
		if qerr := s.qlog.Close(); qerr != nil {
			s.logf("query log close: %v", qerr)
		}
	}

	// Flush the final metrics snapshot so a supervised process leaves a
	// complete account even though /metrics just went away.
	if s.cfg.ErrorLog != nil {
		s.syncDiagnosticsMetrics(s.obs.Metrics)
		fmt.Fprintln(s.cfg.ErrorLog, "# final metrics snapshot")
		_ = s.obs.Metrics.WritePrometheus(s.cfg.ErrorLog)
	}
	s.mu.Lock()
	s.drainErr = err
	s.mu.Unlock()
	close(s.drained)
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.ErrorLog != nil {
		fmt.Fprintf(s.cfg.ErrorLog, "leraserver: "+format+"\n", args...)
	}
}
