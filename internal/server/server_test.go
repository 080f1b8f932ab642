package server

// Server behavior under normal load: bit-identity with the embedded
// session, HTTP as the one protocol, the connections gauge, typed
// shedding, per-tenant budgets, typed parse errors, and a clean /metrics
// scrape.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"
	"time"

	"lera/internal/core"
	"lera/internal/guard"
	"lera/internal/obs"
	"lera/internal/value"
)

const filmQuery = "SELECT Title FROM FILM WHERE Numf > 0"

// startServer boots New(cfg) on a loopback port and returns it plus its
// base URL. The server drains on test cleanup.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	return startWith(t, cfg, New)
}

// startArmed is startServer for a server holding a fault injector, which
// the test arms after construction through srv.inj.
func startArmed(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	return startWith(t, cfg, func(cfg Config) (*Server, error) { return newServer(cfg, guard.NewInjector()) })
}

func startWith(t *testing.T, cfg Config, build func(Config) (*Server, error)) (*Server, string) {
	t.Helper()
	cfg.LoadFilms = true
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	srv, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("Serve did not return after Drain")
		}
	})
	return srv, "http://" + ln.Addr().String()
}

// TestServerBitIdenticalToEmbedded: the served rows and engine counters
// for an admitted query match an embedded session over the same snapshot
// exactly — with chaos off, and on a server whose injector is armed on a
// call that never comes (it runs the same compiled comparisons, hitting
// the injector on each).
func TestServerBitIdenticalToEmbedded(t *testing.T) {
	embedded := core.NewSession()
	embedded.Obs = obs.NewObserver()
	if err := embedded.LoadFilms(); err != nil {
		t.Fatal(err)
	}
	want, err := embedded.Query(filmQuery)
	if err != nil {
		t.Fatal(err)
	}

	for _, leg := range []struct {
		name  string
		start func(*testing.T, Config) (*Server, string)
	}{{"chaos off", startServer}, {"armed, never firing", startArmed}} {
		srv, base := leg.start(t, Config{})
		if srv.inj != nil {
			srv.inj.Set(">", guard.Fault{OnCall: math.MaxInt32, Mode: guard.FaultError})
		}
		out := NewClient(base).Query(context.Background(), filmQuery)
		if out.Code != guard.CodeOK {
			t.Fatalf("%s: code = %s (%v)", leg.name, out.Code, out.Err)
		}
		resp := out.Resp
		if resp.RowsN != len(want.Rows) {
			t.Fatalf("%s: rows = %d, want %d", leg.name, resp.RowsN, len(want.Rows))
		}
		if strings.Join(resp.Columns, ",") != strings.Join(want.Columns, ",") {
			t.Fatalf("%s: columns = %v, want %v", leg.name, resp.Columns, want.Columns)
		}
		for i, row := range resp.Rows {
			for j, v := range row {
				if v != want.Rows[i][j].String() {
					t.Fatalf("%s: row %d col %d = %q, want %q", leg.name, i, j, v, want.Rows[i][j].String())
				}
			}
		}
		if resp.Counters == nil {
			t.Fatalf("%s: response carries no engine counters", leg.name)
		}
		if *resp.Counters != want.Report.ExecCounters {
			t.Errorf("%s: served counters %+v differ from embedded %+v", leg.name, *resp.Counters, want.Report.ExecCounters)
		}
		if srv.inj != nil && srv.inj.Calls(">") == 0 {
			t.Errorf("%s: the server's comparisons never hit its injector", leg.name)
		}
	}
}

// TestServedPointQueryAllocs: a served point query over FILM at 2 000 rows,
// a plan-cache hit, allocates per request, not per scanned row, and plans
// nothing: the plan cache serves the text it has learned, so the request
// is not parsed, translated, templatized or typed. With chaos off
// no injector exists, so the comparison runs the compiled kernel; when
// every server carried an injector it ran the generic evaluator, which
// allocates at least once per row (measured 2 130 objects a request then).
// Planning each hit again cost 108 objects a request; served from its
// text the point query measures 31 and a two-literal range 36.
func TestServedPointQueryAllocs(t *testing.T) {
	const films, limit = 2000, 60
	srv := filmServer(t, films)
	ctx := context.Background()
	for _, c := range []struct {
		name       string
		warm, text string
		rows       int
	}{
		{"point query", "SELECT Title FROM FILM WHERE Numf = 999", "SELECT Title FROM FILM WHERE Numf = 1000", 1},
		{"range query", "SELECT Title FROM FILM WHERE Numf > 990 AND Numf < 996", "SELECT Title FROM FILM WHERE Numf > 1000 AND Numf < 1004", 3},
	} {
		// The first text stores the template; the second hits it on the
		// term path and is learned.
		for _, text := range []string{c.warm, c.text} {
			if resp := srv.handleQuery(ctx, "", text); resp.Code != string(guard.CodeOK) {
				t.Fatalf("%s warm-up: %+v", c.name, resp)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if resp := srv.handleQuery(ctx, "", c.text); resp.Code != string(guard.CodeOK) || resp.RowsN != c.rows || resp.Counters.Scanned != films {
				t.Fatalf("%s: %+v", c.name, resp)
			}
		})
		t.Logf("served %s over %d rows: %.0f objects a request", c.name, films, allocs)
		if allocs > limit {
			t.Errorf("served %s allocates %.0f objects a request over %d rows — planning the hit again, or per row? limit %d", c.name, allocs, films, limit)
		}
	}
}

// filmServer boots an unlistened server over FILM(Numf, Title,
// Categories) with films rows numbered 1..films: one pooled session,
// serial execution, a plan cache.
func filmServer(t *testing.T, films int) *Server {
	t.Helper()
	var sb strings.Builder
	sb.WriteString(`TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction', 'Western');
TYPE SetCategory SET OF Category;
TABLE FILM (Numf : NUMERIC, Title : CHAR, Categories : SetCategory);
INSERT INTO FILM VALUES`)
	for i := 1; i <= films; i++ {
		if i > 1 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, " (%d, 'film-%d', SET('Western'))", i, i)
	}
	sb.WriteString(";\n")
	srv, err := New(Config{InitESQL: sb.String(), MaxInFlight: 1, Parallelism: 1, PlanCache: 16})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// rawRequest writes one HTTP/1.1 request by hand on conn, keeping the
// connection alive, and reads the response.
func rawRequest(t *testing.T, conn net.Conn, br *bufio.Reader, target string) *http.Response {
	t.Helper()
	if _, err := fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: lera\r\n\r\n", target); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("GET %s: %v", target, err)
	}
	return resp
}

// TestNonHTTPBytesGetBadRequest: the server speaks HTTP only. What used
// to be a line-protocol verb is a malformed request line, answered with
// net/http's 400 and never with "pong".
func TestNonHTTPBytesGetBadRequest(t *testing.T) {
	_, base := startServer(t, Config{})
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(conn, "ping\n"); err != nil {
		t.Fatal(err)
	}
	answer, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("reading the answer: %v", err)
	}
	if !strings.HasPrefix(string(answer), "HTTP/1.1 400 ") || strings.Contains(string(answer), "pong") {
		t.Fatalf("ping answered %q, want net/http's 400", answer)
	}
}

// TestConnectionsGauge: lera_server_connections counts open connections.
// k connections that each completed a keep-alive request read k; once the
// clients close them, it reads 0 — however their close notifications
// interleave.
func TestConnectionsGauge(t *testing.T) {
	srv, base := startServer(t, Config{})
	gauge := srv.Metrics().Gauge("lera_server_connections", "")
	const k = 16
	conns := make([]net.Conn, k)
	for i := range conns {
		conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		resp := rawRequest(t, conn, bufio.NewReader(conn), "/healthz")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz on connection %d: %d", i, resp.StatusCode)
		}
		conns[i] = conn
	}
	if n := gauge.Value(); n != k {
		t.Fatalf("with %d connections open the gauge reads %d", k, n)
	}
	for _, conn := range conns {
		go conn.Close()
	}
	waitFor(t, func() bool { return gauge.Value() == 0 }, "the gauge never returned to 0 after every connection closed")
}

// TestServerShedsWhenOverloaded: with one execution slot and no queue, a
// stalled in-flight query makes concurrent arrivals shed with OVERLOADED
// (HTTP 429) — typed, immediate, no hang.
func TestServerShedsWhenOverloaded(t *testing.T) {
	srv, base := startArmed(t, Config{MaxInFlight: 1, MaxQueue: -1})
	// Every COUNT ADT call stalls; the query below hits it once per film
	// row, so the request holds its execution slot for ~1.2s.
	srv.inj.Set("COUNT", guard.Fault{Mode: guard.FaultStall, Stall: 300 * time.Millisecond})

	slow := make(chan Outcome, 1)
	go func() {
		c := NewClient(base)
		c.Retry.MaxAttempts = 1
		slow <- c.Query(context.Background(), "SELECT Title FROM FILM WHERE COUNT(Categories) > 0")
	}()

	// Wait until the slow query holds the slot.
	deadline := time.Now().Add(5 * time.Second)
	for srv.pool.inFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow query never entered execution")
		}
		time.Sleep(time.Millisecond)
	}

	c := NewClient(base)
	c.Retry.MaxAttempts = 1 // observe the shed itself
	out := c.Query(context.Background(), filmQuery)
	if out.Code != guard.CodeOverloaded {
		t.Fatalf("code = %s, want OVERLOADED (%+v)", out.Code, out.Resp)
	}
	if s := <-slow; s.Code != guard.CodeOK {
		t.Fatalf("slow query code = %s", s.Code)
	}
	if n := srv.Metrics().Counter("lera_server_shed_total", "").Value(); n == 0 {
		t.Error("shed counter never incremented")
	}

	// With retries enabled the same overload resolves once the slot
	// frees: the client's backoff absorbs it.
	srv.inj.Set("COUNT", guard.Fault{}) // the zero mode: a counted no-op
	c2 := NewClient(base)
	out = c2.Query(context.Background(), filmQuery)
	if out.Code != guard.CodeOK {
		t.Fatalf("post-overload query code = %s", out.Code)
	}
}

// TestServerTenantBudgets: a tenant's guard budget applies per request
// and surfaces as the typed code with its HTTP status; unknown tenants
// fall back to default limits and say so.
func TestServerTenantBudgets(t *testing.T) {
	_, base := startServer(t, Config{
		Tenants: Tenants{
			"default": {},
			"tiny":    {MaxRows: 1},
		},
	})

	c := NewClient(base)
	c.Tenant = "tiny"
	out := c.Query(context.Background(), filmQuery)
	if out.Code != guard.CodeRowBudget {
		t.Fatalf("tiny tenant code = %s, want ROW_BUDGET (%+v)", out.Code, out.Resp)
	}

	// Same query, unknown tenant: served under default (unlimited).
	c.Tenant = "nobody"
	out = c.Query(context.Background(), filmQuery)
	if out.Code != guard.CodeOK {
		t.Fatalf("unknown tenant code = %s", out.Code)
	}
	if out.Resp.Tenant != DefaultTenant {
		t.Fatalf("unknown tenant resolved to %q, want %q", out.Resp.Tenant, DefaultTenant)
	}
}

// TestServerMemBudget: a tenant memory grant with no spill directory
// fails typed (MEM_BUDGET, 422); the same grant with a spill directory
// is answered correctly out of core, rows identical to an ungoverned
// request, spill activity visible on /metrics, and no spill files left
// behind once the queries are done.
func TestServerMemBudget(t *testing.T) {
	// A duplicate-free answer admits no dedup set and so needs no memory;
	// Categories, a set column, holds no distinct fact, so this query's
	// answer goes through the governed dedup pass.
	const dupQuery = "SELECT Categories FROM FILM WHERE Numf > 0"
	spill := t.TempDir()
	_, base := startServer(t, Config{
		SpillDir: spill,
		Tenants: Tenants{
			"default": {},
			"mem":     {MaxMemBytes: 1},
		},
	})

	c := NewClient(base)
	want := c.Query(context.Background(), dupQuery)
	if want.Code != guard.CodeOK {
		t.Fatalf("ungoverned query code = %s", want.Code)
	}

	c.Tenant = "mem"
	out := c.Query(context.Background(), dupQuery)
	if out.Code != guard.CodeOK {
		t.Fatalf("governed query code = %s (%v)", out.Code, out.Err)
	}
	if fmt.Sprint(out.Resp.Rows) != fmt.Sprint(want.Resp.Rows) {
		t.Errorf("spilled rows differ from ungoverned rows:\n%v\n%v", out.Resp.Rows, want.Resp.Rows)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "lera_engine_spill_partitions_total") {
		t.Error("/metrics missing lera_engine_spill_partitions_total after a spilled query")
	}

	// Per-query spill subdirectories are removed when the query finishes.
	ents, err := os.ReadDir(spill)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("spill dir not empty after queries: %v", ents)
	}

	// The same grant with spilling disabled fails typed.
	_, base2 := startServer(t, Config{
		Tenants: Tenants{"mem": {MaxMemBytes: 1}},
	})
	c2 := NewClient(base2)
	c2.Tenant = "mem"
	out = c2.Query(context.Background(), dupQuery)
	if out.Code != guard.CodeMemBudget {
		t.Fatalf("no-spill governed query code = %s, want MEM_BUDGET (%+v)", out.Code, out.Resp)
	}
	body2, _ := json.Marshal(map[string]string{"tenant": "mem", "query": dupQuery})
	hresp, err := http.Post(base2+"/query", "application/json", strings.NewReader(string(body2)))
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("MEM_BUDGET status = %d, want 422", hresp.StatusCode)
	}
}

// TestServerHTTPStatuses: the code→status mapping on the wire.
func TestServerHTTPStatuses(t *testing.T) {
	_, base := startServer(t, Config{Tenants: Tenants{"tiny": {MaxRows: 1}}})

	post := func(tenant, query string) (int, Response) {
		t.Helper()
		body, _ := json.Marshal(map[string]string{"tenant": tenant, "query": query})
		resp, err := http.Post(base+"/query", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var r Response
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, r
	}

	if st, r := post("", filmQuery); st != http.StatusOK || r.Code != "OK" {
		t.Errorf("ok query: %d %s", st, r.Code)
	}
	if st, r := post("", "garbage"); st != http.StatusBadRequest || r.Code != "PARSE" {
		t.Errorf("parse error: %d %s", st, r.Code)
	}
	if st, r := post("tiny", filmQuery); st != http.StatusUnprocessableEntity || r.Code != "ROW_BUDGET" {
		t.Errorf("row budget: %d %s", st, r.Code)
	}
}

// FuzzHTTPQuery: whatever bytes arrive as a POST /query body or as the q
// of GET /query, the server's own mux answers with a Response that
// decodes, carries a code of the guard vocabulary, and has that code's
// HTTP status; the answer grows the request ledger by exactly one; and no
// request panics, not even into the per-request recover. The tenant's short timeout bounds what a generated recursive
// query can cost. Seeds in testdata/fuzz/FuzzHTTPQuery.
func FuzzHTTPQuery(f *testing.F) {
	srv, err := New(Config{LoadFilms: true, MaxInFlight: 1, Parallelism: 1,
		Tenants: Tenants{DefaultTenant: {TimeoutMs: 50}}})
	if err != nil {
		f.Fatal(err)
	}
	codes := map[string]bool{}
	for _, c := range []guard.Code{guard.CodeOK, guard.CodeDeadline, guard.CodeStepBudget, guard.CodeTermSize,
		guard.CodeRowBudget, guard.CodeMemBudget, guard.CodeCanceled, guard.CodeExternalPanic,
		guard.CodeExternalError, guard.CodeInjected, guard.CodeOverloaded, guard.CodeDraining,
		guard.CodeParse, guard.CodeInternal, guard.CodeInvalid} {
		codes[string(c)] = true
	}
	mux := srv.httpSrv.Handler
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, req := range []*http.Request{
			httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(data)),
			httptest.NewRequest(http.MethodGet, "/query?"+url.Values{"q": {string(data)}}.Encode(), nil),
		} {
			rec := httptest.NewRecorder()
			before := requestsTotal(srv.Metrics())
			mux.ServeHTTP(rec, req)
			if grew := requestsTotal(srv.Metrics()) - before; grew != 1 {
				t.Fatalf("%s: one answer grew the request ledger by %d", req.Method, grew)
			}
			var resp Response
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("%s: answer %.200q does not decode: %v", req.Method, rec.Body.Bytes(), err)
			}
			if !codes[resp.Code] {
				t.Fatalf("%s: code %q is not in the guard vocabulary", req.Method, resp.Code)
			}
			if want := httpStatus(guard.Code(resp.Code)); rec.Code != want {
				t.Fatalf("%s: %s answered with status %d, want %d", req.Method, resp.Code, rec.Code, want)
			}
		}
		if n := srv.m.panics.Value(); n != 0 {
			t.Fatalf("%d panics isolated", n)
		}
	})
}

// TestServerExecutionErrorIsNotParse: PARSE (HTTP 400) says the request
// text never reached the guarded pipeline. That is decided by where the
// request failed, never by what the error message happens to say: an ADT
// function failing mid-execution with "unknown ..." is the server's 500.
func TestServerExecutionErrorIsNotParse(t *testing.T) {
	srv, base := startServer(t, Config{})
	srv.base.Cat.ADTs.Register("CCYRATE", 1, false, func([]value.Value) (value.Value, error) {
		return value.Null, errors.New("unknown currency code")
	})
	c := NewClient(base)
	out := c.Query(context.Background(), "SELECT Title FROM FILM WHERE CCYRATE(Numf) > 0")
	if out.Code != guard.CodeInternal || !strings.Contains(out.Resp.Error, "unknown currency code") {
		t.Errorf("execution failure: code %s (%s), want INTERNAL", out.Code, out.Resp.Error)
	}
	if out := c.Query(context.Background(), "SELECT Title FROM NOSUCHTABLE"); out.Code != guard.CodeInvalid {
		t.Errorf("translate failure: code %s (%s), want INVALID", out.Code, out.Resp.Error)
	}
}

// TestServerMetricsScrape: /metrics yields a parseable Prometheus text
// exposition containing the lera_server_* family with consistent
// accounting (requests = admitted + shed + rejected + pre-admission
// failures).
func TestServerMetricsScrape(t *testing.T) {
	_, base := startServer(t, Config{})
	c := NewClient(base)
	for i := 0; i < 5; i++ {
		if out := c.Query(context.Background(), filmQuery); out.Code != guard.CodeOK {
			t.Fatalf("query %d: %s", i, out.Code)
		}
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		`lera_server_requests_total{tenant="default",code="OK"} 5`,
		"lera_server_admitted_total 5",
		`lera_server_request_seconds_count{tenant="default"} 5`,
		"lera_server_sessions",
		"lera_queries_total", // session metrics share the scrape
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	// One metric per fact: the protocol code lives on the labeled series
	// only, not on a second per-code counter family.
	if strings.Contains(text, "lera_server_code_") {
		t.Error("scrape still carries the lera_server_code_<code>_total family")
	}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("unparseable exposition line: %q", line)
		}
	}
}

// TestServerHealthz flips to 503 draining.
func TestServerHealthz(t *testing.T) {
	srv, base := startServer(t, Config{})
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
