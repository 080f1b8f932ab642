package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"lera/internal/esql"
	"lera/internal/guard"
	"lera/internal/obs"
)

// requestsTotal is the request ledger, lera_server_requests_total summed
// over its series as a scrape reads it.
func requestsTotal(reg *obs.Registry) int64 {
	var n int64
	for _, v := range reg.Snapshot()["lera_server_requests_total"].(map[string]int64) {
		n += v
	}
	return n
}

// memSink collects query-log events in memory.
type memSink struct {
	mu     sync.Mutex
	events []obs.QueryEvent
}

func (s *memSink) Emit(ev obs.QueryEvent) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

func (s *memSink) Close() error { return nil }

func (s *memSink) snapshot() []obs.QueryEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.QueryEvent(nil), s.events...)
}

// TestQueryLogOneEventPerRequest: every request — OK, parse failure,
// budget trip — leaves exactly one wide event, and the accounting
// (emitted + dropped + sampled_out) balances the request ledger.
func TestQueryLogOneEventPerRequest(t *testing.T) {
	sink := &memSink{}
	qlog := obs.NewQueryLog(sink, 64, 1)
	srv, base := startServer(t, Config{
		QueryLog: qlog,
		Tenants: Tenants{
			"default": {MaxRows: 100000},
			"tiny":    {MaxRows: 1},
		},
	})
	c := NewClient(base)
	requests := 0
	for i := 0; i < 3; i++ {
		if out := c.Query(context.Background(), filmQuery); out.Code != guard.CodeOK {
			t.Fatalf("query %d: %s", i, out.Code)
		}
		requests++
	}
	if out := c.Query(context.Background(), "not esql at all"); out.Code != guard.CodeParse {
		t.Fatalf("parse outcome: %s", out.Code)
	}
	requests++
	tc := NewClient(base)
	tc.Tenant = "tiny"
	if out := tc.Query(context.Background(), filmQuery); out.Code != guard.CodeRowBudget {
		t.Fatalf("budget outcome: %s", out.Code)
	}
	requests++

	ledger := requestsTotal(srv.Metrics())
	if ledger != int64(requests) {
		t.Fatalf("ledger %d, sent %d", ledger, requests)
	}
	// Drain closes the log, flushing the channel into the sink.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := qlog.Emitted() + qlog.Dropped() + qlog.SampledOut(); got != ledger {
		t.Fatalf("query-log accounting %d (emitted %d, dropped %d, sampled %d) != ledger %d",
			got, qlog.Emitted(), qlog.Dropped(), qlog.SampledOut(), ledger)
	}
	events := sink.snapshot()
	if int64(len(events)) != qlog.Emitted() {
		t.Fatalf("sink saw %d events, log emitted %d", len(events), qlog.Emitted())
	}
	byCode := map[string]int{}
	for _, ev := range events {
		byCode[ev.Code]++
		if ev.ElapsedNs <= 0 {
			t.Errorf("event %+v has no elapsed time", ev)
		}
	}
	if byCode["OK"] != 3 || byCode[string(guard.CodeParse)] != 1 || byCode[string(guard.CodeRowBudget)] != 1 {
		t.Fatalf("event codes %v, want 3 OK / 1 parse / 1 row-budget", byCode)
	}
	// OK events carry the wide fields: budget, cache outcome, counters.
	for _, ev := range events {
		if ev.Code != "OK" {
			continue
		}
		if ev.Tenant != "default" {
			t.Errorf("OK event tenant %q, want default", ev.Tenant)
		}
		if ev.RowsUsed <= 0 {
			t.Errorf("OK event RowsUsed = %d, want > 0", ev.RowsUsed)
		}
		if ev.Scanned <= 0 {
			t.Errorf("OK event Scanned = %d, want > 0 (report counters missing)", ev.Scanned)
		}
	}
}

// TestRejectedRequestsEnterLedger: the answers the HTTP handler gives
// before a query runs — a body that does not decode, a blank query, a
// method other than GET or POST — are counted and logged like any other
// answer, under the tenant the request named if its body decoded.
func TestRejectedRequestsEnterLedger(t *testing.T) {
	sink := &memSink{}
	qlog := obs.NewQueryLog(sink, 64, 1)
	srv, base := startServer(t, Config{QueryLog: qlog,
		Tenants: Tenants{"default": {}, "alpha": {}}})
	send := func(method, body string) Response {
		req, err := http.NewRequest(method, base+"/query", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var r Response
		if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
			t.Fatal(err)
		}
		if r.Code != string(guard.CodeParse) {
			t.Fatalf("%s %q: code %s, want PARSE", method, body, r.Code)
		}
		return r
	}
	for _, c := range []struct{ method, body, tenant string }{
		{http.MethodPost, `{"tenant": "alpha", "query": `, "default"},
		{http.MethodPost, `{"tenant": "alpha", "query": "  "}`, "alpha"},
		{http.MethodPut, `{"tenant": "alpha", "query": "SELECT Title FROM FILM"}`, "default"},
		{http.MethodPost, `{"tenant": "alpha", "query": "SELECT Title FROM NOSUCH"}`, "alpha"},
	} {
		if r := send(c.method, c.body); r.Tenant != c.tenant {
			t.Errorf("%s %q: answered under tenant %q, want %q", c.method, c.body, r.Tenant, c.tenant)
		}
	}
	m := srv.Metrics()
	if n := requestsTotal(m); n != 4 {
		t.Errorf("ledger counted %d of 4 answers", n)
	}
	lat := m.HistogramVec("lera_server_request_seconds", "", nil, "tenant")
	if n := lat.With("default").Count() + lat.With("alpha").Count(); n != 4 {
		t.Errorf("latency histogram counted %d of 4 answers", n)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if n := len(sink.snapshot()); n != 4 {
		t.Errorf("query log holds %d events for 4 answers", n)
	}
}

// TestQueryLogSampledServer: with sample=2 half the events are skipped
// but still counted — the ledger stays balanced.
func TestQueryLogSampledServer(t *testing.T) {
	qlog := obs.NewQueryLog(&memSink{}, 64, 2)
	srv, base := startServer(t, Config{QueryLog: qlog})
	c := NewClient(base)
	const n = 6
	for i := 0; i < n; i++ {
		if out := c.Query(context.Background(), filmQuery); out.Code != guard.CodeOK {
			t.Fatalf("query %d: %s", i, out.Code)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := qlog.Emitted() + qlog.SampledOut() + qlog.Dropped(); got != n {
		t.Fatalf("accounting %d, want %d", got, n)
	}
	if qlog.SampledOut() != n/2 {
		t.Fatalf("SampledOut = %d, want %d", qlog.SampledOut(), n/2)
	}
}

// TestSlowlogEndpoint: a query slower than the threshold (via an
// injected stall) lands in the ring with its full report, and
// /debug/slowlog serves it.
func TestSlowlogEndpoint(t *testing.T) {
	chaos, err := ParseChaos("server.request:stall:on=2:stall=30ms")
	if err != nil {
		t.Fatal(err)
	}
	_, base := startServer(t, Config{
		SlowThreshold: 20 * time.Millisecond,
		Chaos:         chaos,
	})
	c := NewClient(base)
	// First query fast (below threshold), second stalled 30ms (captured).
	for i := 0; i < 2; i++ {
		if out := c.Query(context.Background(), filmQuery); out.Code != guard.CodeOK {
			t.Fatalf("query %d: %s", i, out.Code)
		}
	}
	resp, err := http.Get(base + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slowlog status %d", resp.StatusCode)
	}
	var out struct {
		ThresholdNs int64 `json:"threshold_ns"`
		Size        int   `json:"size"`
		Captured    int64 `json:"captured"`
		Entries     []struct {
			Query    string `json:"query"`
			Code     string `json:"code"`
			Report   string `json:"report"`
			RowsUsed int64  `json:"rows_used"`
			Scanned  int64  `json:"scanned"`
		} `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ThresholdNs != (20 * time.Millisecond).Nanoseconds() {
		t.Errorf("threshold_ns = %d", out.ThresholdNs)
	}
	if out.Size != DefaultSlowLogSize {
		t.Errorf("size = %d, want %d", out.Size, DefaultSlowLogSize)
	}
	if out.Captured != 1 || len(out.Entries) != 1 {
		t.Fatalf("captured %d entries %d, want exactly the stalled query", out.Captured, len(out.Entries))
	}
	e := out.Entries[0]
	if e.Query != filmQuery || e.Code != "OK" {
		t.Errorf("entry %q code %q", e.Query, e.Code)
	}
	if e.RowsUsed <= 0 || e.Scanned <= 0 {
		t.Errorf("entry rows_used = %d, scanned = %d, want both > 0 (the event's flat fields)", e.RowsUsed, e.Scanned)
	}
	// The full EXPLAIN ANALYZE operator tree came along.
	for _, want := range []string{"execution:", "budget:", "timings:"} {
		if !strings.Contains(e.Report, want) {
			t.Errorf("report missing %q:\n%s", want, e.Report)
		}
	}
}

// TestSlowlogDegradedCapture: degraded / budget-tripped queries are
// captured regardless of latency.
func TestSlowlogDegradedCapture(t *testing.T) {
	srv, base := startServer(t, Config{
		SlowThreshold: time.Hour, // latency alone will never trigger
		Tenants: Tenants{
			"default": {MaxRows: 100000},
			"tiny":    {MaxRows: 1},
		},
	})
	c := NewClient(base)
	c.Tenant = "tiny"
	if out := c.Query(context.Background(), filmQuery); out.Code != guard.CodeRowBudget {
		t.Fatalf("budget outcome: %s", out.Code)
	}
	if got := srv.SlowLog().Captured(); got != 1 {
		t.Fatalf("ring captured %d, want the budget-tripped query", got)
	}
	e := srv.SlowLog().Snapshot()[0]
	if e.Code != string(guard.CodeRowBudget) || e.Tenant != "tiny" {
		t.Errorf("entry code=%s tenant=%s", e.Code, e.Tenant)
	}
}

// TestSlowlogDisabled: SlowLogSize < 0 turns the ring off; the endpoint
// answers 404 and pooled sessions skip stats collection.
func TestSlowlogDisabled(t *testing.T) {
	srv, base := startServer(t, Config{SlowLogSize: -1})
	if srv.SlowLog() != nil {
		t.Fatal("ring must be nil when disabled")
	}
	resp, err := http.Get(base + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/slowlog status %d, want 404", resp.StatusCode)
	}
}

// TestMetricsScrapeDiagnostics: the scrape carries the query-log and
// slow-ring accounting gauges, synced at scrape time.
func TestMetricsScrapeDiagnostics(t *testing.T) {
	qlog := obs.NewQueryLog(&memSink{}, 64, 1)
	_, base := startServer(t, Config{QueryLog: qlog, SlowThreshold: time.Nanosecond})
	c := NewClient(base)
	if out := c.Query(context.Background(), filmQuery); out.Code != guard.CodeOK {
		t.Fatalf("query: %s", out.Code)
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
		obs.MetricQuerylogEvents,
		obs.MetricQuerylogDropped,
		obs.MetricQuerylogSampledOut,
		"lera_server_slowlog_captured_total 1",
		"lera_server_slowlog_size 64",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestSlowEntryIsTheLoggedEvent: a finished request is described once.
// With every request captured (1 ns threshold), the event the query log
// emits equals the QueryEvent of the ring's entry for the same request —
// for an OK answer, a parse failure, a budget trip, and a rewrite that
// degraded whose fallback plan then failed to execute.
func TestSlowEntryIsTheLoggedEvent(t *testing.T) {
	sink := &memSink{}
	qlog := obs.NewQueryLog(sink, 64, 1)
	srv, base := startServer(t, Config{
		QueryLog:      qlog,
		SlowThreshold: time.Nanosecond,
		PlanCache:     16,
		Tenants: Tenants{
			"default": {MaxRows: 100000},
			"tiny":    {MaxRows: 1},
			"spent":   {MaxRows: 1, MaxSteps: 1},
		},
	})
	requests := []struct {
		tenant, query string
		code          guard.Code
		degraded      bool
	}{
		{"default", filmQuery, guard.CodeOK, false},
		{"default", "not esql at all", guard.CodeParse, false},
		{"tiny", filmQuery, guard.CodeRowBudget, false},
		{"spent", esql.Figure5Query, guard.CodeRowBudget, true},
	}
	for _, r := range requests {
		c := NewClient(base)
		c.Tenant = r.tenant
		if out := c.Query(context.Background(), r.query); out.Code != r.code {
			t.Fatalf("%s %q: code %s, want %s", r.tenant, r.query, out.Code, r.code)
		}
	}
	entries := srv.SlowLog().Snapshot() // newest first
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	events := sink.snapshot() // in request order
	if len(events) != len(requests) || len(entries) != len(requests) {
		t.Fatalf("%d events, %d ring entries, want %d of each", len(events), len(entries), len(requests))
	}
	for i, r := range requests {
		ev, e := events[i], entries[len(entries)-1-i]
		if ev != e.QueryEvent {
			t.Errorf("request %d (%s): logged event\n  %+v\nring entry's event\n  %+v", i, r.code, ev, e.QueryEvent)
		}
		if ev.Code != string(r.code) || ev.Degraded != r.degraded {
			t.Errorf("request %d: event code %s degraded %v, want %s degraded %v", i, ev.Code, ev.Degraded, r.code, r.degraded)
		}
	}
	if ok := events[0]; ok.Cache == "" || ok.TemplateHash == "" || ok.Scanned <= 0 || ok.ExecNs <= 0 {
		t.Errorf("OK event lacks the Result's fields: %+v", ok)
	}
}
