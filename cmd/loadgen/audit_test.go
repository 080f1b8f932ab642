package main

// The audit reads the registry's JSON exposition before and after a run:
// the labeled request counter, summed over its series, must grow by the
// answers the clients received; an outcome without a server answer fails
// the run; the plan-cache ledger balances over the run; and a scrape that
// does not decode fails the run.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"lera/internal/obs"
)

func TestAuditReadsJSONExposition(t *testing.T) {
	reg := obs.NewRegistry()
	requests := reg.CounterVec("lera_server_requests_total", "", "tenant", "code")
	requests.With("default", "OK").Add(2) // before the run
	hits := reg.Counter("lera_plancache_hits_total", "")
	misses := reg.Counter("lera_plancache_misses_total", "")
	queries := reg.Counter("lera_queries_total", "")
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	before, err := scrape(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	// The run: four outcomes, one of them answered OVERLOADED once and
	// retried, so the server answered five times.
	requests.With("default", "OVERLOADED").Inc()
	requests.With("default", "OK").Add(2)
	requests.With("free", "ROW_BUDGET").Add(1)
	requests.With("odd", `}" {`).Add(1)
	hits.Add(4)
	misses.Add(2)
	queries.Add(6)
	after, err := scrape(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := []result{
		{Code: "OK", Answered: true, Attempts: 2},
		{Code: "OK", Answered: true, Attempts: 1},
		{Code: "ROW_BUDGET", Answered: true, Attempts: 1},
		{Code: "PARSE", Answered: true, Attempts: 1},
	}
	newReport := func(results []result) *report {
		rep := &report{Requests: len(results), ByCode: map[string]int{}}
		tally(results, rep)
		return rep
	}

	rep := newReport(outcomes)
	if err := audit(rep, before, after, true, 0.5); err != nil {
		t.Fatal(err)
	}
	if rep.Answers != 5 || rep.ServerSeen != 5 || rep.Retried != 1 || rep.CacheHits != 4 || rep.CacheMisses != 2 {
		t.Fatalf("audit read %+v, want 5 answers and 5 counted, 1 retried, 4 hits, 2 misses", rep)
	}
	if err := audit(newReport(outcomes), before, after, true, 0.9); err == nil || !strings.Contains(err.Error(), "hit rate") {
		t.Errorf("hit rate 0.67 against a 0.9 floor: %v", err)
	}

	// A ledger that disagrees with the clients: one count no client saw.
	requests.With("default", "OK").Inc()
	extra, err := scrape(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := audit(newReport(outcomes), before, extra, false, 0); err == nil || !strings.Contains(err.Error(), "ledger grew by 6, clients received 5") {
		t.Errorf("ledger ahead of the clients: %v", err)
	}
	// An outcome without a Response (a transport error the client reports
	// as INTERNAL) is unreported, whatever the ledger says.
	lost := append(outcomes, result{Code: "INTERNAL", Attempts: 1})
	rep = newReport(lost)
	if rep.Unreported != 1 {
		t.Fatalf("an outcome without a Response: %d unreported, want 1", rep.Unreported)
	}
	if err := audit(rep, before, extra, false, 0); err == nil || !strings.Contains(err.Error(), "no answer") {
		t.Errorf("an outcome without a Response passed the audit: %v", err)
	}

	if _, err := scrape(srv.URL + "/nosuch"); err == nil {
		t.Error("a 404 page passed as an exposition")
	}
}
