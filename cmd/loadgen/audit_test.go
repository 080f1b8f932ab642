package main

// The audit reads the registry's JSON exposition: the labeled request
// counter is summed over its series, both ledgers are balanced, and a
// scrape that does not decode fails the run.

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
	requests.With("default", "OK").Add(3)
	requests.With("free", "ROW_BUDGET").Add(2)
	requests.With("odd", `}" {`).Add(1)
	reg.Counter("lera_server_queries_ok_total", "").Add(3)
	errs := reg.Counter("lera_server_query_errors_total", "")
	errs.Add(3)
	reg.Counter("lera_plancache_hits_total", "").Add(4)
	reg.Counter("lera_plancache_misses_total", "").Add(2)
	reg.Counter("lera_queries_total", "").Add(6)
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	var rep report
	if err := audit(srv.URL, &rep, true, 0.5); err != nil {
		t.Fatal(err)
	}
	if !rep.ScrapeOK || rep.ServerSeen != 6 || rep.CacheHits != 4 || rep.CacheMisses != 2 {
		t.Fatalf("audit read %+v, want 6 requests over three series, 4 hits, 2 misses", rep)
	}
	if err := audit(srv.URL, &report{}, true, 0.9); err == nil || !strings.Contains(err.Error(), "hit rate") {
		t.Errorf("hit rate 0.67 against a 0.9 floor: %v", err)
	}

	errs.Inc() // one answer the request counter never saw
	if err := audit(srv.URL, &report{}, false, 0); err == nil || !strings.Contains(err.Error(), "unbalanced") {
		t.Errorf("unbalanced ledger: %v", err)
	}
	if err := audit(srv.URL+"/nosuch", &report{}, false, 0); err == nil {
		t.Error("a 404 page passed as an exposition")
	}
}
