// Command loadgen drives a leraserver with a concurrent mixed workload
// and audits the robustness contract from the client side: every request
// must end in a server answer, the server's request ledger must grow by
// exactly the answers the clients received, and /metrics must scrape
// cleanly. It exits non-zero if any request goes unreported or the audit
// fails, which makes it the CI chaos gate (see docs/SERVER.md).
//
//	loadgen -url http://127.0.0.1:7457 -n 500 -c 16 -json /tmp/loadgen.json
//
// Against a server started with -plancache, `-assert-cache` additionally
// balances the plan-cache ledger (hits + misses must equal the queries
// that reached the rewrite phase) and `-min-hit-rate 0.9` gates on the
// hit rate — the CI check for repeated-shape workloads
// (docs/PLANCACHE.md).
//
// Retries use bounded exponential backoff with deterministic jitter
// (-seed), so a run that shed N requests sheds exactly N on the rerun.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"lera/internal/guard"
	"lera/internal/server"
)

// defaultQueries is the built-in mix over the \films example database:
// a plain scan, an ADT-heavy filter, the recursive view, and — when
// -errors is set — a parse error to exercise the failure path.
var defaultQueries = []string{
	"SELECT Title FROM FILM WHERE Numf > 0",
	"SELECT Title FROM FILM WHERE COUNT(Categories) > 0",
	"SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'Quinn'",
	"SELECT Title, Categories FROM FILM",
}

// result is one request's client-side outcome. Answered says its last
// attempt carried a server Response; an outcome without one is a
// transport error, which server.Client reports as INTERNAL.
type result struct {
	Code     string
	Answered bool
	Degraded bool
	Attempts int
	Total    time.Duration
}

// report is the JSON account of one run.
type report struct {
	URL         string         `json:"url"`
	Requests    int            `json:"requests"`
	Concurrency int            `json:"concurrency"`
	Tenant      string         `json:"tenant,omitempty"`
	ElapsedMs   float64        `json:"elapsedMs"`
	Throughput  float64        `json:"requestsPerSec"`
	ByCode      map[string]int `json:"byCode"`
	Degraded    int            `json:"degraded"`
	Retried     int            `json:"retried"`
	LatencyMs   struct {
		P50 float64 `json:"p50"`
		P95 float64 `json:"p95"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"latencyMs"`
	Unreported int `json:"unreported"`
	// Answers counts the server answers the clients received: every
	// attempt before an outcome's last (each an OVERLOADED answer that
	// was retried), plus the last when it carried a Response.
	Answers    int64 `json:"answersReceived"`
	ScrapeOK   bool  `json:"metricsScrapeOk"`
	ServerSeen int64 `json:"serverRequestsTotal"` // the ledger's growth over the run

	// Plan-cache audit (the run's growth of the scraped counters;
	// meaningful when the server was started with -plancache).
	CacheHits    int64   `json:"planCacheHits"`
	CacheMisses  int64   `json:"planCacheMisses"`
	CacheHitRate float64 `json:"planCacheHitRate"`
}

func main() {
	var (
		url       = flag.String("url", "http://127.0.0.1:7457", "server base URL")
		n         = flag.Int("n", 200, "total requests")
		c         = flag.Int("c", 8, "concurrent workers")
		tenant    = flag.String("tenant", "", "tenant name sent with every request")
		queryList = flag.String("queries", "", "file with one query per line (default: built-in films mix)")
		withBad   = flag.Bool("errors", false, "mix in a parse-error query")
		retries   = flag.Int("retries", 4, "max attempts per request (1 = no retries)")
		seed      = flag.Uint64("seed", 1, "jitter PRNG seed (deterministic backoff)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request overall timeout")
		jsonOut   = flag.String("json", "", "write the run report as JSON to this file")
		assertC   = flag.Bool("assert-cache", false, "fail unless the plan-cache ledger balances (hits+misses = queries)")
		minHit    = flag.Float64("min-hit-rate", 0, "fail if the plan-cache hit rate is below this fraction (implies -assert-cache)")
	)
	flag.Parse()
	if err := run(*url, *n, *c, *tenant, *queryList, *withBad, *retries, *seed, *timeout, *jsonOut, *assertC, *minHit); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(url string, n, c int, tenant, queryList string, withBad bool, retries int, seed uint64, timeout time.Duration, jsonOut string, assertCache bool, minHitRate float64) error {
	if minHitRate > 0 {
		assertCache = true
	}
	queries := defaultQueries
	if queryList != "" {
		data, err := os.ReadFile(queryList)
		if err != nil {
			return err
		}
		queries = nil
		for _, line := range strings.Split(string(data), "\n") {
			if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "--") {
				queries = append(queries, line)
			}
		}
		if len(queries) == 0 {
			return fmt.Errorf("no queries in %s", queryList)
		}
	}
	if withBad {
		queries = append(append([]string{}, queries...), "this is not esql")
	}
	if c < 1 {
		c = 1
	}

	before, err := scrape(url)
	if err != nil {
		return err
	}
	results := make([]result, n)
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := server.NewClient(url)
			cl.Tenant = tenant
			cl.Retry.MaxAttempts = retries
			cl.Retry.Seed = seed + uint64(w)
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				out := cl.Query(ctx, queries[i%len(queries)])
				cancel()
				results[i] = result{Code: string(out.Code), Answered: out.Resp != nil, Attempts: out.Attempts,
					Total: out.Total, Degraded: out.Resp != nil && out.Resp.Degraded}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(t0)

	rep := report{URL: url, Requests: n, Concurrency: c, Tenant: tenant,
		ElapsedMs:  float64(elapsed.Nanoseconds()) / 1e6,
		Throughput: float64(n) / elapsed.Seconds(),
		ByCode:     map[string]int{},
	}
	tally(results, &rep)

	// Server-side audit: /metrics must scrape cleanly, and the server's
	// ledger must have grown by exactly the answers the clients received.
	after, auditErr := scrape(url)
	if auditErr == nil {
		rep.ScrapeOK = true
		auditErr = audit(&rep, before, after, assertCache, minHitRate)
	}

	fmt.Printf("loadgen: %d requests, %d workers, %.1fs (%.0f req/s)\n", n, c, elapsed.Seconds(), rep.Throughput)
	codes := make([]string, 0, len(rep.ByCode))
	for k := range rep.ByCode {
		codes = append(codes, k)
	}
	sort.Strings(codes)
	for _, k := range codes {
		fmt.Printf("  %-16s %d\n", k, rep.ByCode[k])
	}
	fmt.Printf("  degraded %d, retried %d, unreported %d\n", rep.Degraded, rep.Retried, rep.Unreported)
	fmt.Printf("  latency ms: p50 %.2f p95 %.2f p99 %.2f max %.2f\n",
		rep.LatencyMs.P50, rep.LatencyMs.P95, rep.LatencyMs.P99, rep.LatencyMs.Max)
	if rep.CacheHits+rep.CacheMisses > 0 {
		fmt.Printf("  plan cache: %d hits, %d misses (%.1f%% hit rate)\n",
			rep.CacheHits, rep.CacheMisses, 100*rep.CacheHitRate)
	}

	if jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}

	return auditErr
}

// tally folds the clients' outcomes into the report: codes, latency,
// retries, the answers received and the outcomes that got none.
func tally(results []result, rep *report) {
	lats := make([]float64, 0, len(results))
	for _, r := range results {
		rep.Answers += int64(r.Attempts - 1)
		if !r.Answered {
			rep.Unreported++ // no server answer, only a transport error: the gate
			continue
		}
		rep.Answers++
		rep.ByCode[r.Code]++
		if r.Degraded {
			rep.Degraded++
		}
		if r.Attempts > 1 {
			rep.Retried++
		}
		lats = append(lats, float64(r.Total.Nanoseconds())/1e6)
	}
	sort.Float64s(lats)
	rep.LatencyMs.P50 = quantile(lats, 0.50)
	rep.LatencyMs.P95 = quantile(lats, 0.95)
	rep.LatencyMs.P99 = quantile(lats, 0.99)
	if len(lats) > 0 {
		rep.LatencyMs.Max = lats[len(lats)-1]
	}
}

// ledger is what audit reads of the JSON exposition: a counter is a
// number; a labeled counter maps each series to its value
// (obs.Registry.WriteJSON).
type ledger struct {
	Requests map[string]int64 `json:"lera_server_requests_total"`
	Hits     int64            `json:"lera_plancache_hits_total"`
	Misses   int64            `json:"lera_plancache_misses_total"`
	Queries  int64            `json:"lera_queries_total"`
}

// requests sums the request ledger over its series.
func (l ledger) requests() int64 {
	var n int64
	for _, v := range l.Requests {
		n += v
	}
	return n
}

// scrape reads /metrics?format=json, the registry's JSON exposition.
func scrape(url string) (ledger, error) {
	var l ledger
	resp, err := http.Get(url + "/metrics?format=json")
	if err != nil {
		return l, fmt.Errorf("metrics scrape: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&l); err != nil {
		return l, fmt.Errorf("metrics scrape: %w", err)
	}
	return l, nil
}

// audit checks the run against the server's ledgers, scraped before and
// after it. Every outcome must have carried a server answer, and the
// request ledger must have grown by exactly the answers the clients
// received. With assertCache it also balances the plan cache's ledger
// over the run — every query that reached the rewrite phase is exactly
// one hit or one miss — and enforces the minimum hit rate (the CI gate
// for repeated-shape workloads; needs a workload with no translate
// failures, which never reach the cache).
func audit(rep *report, before, after ledger, assertCache bool, minHitRate float64) error {
	if rep.Unreported > 0 {
		return fmt.Errorf("%d requests got no answer from the server", rep.Unreported)
	}
	rep.ServerSeen = after.requests() - before.requests()
	if rep.ServerSeen != rep.Answers {
		return fmt.Errorf("server ledger grew by %d, clients received %d answers", rep.ServerSeen, rep.Answers)
	}
	if got := rep.ByCode[string(guard.CodeOK)]; got == 0 && rep.Requests > 0 {
		fmt.Fprintln(os.Stderr, "loadgen: warning: no OK responses at all")
	}

	rep.CacheHits, rep.CacheMisses = after.Hits-before.Hits, after.Misses-before.Misses
	if total := rep.CacheHits + rep.CacheMisses; total > 0 {
		rep.CacheHitRate = float64(rep.CacheHits) / float64(total)
	}
	if assertCache {
		if rep.CacheHits+rep.CacheMisses == 0 {
			return fmt.Errorf("plan-cache audit: no hits or misses recorded (is the server running with -plancache?)")
		}
		if queries := after.Queries - before.Queries; rep.CacheHits+rep.CacheMisses != queries {
			return fmt.Errorf("plan-cache ledger unbalanced: %d hits + %d misses != %d queries",
				rep.CacheHits, rep.CacheMisses, queries)
		}
		if rep.CacheHitRate < minHitRate {
			return fmt.Errorf("plan-cache hit rate %.3f below required %.3f", rep.CacheHitRate, minHitRate)
		}
	}
	return nil
}

// quantile reads the q-quantile from sorted data (nearest-rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
