package server

// One metric per fact (docs/OBSERVABILITY.md "Relations"): a server with
// every moving part armed is driven through one scenario per way a request
// can end, and two series that move together through all of them — or two
// query-log fields equal on every event — are one fact counted twice.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"lera/internal/core"
	"lera/internal/guard"
	"lera/internal/obs"
	"lera/internal/value"
)

// deletedFacts are the series and event fields that were a second copy of
// a fact kept elsewhere, and what they copied. Each must stay absent: a
// family from the registry, a field from obs.QueryEvent's JSON form.
var deletedFacts = []struct{ name, copyOf string }{
	{"lera_rows_returned_total", "lera_query_rows_sum"},
	{"lera_server_draining_rejected_total", `lera_server_requests_total{code="DRAINING"}, summed over tenants`},
	{"lera_rewrite_checks", "lera_rewrite_condition_checks_total (the histogram's _sum)"},
	{"event.steps_used", "event.applications (a step is one committed rule application)"},
	{"event.rows_used", "event.emitted (every operator charges the row budget the rows it emits)"},
}

// keptPairs are the pairs this run finds equal that stay two series: the
// relation between them in general, and the reader that needs both.
var keptPairs = []struct{ a, b, relation, reader string }{
	{
		a: "lera_server_shed_total", b: `lera_server_requests_total{tenant="default",code="OVERLOADED"}`,
		relation: `lera_server_shed_total = Σ_tenant lera_server_requests_total{code="OVERLOADED"}`,
		reader:   "the benchmark refuses a run that shed (bench/run.go) and reads the shed counter; the request ledger is what loadgen audits",
	},
	{
		a: "lera_server_slowlog_captured_total", b: "Σ lera_server_requests_total",
		relation: "captured ≤ Σ requests: the ring captures an answer that is slow, degraded or not OK; at this run's 1 ns threshold that is every answer",
		reader:   "/debug/slowlog reports the ring's captures; the request ledger counts every answer",
	},
}

// oneFactScenario is one way a request can end: the requests that end so,
// and the series it must move.
type oneFactScenario struct {
	name  string
	moves string
	run   func(t *testing.T)
}

func TestOneMetricPerFact(t *testing.T) {
	const recursive = "SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'Quinn'"
	sink := &memSink{}
	qlog := obs.NewQueryLog(sink, 256, 2)
	inj := guard.NewInjector()
	srv, err := newServer(Config{
		LoadFilms: true, PlanCache: 16, QueryLog: qlog,
		SlowLogSize: 512, SlowThreshold: time.Nanosecond,
		MaxInFlight: 1, MaxQueue: -1, Parallelism: 1, SpillDir: t.TempDir(),
		Tenants: Tenants{
			DefaultTenant: {},
			"steps":       {MaxSteps: 1},
			"tight":       {MaxSteps: 1, MaxRows: 5},
			"spill":       {MaxMemBytes: 1},
		},
	}, inj)
	if err != nil {
		t.Fatal(err)
	}
	srv.base.Cat.ADTs.Register("CCYRATE", 1, false, func([]value.Value) (value.Value, error) {
		return value.Null, errors.New("unknown currency code")
	})
	srv.base.Cat.ADTs.Register("IDENT", 1, true, func(a []value.Value) (value.Value, error) { return a[0], nil })

	mux := srv.httpSrv.Handler
	ask := func(t *testing.T, tenant, q string, want guard.Code) Response {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/query?"+url.Values{"q": {q}, "tenant": {tenant}}.Encode(), nil))
		var resp Response
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Code != string(want) {
			t.Fatalf("%s %q: %s (%s), want %s", tenant, q, resp.Code, resp.Error, want)
		}
		return resp
	}
	next := func(name string, mode guard.FaultMode) {
		inj.Set(name, guard.Fault{Mode: mode, OnCall: inj.Calls(name) + 1})
	}
	scenarios := []oneFactScenario{
		{"cold miss", "lera_plancache_misses_total", func(t *testing.T) {
			ask(t, DefaultTenant, "SELECT Title FROM FILM WHERE Numf > 3", guard.CodeOK)
		}},
		{"template hit", "lera_plancache_hits_total", func(t *testing.T) {
			ask(t, DefaultTenant, "SELECT Title FROM FILM WHERE Numf > 1", guard.CodeOK)
		}},
		{"text hit", "lera_plancache_text_hits_total", func(t *testing.T) {
			ask(t, DefaultTenant, "SELECT Title FROM FILM WHERE Numf > 1", guard.CodeOK)
		}},
		{"degraded OK", "lera_server_degraded_total", func(t *testing.T) {
			if !ask(t, "steps", recursive, guard.CodeOK).Degraded {
				t.Fatal("the recursive query did not degrade under one step")
			}
			ask(t, "steps", "SELECT Title FROM FILM WHERE Numf = 2", guard.CodeOK)
		}},
		{"degraded then ROW_BUDGET", "lera_rewrite_degraded_total", func(t *testing.T) {
			ask(t, "tight", recursive, guard.CodeRowBudget)
			ask(t, "tight", "SELECT Title FROM FILM WHERE Numf = 3", guard.CodeOK)
		}},
		{"knob change", "lera_plancache_invalidations_total", func(t *testing.T) {
			// The entry for Numf > $1 was planned under the default
			// tenant's step budget.
			ask(t, "steps", "SELECT Title FROM FILM WHERE Numf > 2", guard.CodeOK)
		}},
		{"PARSE", `lera_server_requests_total{tenant="default",code="PARSE"}`, func(t *testing.T) {
			ask(t, DefaultTenant, "not esql at all", guard.CodeParse)
			ask(t, DefaultTenant, " ", guard.CodeParse)
		}},
		{"translate failure", `lera_server_requests_total{tenant="default",code="INVALID"}`, func(t *testing.T) {
			ask(t, DefaultTenant, "SELECT Title FROM NOSUCH", guard.CodeInvalid)
		}},
		{"ADT failure", `lera_server_requests_total{tenant="default",code="INTERNAL"}`, func(t *testing.T) {
			ask(t, DefaultTenant, "SELECT Title FROM FILM WHERE CCYRATE(Numf) > 0", guard.CodeInternal)
		}},
		{"spill", "lera_engine_spill_partitions_total", func(t *testing.T) {
			ask(t, "spill", "SELECT Categories FROM FILM WHERE Numf > 0", guard.CodeOK)
		}},
		{"shed", "lera_server_shed_total", func(t *testing.T) {
			sess, err := srv.pool.checkout(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer srv.pool.checkin(sess)
			ask(t, DefaultTenant, "SELECT Title FROM FILM", guard.CodeOverloaded)
		}},
		{"request-hook chaos", "lera_server_chaos_faults_total", func(t *testing.T) {
			next(RequestHook, guard.FaultError)
			ask(t, DefaultTenant, "SELECT Title FROM FILM", guard.CodeInjected)
		}},
		{"engine-side injection", `lera_server_requests_total{tenant="default",code="INJECTED"}`, func(t *testing.T) {
			next("IDENT", guard.FaultError)
			ask(t, DefaultTenant, "SELECT Title FROM FILM WHERE IDENT(Numf) > 2", guard.CodeInjected)
		}},
		{"isolated panic", "lera_server_panics_total", func(t *testing.T) {
			next(RequestHook, guard.FaultPanic)
			ask(t, DefaultTenant, "SELECT Title FROM FILM", guard.CodeInternal)
		}},
		{"drain-rejected", `lera_server_requests_total{tenant="default",code="DRAINING"}`, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			ask(t, DefaultTenant, "SELECT Title FROM FILM", guard.CodeDraining)
			ask(t, DefaultTenant, "SELECT Title FROM FILM", guard.CodeDraining)
		}},
	}

	reg := srv.Metrics()
	vectors := map[string][]float64{} // series → its delta in each scenario
	family := map[string]string{}     // series → the family it belongs to
	prev := seriesValues(reg, family)
	for i, sc := range scenarios {
		sc.run(t)
		// The query log emits off the request path: wait until every
		// answer is accounted for, so its gauges read the same every run.
		offered := requestsTotal(reg)
		waitFor(t, func() bool { return qlog.Emitted()+qlog.Dropped()+qlog.SampledOut() == offered }, "the query log did not settle")
		srv.syncDiagnosticsMetrics(reg)
		cur := seriesValues(reg, family)
		for name, v := range cur {
			if vectors[name] == nil {
				vectors[name] = make([]float64, len(scenarios))
			}
			vectors[name][i] = v - prev[name]
		}
		prev = cur
	}

	for i, sc := range scenarios {
		if v := vectors[sc.moves]; v == nil || v[i] == 0 {
			t.Errorf("scenario %q did not move %s", sc.name, sc.moves)
		}
	}

	// Every request's event is in the ring (1 ns threshold), oldest first.
	entries := srv.slow.Snapshot()
	slices.Reverse(entries)
	if n := requestsTotal(reg); int64(len(entries)) != n {
		t.Fatalf("the ring holds %d events for %d answers", len(entries), n)
	}
	events := eventVectors(entries)
	for name, v := range events {
		vectors[name], family[name] = v, name
	}

	// A family's label sets partition its events, so series of one family
	// are not compared; nor is an event field with a series — a field
	// holding one request's share of a counter is what a wide event is.
	found := map[[2]string]bool{}
	names := make([]string, 0, len(vectors))
	for name := range vectors {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, a := range names {
		for _, b := range names[i+1:] {
			if family[a] == family[b] || strings.HasPrefix(a, "event.") != strings.HasPrefix(b, "event.") {
				continue
			}
			if nonZero(vectors[a]) && slices.Equal(vectors[a], vectors[b]) {
				found[[2]string{a, b}] = true
			}
		}
	}
	for _, k := range keptPairs {
		pair := [2]string{min(k.a, k.b), max(k.a, k.b)}
		if !found[pair] {
			t.Errorf("kept pair %s and %s is no longer equal over the scenarios: drop it from keptPairs and docs/OBSERVABILITY.md", k.a, k.b)
		}
		delete(found, pair)
	}
	var twins []string
	for pair := range found {
		twins = append(twins, fmt.Sprintf("%s = %s, both %v", pair[0], pair[1], vectors[pair[0]]))
	}
	sort.Strings(twins)
	for _, tw := range twins {
		t.Errorf("one fact counted twice: %s; delete one or list the pair in keptPairs with its relation and reader", tw)
	}

	fields := map[string]bool{}
	for name := range eventVectors(nil) {
		fields[name] = true
	}
	final := reg.Snapshot()
	for _, d := range deletedFacts {
		if _, ok := final[d.name]; ok || fields[d.name] {
			t.Errorf("%s is back: it is a copy of %s", d.name, d.copyOf)
		}
	}
	t.Logf("%d scenarios, %d series and %d event fields compared, %d kept pairs", len(scenarios), len(names)-len(events), len(events), len(keptPairs))
}

// seriesValues flattens a registry scrape into one value per series: a
// counter or gauge as itself, a histogram as its _sum (its _count is by
// design the count of the events it times), and a labeled family as each
// label set plus "Σ name", the family summed over its labels. family is
// filled with each series' family name.
func seriesValues(reg *obs.Registry, family map[string]string) map[string]float64 {
	out := map[string]float64{}
	put := func(fam, series string, v float64) {
		out[series], family[series] = v, fam
	}
	for name, v := range reg.Snapshot() {
		switch v := v.(type) {
		case int64:
			put(name, name, float64(v))
		case obs.HistogramSummary:
			put(name, name+"_sum", v.Sum)
		case map[string]int64:
			var sum float64
			for ls, n := range v {
				put(name, name+ls, float64(n))
				sum += float64(n)
			}
			put(name, "Σ "+name, sum)
		case map[string]obs.HistogramSummary:
			var sum float64
			for ls, h := range v {
				put(name, name+"_sum"+ls, h.Sum)
				sum += h.Sum
			}
			put(name, "Σ "+name+"_sum", sum)
		}
	}
	return out
}

// eventVectors returns, per obs.QueryEvent field ("event." and its JSON
// name), its value in each entry's event, in order: a number as itself, a
// bool as 0 or 1, any other value as 0 when unset and otherwise by a code
// for its text — so two fields compare equal exactly when they hold the
// same values on every event.
func eventVectors(entries []core.SlowEntry) map[string][]float64 {
	out := map[string][]float64{}
	typ := reflect.TypeOf(obs.QueryEvent{})
	codes := map[string]float64{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		name := "event." + strings.Split(f.Tag.Get("json"), ",")[0]
		vec := make([]float64, len(entries))
		for j, e := range entries {
			v := reflect.ValueOf(e.QueryEvent).Field(i)
			switch {
			case v.IsZero():
			case v.CanInt():
				vec[j] = float64(v.Int())
			case v.Kind() == reflect.Bool:
				vec[j] = 1
			default:
				s := fmt.Sprint(v.Interface())
				if codes[s] == 0 {
					codes[s] = 0.5 + float64(len(codes))
				}
				vec[j] = codes[s]
			}
		}
		out[name] = vec
	}
	return out
}

func nonZero(v []float64) bool {
	return slices.ContainsFunc(v, func(x float64) bool { return x != 0 })
}
