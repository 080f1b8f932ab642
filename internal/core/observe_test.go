package core

import (
	"reflect"
	"strings"
	"testing"

	"lera/internal/engine"
	"lera/internal/esql"
	"lera/internal/obs"
	"lera/internal/rewrite"
)

// TestRewriteStatsContract pins the Result.Stats contract and the total
// RewriteStats accessor across every statement kind.
func TestRewriteStatsContract(t *testing.T) {
	s := filmsSession(t)
	rs, err := s.Exec("TABLE CONTRACT_T (A : INT); INSERT INTO CONTRACT_T VALUES (1);")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Stats != nil {
			t.Errorf("%v result has non-nil Stats; DDL/INSERT never rewrite", r.Kind)
		}
		if st := r.RewriteStats(); !reflect.DeepEqual(st, rewrite.Stats{}) {
			t.Errorf("%v RewriteStats = %+v, want zero", r.Kind, st)
		}
	}
	q, err := s.Query("SELECT Title FROM FILM WHERE Numf = 3")
	if err != nil {
		t.Fatal(err)
	}
	if q.Stats == nil {
		t.Fatal("query with rewriting enabled must carry Stats")
	}
	if q.RewriteStats().ConditionChecks != q.Stats.ConditionChecks {
		t.Fatal("RewriteStats must mirror Stats")
	}
	s.Rewrite = false
	q2, err := s.Query("SELECT Title FROM FILM WHERE Numf = 3")
	if err != nil {
		t.Fatal(err)
	}
	if q2.Stats != nil {
		t.Fatal("Rewrite=false query must have nil Stats")
	}
	var nilRes *Result
	if !reflect.DeepEqual(nilRes.RewriteStats(), rewrite.Stats{}) {
		t.Fatal("RewriteStats on a nil Result must be zero, not panic")
	}
}

// TestObserverMetrics drives a mixed workload and checks the registry.
func TestObserverMetrics(t *testing.T) {
	s := NewSession()
	s.Obs = obs.NewObserver()
	if _, err := s.Exec(esql.Figure2DDL); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("INSERT INTO FILM VALUES (1, 'f', SET('Western'));"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("SELECT Title FROM FILM WHERE Numf = 1"); err != nil {
		t.Fatal(err)
	}
	m := s.Obs.Metrics
	if got := m.Counter("lera_queries_total", "").Value(); got != 1 {
		t.Errorf("lera_queries_total = %d, want 1", got)
	}
	if got := m.Counter("lera_statements_total", "").Value(); got < 4 {
		t.Errorf("lera_statements_total = %d, want >= 4 (DDL + insert)", got)
	}
	if got := m.Gauge("lera_catalog_relations", "").Value(); got != 3 {
		t.Errorf("lera_catalog_relations = %d, want 3", got)
	}
	if got := m.Counter("lera_exec_rows_scanned_total", "").Value(); got == 0 {
		t.Error("lera_exec_rows_scanned_total = 0, want > 0")
	}
	if got := m.Histogram("lera_query_rows", "", obs.DefaultCountBuckets).Sum(); got != 1 {
		t.Errorf("lera_query_rows sum = %v, want 1", got)
	}
	if got := m.Histogram("lera_rewrite_seconds", "", obs.DefaultDurationBuckets).Count(); got != 1 {
		t.Errorf("lera_rewrite_seconds count = %d, want 1", got)
	}
}

// TestObserverReportAndTrace: with tracing on, every query carries a
// report with phases, counters, exec stats and a span tree.
func TestObserverReportAndTrace(t *testing.T) {
	s := filmsSession(t)
	s.Obs = obs.NewObserver()
	s.Obs.Trace = true
	res, err := s.Query(esql.Figure3Query)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep == nil || rep.Trace == nil || rep.Exec == nil {
		t.Fatalf("traced query report incomplete: %+v", rep)
	}
	if rep.ExecCounters.Scanned == 0 {
		t.Error("ExecCounters.Scanned = 0")
	}
	tree := obs.FormatTree(rep.Trace, false)
	for _, want := range []string{"query", "parse", "translate", "rewrite", "rewrite.block block=merge", "execute rows=1"} {
		if !strings.Contains(tree, want) {
			t.Errorf("trace missing %q:\n%s", want, tree)
		}
	}
	if strings.Contains(tree, "op.") {
		t.Errorf("trace copies the operator tree:\n%s", tree)
	}
	if findStats(rep.Exec, "SEARCH") == nil {
		t.Error("exec stats missing the SEARCH operator")
	}
	if !strings.Contains(tree, "rule.apply") {
		t.Errorf("Figure 3 rewrite applied no rules in trace:\n%s", tree)
	}
}

// TestTraceDeterminism: two fresh sessions running the same corpus under
// the same rule base must produce identical span trees and event
// sequences (modulo durations). Run under -race in CI.
func TestTraceDeterminism(t *testing.T) {
	corpus := []string{esql.Figure3Query, esql.Figure5Query}
	capture := func() []string {
		s := filmsSession(t)
		s.Obs = obs.NewObserver()
		s.Obs.Trace = true
		var out []string
		for _, q := range corpus {
			res, err := s.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, obs.FormatTree(res.Report.Trace, false))
		}
		return out
	}
	a, b := capture(), capture()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("trace for corpus[%d] not deterministic:\n--- first\n%s\n--- second\n%s", i, a[i], b[i])
		}
	}
}

// TestDisabledObservabilityAllocs pins the zero-cost claim at the session
// level: a query on a session without an observer must allocate exactly
// as much as before the observability layer existed — in particular the
// obs hooks themselves must contribute 0 allocs (compared against an
// identical warm session).
func TestDisabledObservabilityZeroOverheadPath(t *testing.T) {
	s := filmsSession(t)
	q := "SELECT Title FROM FILM WHERE Numf = 3"
	if _, err := s.Query(q); err != nil { // warm the rewriter
		t.Fatal(err)
	}
	res, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report != nil {
		t.Fatal("Report must be nil without an observer")
	}
	if s.DB.LastExecStats() != nil {
		t.Fatal("exec stats collected without an observer")
	}
}

// TestExecStatsViaSession: CollectStats pre-set by a harness (the server
// does this) populates Report.Exec even without tracing.
func TestExecStatsViaSession(t *testing.T) {
	s := filmsSession(t)
	s.Obs = obs.NewObserver()
	s.DB.CollectStats = true
	res, err := s.Query("SELECT Title FROM FILM WHERE Numf = 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || res.Report.Exec == nil {
		t.Fatal("Report.Exec missing with DB.CollectStats pre-set")
	}
	if !s.DB.CollectStats {
		t.Fatal("caller's CollectStats setting must be preserved")
	}
	if findStats(res.Report.Exec, engineOpSearch) == nil {
		t.Fatal("no SEARCH node in Report.Exec")
	}
}

const engineOpSearch = "SEARCH"

func findStats(root *engine.OpStats, op string) *engine.OpStats {
	if root == nil {
		return nil
	}
	if root.Op == op {
		return root
	}
	for _, c := range root.Children {
		if f := findStats(c, op); f != nil {
			return f
		}
	}
	return nil
}

// TestDegradedEventInTrace: a rewrite driven into its budget emits the
// degradation event on the trace and counts the degraded metric.
func TestDegradedEventInTrace(t *testing.T) {
	s := filmsSession(t, WithRules(`
rule spin: SEARCH(rl, f, p) --> FILTER(SEARCH(rl, f, p), TRUE);
block(spinb, {spin}, inf);
seq({spinb}, 1);
`))
	s.Limits.MaxSteps = 3
	s.Obs = obs.NewObserver()
	s.Obs.Trace = true
	res, err := s.Query("SELECT Title FROM FILM WHERE Numf = 3")
	if err != nil {
		t.Fatal(err)
	}
	if !res.RewriteStats().Degraded {
		t.Fatal("query did not degrade")
	}
	tree := obs.FormatTree(res.Report.Trace, false)
	if !strings.Contains(tree, "rewrite.degraded") {
		t.Errorf("trace missing rewrite.degraded event:\n%s", tree)
	}
	if got := s.Obs.Metrics.Counter("lera_rewrite_degraded_total", "").Value(); got != 1 {
		t.Errorf("lera_rewrite_degraded_total = %d, want 1", got)
	}
}
