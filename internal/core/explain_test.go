package core

import (
	"strings"
	"testing"

	"lera/internal/esql"
	"lera/internal/obs"
)

// explainOf runs one EXPLAIN statement through the full Exec path (so the
// parser dispatch is covered too) and returns the single result.
func explainOf(t *testing.T, s *Session, stmt string) *Result {
	t.Helper()
	rs, err := s.Exec(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("got %d results, want 1", len(rs))
	}
	if rs[0].Kind != ResultExplain {
		t.Fatalf("kind = %v, want ResultExplain", rs[0].Kind)
	}
	return rs[0]
}

// section returns the indented lines under a report's header line, up to
// the next unindented line ("" when the header is absent).
func section(msg, header string) string {
	_, rest, ok := strings.Cut(msg, "\n"+header+"\n")
	if !ok {
		return ""
	}
	var sb strings.Builder
	for _, line := range strings.Split(rest, "\n") {
		if !strings.HasPrefix(line, " ") {
			break
		}
		sb.WriteString(line + "\n")
	}
	return sb.String()
}

// assertNoOpSpans: the operator tree is printed once, under execution:,
// and never copied into the trace as op.* spans or fix.round events.
func assertNoOpSpans(t *testing.T, msg string) {
	t.Helper()
	trace := section(msg, "trace:")
	if trace == "" {
		t.Fatalf("no trace section:\n%s", msg)
	}
	for _, line := range strings.Split(trace, "\n") {
		if f := strings.TrimLeft(line, " ·"); strings.HasPrefix(f, "op.") || strings.HasPrefix(f, "fix.round") {
			t.Errorf("trace repeats the operator tree: %q\n%s", line, msg)
		}
	}
}

func TestExplainWithoutAnalyze(t *testing.T) {
	s := filmsSession(t)
	res := explainOf(t, s, "EXPLAIN "+strings.TrimSpace(strings.TrimRight(strings.TrimSpace(esql.Figure3Query), ";"))+";")
	msg := res.Message
	for _, want := range []string{
		"plan (translated):",
		"plan (rewritten):",
		"rewrite: applications=",
		"trace:",
		"rewrite.block block=merge",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("EXPLAIN output missing %q:\n%s", want, msg)
		}
	}
	// No execution happened: no exec section, no rows, no timings.
	if strings.Contains(msg, "execution:") || strings.Contains(msg, "timings:") {
		t.Errorf("plain EXPLAIN must not execute:\n%s", msg)
	}
	if res.Rows != nil {
		t.Error("plain EXPLAIN returned rows")
	}
	// Determinism: the untimed report is identical across fresh sessions.
	s2 := filmsSession(t)
	res2 := explainOf(t, s2, "EXPLAIN "+strings.TrimSpace(strings.TrimRight(strings.TrimSpace(esql.Figure3Query), ";"))+";")
	if res.Message != res2.Message {
		t.Errorf("EXPLAIN not deterministic:\n--- first\n%s\n--- second\n%s", res.Message, res2.Message)
	}
}

// TestExplainAnalyzeCorpus is the CI corpus gate: EXPLAIN ANALYZE over
// the Figure 3 join query and the Figure 5 recursive query must show
// per-block rewrite spans, per-operator row counts, and — for the
// recursive query — per-round fixpoint deltas under both evaluation
// modes, with a non-empty ExecStats tree.
func TestExplainAnalyzeCorpus(t *testing.T) {
	fig3 := "EXPLAIN ANALYZE " + strings.TrimSpace(strings.TrimRight(strings.TrimSpace(esql.Figure3Query), ";")) + ";"
	fig5 := "EXPLAIN ANALYZE " + strings.TrimSpace(strings.TrimRight(strings.TrimSpace(esql.Figure5Query), ";")) + ";"

	t.Run("figure3", func(t *testing.T) {
		s := filmsSession(t)
		res := explainOf(t, s, fig3)
		msg := res.Message
		for _, want := range []string{
			"execution:",
			"rewrite.block block=merge",
			"rule.apply",
			"timings:",
			"result: 1 rows",
			"rows=",
		} {
			if !strings.Contains(msg, want) {
				t.Errorf("missing %q:\n%s", want, msg)
			}
		}
		if !strings.Contains(section(msg, "execution:"), "SEARCH rows=") {
			t.Errorf("execution section missing the SEARCH operator:\n%s", msg)
		}
		assertNoOpSpans(t, msg)
		if res.Report == nil || res.Report.Exec == nil || len(res.Report.Exec.Children) == 0 {
			t.Fatal("empty ExecStats on EXPLAIN ANALYZE")
		}
	})

	t.Run("figure5-semi-naive", func(t *testing.T) {
		res := explainOf(t, filmsSession(t), fig5)
		msg := res.Message
		for _, want := range []string{
			"execution:",
			"FIX",
			"[semi-naive]",
			"rows (total",
		} {
			if !strings.Contains(msg, want) {
				t.Errorf("missing %q:\n%s", want, msg)
			}
		}
		if !strings.Contains(section(msg, "execution:"), "· round 1:") {
			t.Errorf("execution section missing the FIX rounds:\n%s", msg)
		}
		assertNoOpSpans(t, msg)
		fix := findStats(res.Report.Exec, "FIX")
		if fix == nil || len(fix.Rounds) == 0 {
			t.Fatal("FIX node missing per-round deltas")
		}
	})
}

func TestExplainParseErrors(t *testing.T) {
	s := filmsSession(t)
	if _, err := s.Exec("EXPLAIN INSERT INTO FILM VALUES (9, 'x', SET('Western'));"); err == nil {
		t.Fatal("EXPLAIN of a non-SELECT must be a parse error")
	}
	if _, err := s.Exec("EXPLAIN ANALYZE SELECT NoSuchCol FROM FILM;"); err == nil {
		t.Fatal("EXPLAIN ANALYZE of an untranslatable query must fail")
	}
}

// TestPlainExplainIsNotAQuery: a plain EXPLAIN executes nothing, so it
// never moves lera_queries_total — whether it succeeds or its translation
// fails; the failure counts only as an error. EXPLAIN ANALYZE executes,
// and counts.
func TestPlainExplainIsNotAQuery(t *testing.T) {
	s := filmsSession(t)
	s.Obs = obs.NewObserver()
	m := s.Obs.Metrics
	queries := func() int64 { return m.Counter("lera_queries_total", "").Value() }
	errs := func() int64 { return m.Counter("lera_query_errors_total", "").Value() }

	explainOf(t, s, "EXPLAIN SELECT Title FROM FILM WHERE Numf = 3;")
	if got := queries(); got != 0 {
		t.Errorf("after a plain EXPLAIN: lera_queries_total = %d, want 0", got)
	}
	if _, err := s.Exec("EXPLAIN SELECT NoSuchCol FROM FILM;"); err == nil {
		t.Fatal("EXPLAIN of an untranslatable query must fail")
	}
	if got := queries(); got != 0 {
		t.Errorf("after a failed plain EXPLAIN: lera_queries_total = %d, want 0", got)
	}
	if got := errs(); got != 1 {
		t.Errorf("after a failed plain EXPLAIN: lera_query_errors_total = %d, want 1", got)
	}
	explainOf(t, s, "EXPLAIN ANALYZE SELECT Title FROM FILM WHERE Numf = 3;")
	if got := queries(); got != 1 {
		t.Errorf("after EXPLAIN ANALYZE: lera_queries_total = %d, want 1", got)
	}
}
