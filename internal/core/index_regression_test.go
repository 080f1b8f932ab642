package core

// Work-counter regression tests for the rewrite-engine hot path: on a
// fixed corpus the indexed engine must produce byte-identical rewrites
// with identical condition checks (the §4.2 budget currency) while
// attempting strictly fewer matches than the full-scan oracle, and its
// attempt count must stay under a recorded ceiling so a regression that
// quietly re-grows the hot path fails loudly. CI runs this under -race.
//
// The full-scan match loop (rewrite.Options.FullScan) is a test-only
// oracle: no public option selects it, so these tests live in-package and
// set the config field directly.

import (
	"fmt"
	"strings"
	"testing"

	"lera/internal/esql"
	"lera/internal/lera"
	"lera/internal/rewrite"
	"lera/internal/term"
	"lera/internal/value"
)

// fullScan selects the full-scan match loop.
func fullScan(c *config) { c.fullScan = true }

// filmsBench is a FILM table of n generated rows.
func filmsBench(tb testing.TB, n int, opts ...Option) *Session {
	tb.Helper()
	s := NewSession(opts...)
	s.MustExec(`
TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction', 'Western');
TYPE SetCategory SET OF Category;
TABLE FILM (Numf : NUMERIC, Title : CHAR, Categories : SetCategory);
`)
	cats := []string{"Comedy", "Adventure", "Science Fiction", "Western"}
	rows := make([][]value.Value, n)
	for i := range rows {
		rows[i] = []value.Value{
			value.Int(int64(i + 1)),
			value.String(fmt.Sprintf("film-%d", i+1)),
			value.NewSet(value.String(cats[i%4])),
		}
	}
	if err := s.DB.Load("FILM", rows); err != nil {
		tb.Fatal(err)
	}
	return s
}

// graphBench is a chain EDGE graph of n nodes under the recursive TC view.
func graphBench(tb testing.TB, n int, opts ...Option) *Session {
	tb.Helper()
	s := NewSession(opts...)
	s.MustExec(`
TABLE EDGE (Src : INT, Dst : INT);
CREATE VIEW TC (Src, Dst) AS (
  SELECT Src, Dst FROM EDGE
  UNION
  SELECT T1.Src, T2.Dst FROM TC T1, TC T2 WHERE T1.Dst = T2.Src );
`)
	rows := make([][]value.Value, 0, n-1)
	for i := 1; i < n; i++ {
		rows = append(rows, []value.Value{value.Int(int64(i)), value.Int(int64(i + 1))})
	}
	if err := s.DB.Load("EDGE", rows); err != nil {
		tb.Fatal(err)
	}
	return s
}

// deadRuleSrc builds n rules whose LHS heads never occur in any LERA
// term, collected into one block. The full-scan engine still attempts
// every rule at every node; the indexed engine discards them all from a
// single map lookup.
func deadRuleSrc(n int) string {
	var src strings.Builder
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&src, "rule bdead%d: BENCHDEAD%d(x) --> BENCHGONE%d(x);\n", i, i, i)
		names = append(names, fmt.Sprintf("bdead%d", i))
	}
	fmt.Fprintf(&src, "block(benchdead, {%s}, inf);\n", strings.Join(names, ", "))
	return src.String()
}

const deadSeq = "seq({typecheck, normalize, merge, push, fixpoint, merge, constraints, semantic, simplify, merge, benchdead}, 2);"

// translated returns the unrewritten LERA term of a SELECT.
func translated(s *Session, src string) (*term.Term, error) {
	q, err := esql.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	res, err := s.ExecSelect(q)
	if err != nil {
		return nil, err
	}
	return res.Initial, nil
}

// indexCorpus is a fixed set of (session builder, query) pairs spanning
// the optimizer's main regimes: view merging, selection pushing through
// sets, the Alexander fixpoint reduction, and semantic short-circuits.
var indexCorpus = []struct {
	name  string
	build func(tb testing.TB, opts ...Option) *Session
	query string
}{
	{"films-member", func(tb testing.TB, opts ...Option) *Session {
		return filmsBench(tb, 8, opts...)
	}, "SELECT Title FROM FILM WHERE MEMBER('Comedy', Categories) AND Numf > 2"},
	{"films-viewstack", func(tb testing.TB, opts ...Option) *Session {
		s := filmsBench(tb, 8, opts...)
		s.MustExec("CREATE VIEW RV1 (Numf, Title, Categories) AS SELECT Numf, Title, Categories FROM FILM WHERE Numf > 1;")
		s.MustExec("CREATE VIEW RV2 (Numf, Title, Categories) AS SELECT Numf, Title, Categories FROM RV1 WHERE Numf > 2;")
		return s
	}, "SELECT Title FROM RV2 WHERE Numf < 100"},
	{"graph-closure", func(tb testing.TB, opts ...Option) *Session {
		return graphBench(tb, 12, opts...)
	}, "SELECT Src FROM TC WHERE Dst = 6"},
	{"paper-figure3", func(tb testing.TB, opts ...Option) *Session {
		return filmsSession(tb.(*testing.T), opts...)
	}, "SELECT Title, Categories, Salary(Refactor) FROM APPEARS_IN, FILM WHERE FILM.Numf = APPEARS_IN.Numf AND Name(Refactor) = 'Quinn' AND MEMBER('Adventure', Categories)"},
}

// attemptCeilings records, per corpus entry, a generous upper bound on the
// indexed engine's match attempts (observed value plus headroom). If an
// engine change pushes past one of these, the hot path has regressed.
var attemptCeilings = map[string]int{
	"films-member":    700,  // observed 67
	"films-viewstack": 800,  // observed 74
	"graph-closure":   2200, // observed 218
	"paper-figure3":   900,  // observed 89
}

func rewriteWith(t *testing.T, build func(tb testing.TB, opts ...Option) *Session, query string, opts ...Option) (string, *rewrite.Stats) {
	t.Helper()
	s := build(t, opts...)
	rw, err := s.Rewriter()
	if err != nil {
		t.Fatal(err)
	}
	q, err := translated(s, query)
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := rw.Rewrite(q)
	if err != nil {
		t.Fatal(err)
	}
	return lera.Format(out), st
}

func TestIndexedRewriteMatchesFullScan(t *testing.T) {
	for _, c := range indexCorpus {
		t.Run(c.name, func(t *testing.T) {
			oi, si := rewriteWith(t, c.build, c.query)
			of, sf := rewriteWith(t, c.build, c.query, fullScan)
			if oi != of {
				t.Errorf("rewritten terms diverge:\nindexed:   %s\nfull-scan: %s", oi, of)
			}
			if si.ConditionChecks != sf.ConditionChecks || si.Applications != sf.Applications || si.Rounds != sf.Rounds {
				t.Errorf("stats diverge: indexed %+v, full-scan %+v", si, sf)
			}
			if si.MatchAttempts >= sf.MatchAttempts {
				t.Errorf("index saved nothing: indexed attempts %d >= full-scan %d",
					si.MatchAttempts, sf.MatchAttempts)
			}
			if 2*si.MatchAttempts > sf.MatchAttempts {
				t.Errorf("index below the 2x bar: indexed attempts %d vs full-scan %d",
					si.MatchAttempts, sf.MatchAttempts)
			}
			ceiling, ok := attemptCeilings[c.name]
			if !ok {
				t.Fatalf("no attempt ceiling recorded for %s", c.name)
			}
			if si.MatchAttempts > ceiling {
				t.Errorf("indexed attempts %d exceed the recorded ceiling %d — hot path regressed",
					si.MatchAttempts, ceiling)
			}
			t.Logf("attempts: indexed %d, full-scan %d (%.1fx); checks %d",
				si.MatchAttempts, sf.MatchAttempts,
				float64(sf.MatchAttempts)/float64(si.MatchAttempts), si.ConditionChecks)
		})
	}
}

// TestIndexedExecutionMatchesFullScan runs the corpus end to end — the
// rewritten plans must execute to the same rows either way.
func TestIndexedExecutionMatchesFullScan(t *testing.T) {
	for _, c := range indexCorpus {
		t.Run(c.name, func(t *testing.T) {
			si := c.build(t)
			sf := c.build(t, fullScan)
			ri, err := si.Query(c.query)
			if err != nil {
				t.Fatal(err)
			}
			rf, err := sf.Query(c.query)
			if err != nil {
				t.Fatal(err)
			}
			gi, gf := FormatResult(ri), FormatResult(rf)
			if gi != gf {
				t.Errorf("results diverge:\nindexed:\n%s\nfull-scan:\n%s", gi, gf)
			}
		})
	}
}

// TestManyRuleBlockTwoFold pins the acceptance bar of the hot-path PR on
// the many-rule regime specifically: with 64 dead-head rules added, the
// indexed engine must do less than half the full-scan's match attempts.
func TestManyRuleBlockTwoFold(t *testing.T) {
	opts := []Option{WithRules(deadRuleSrc(64)), WithSequence(deadSeq)}
	q := "SELECT Title FROM FILM WHERE MEMBER('Comedy', Categories) AND Numf > 2"
	build := func(tb testing.TB, o ...Option) *Session {
		return filmsBench(tb, 8, append(append([]Option{}, opts...), o...)...)
	}
	_, si := rewriteWith(t, build, q)
	_, sf := rewriteWith(t, build, q, fullScan)
	if 2*si.MatchAttempts > sf.MatchAttempts {
		t.Errorf("many-rule block: indexed attempts %d not 2x under full-scan %d",
			si.MatchAttempts, sf.MatchAttempts)
	}
	if si.ConditionChecks != sf.ConditionChecks {
		t.Errorf("condition checks diverge: %d vs %d", si.ConditionChecks, sf.ConditionChecks)
	}
	t.Logf("many-rule: indexed %d vs full-scan %d attempts (%.1fx)",
		si.MatchAttempts, sf.MatchAttempts, float64(sf.MatchAttempts)/float64(si.MatchAttempts))
}

// sanity: the ceilings table and the corpus stay in sync.
func TestAttemptCeilingsCoverCorpus(t *testing.T) {
	for _, c := range indexCorpus {
		if _, ok := attemptCeilings[c.name]; !ok {
			t.Errorf("corpus entry %q has no ceiling", c.name)
		}
	}
	for name := range attemptCeilings {
		found := false
		for _, c := range indexCorpus {
			found = found || c.name == name
		}
		if !found {
			t.Errorf("ceiling %q has no corpus entry", name)
		}
	}
}
