package rewrite_test

// Work-counter regression tests for the rewrite-engine hot path: on a
// fixed corpus the session's indexed engine must produce byte-identical
// rewrites with identical condition checks (the §4.2 budget currency)
// while attempting strictly fewer matches than the full-scan oracle
// (FullScan, export_test.go), and its attempt count must stay under a
// recorded ceiling so a regression that quietly re-grows the hot path
// fails loudly. CI runs this under -race.

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"lera/internal/core"
	"lera/internal/esql"
	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/rewrite"
	"lera/internal/term"
	"lera/internal/translate"
	"lera/internal/value"
)

// filmsBench is a FILM table of n generated rows.
func filmsBench(tb testing.TB, n int, opts ...core.Option) *core.Session {
	tb.Helper()
	s := core.NewSession(opts...)
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
func graphBench(tb testing.TB, n int) *core.Session {
	tb.Helper()
	s := core.NewSession()
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

// indexCorpus is a fixed set of (session builder, query) pairs spanning
// the optimizer's main regimes: view merging, selection pushing through
// sets, the Alexander fixpoint reduction, and semantic short-circuits.
var indexCorpus = []struct {
	name  string
	build func(tb testing.TB) *core.Session
	query string
}{
	{"films-member", func(tb testing.TB) *core.Session {
		return filmsBench(tb, 8)
	}, "SELECT Title FROM FILM WHERE MEMBER('Comedy', Categories) AND Numf > 2"},
	{"films-viewstack", func(tb testing.TB) *core.Session {
		s := filmsBench(tb, 8)
		s.MustExec("CREATE VIEW RV1 (Numf, Title, Categories) AS SELECT Numf, Title, Categories FROM FILM WHERE Numf > 1;")
		s.MustExec("CREATE VIEW RV2 (Numf, Title, Categories) AS SELECT Numf, Title, Categories FROM RV1 WHERE Numf > 2;")
		return s
	}, "SELECT Title FROM RV2 WHERE Numf < 100"},
	{"graph-closure", func(tb testing.TB) *core.Session {
		return graphBench(tb, 12)
	}, "SELECT Src FROM TC WHERE Dst = 6"},
	{"paper-figure3", func(tb testing.TB) *core.Session {
		s := core.NewSession()
		if err := s.LoadFilms(); err != nil {
			tb.Fatal(err)
		}
		return s
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

// rewriteBoth rewrites query on session s with the session's rewriter and
// with the full-scan oracle over the same rule base, returning each plan
// and its Stats.
func rewriteBoth(t *testing.T, s *core.Session, query string) (indexed, full *term.Term, si, sf *rewrite.Stats) {
	t.Helper()
	rw, err := s.Rewriter()
	if err != nil {
		t.Fatal(err)
	}
	sel, err := esql.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	q, err := translate.Select(s.Cat, sel)
	if err != nil {
		t.Fatal(err)
	}
	indexed, si, err = rw.RewriteCtx(context.Background(), q, guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := rewrite.FullScan(rewrite.New(rw.RS, rw.Ext, rw.Cat, nil))
	full, sf, err = oracle.RunCtx(context.Background(), q, guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return indexed, full, si, sf
}

func TestIndexedRewriteMatchesFullScan(t *testing.T) {
	for _, c := range indexCorpus {
		t.Run(c.name, func(t *testing.T) {
			pi, pf, si, sf := rewriteBoth(t, c.build(t), c.query)
			if oi, of := lera.Format(pi), lera.Format(pf); oi != of {
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
// session's answer and the rows of the full-scan oracle's plan must be
// the same.
func TestIndexedExecutionMatchesFullScan(t *testing.T) {
	for _, c := range indexCorpus {
		t.Run(c.name, func(t *testing.T) {
			ri, err := c.build(t).Query(c.query)
			if err != nil {
				t.Fatal(err)
			}
			sf := c.build(t)
			_, plan, _, _ := rewriteBoth(t, sf, c.query)
			rel, err := sf.DB.EvalCtx(context.Background(), plan)
			if err != nil {
				t.Fatal(err)
			}
			rf := &core.Result{Kind: core.ResultRows, Columns: ri.Columns, Rows: rel.Rows, Message: fmt.Sprintf("%d rows", len(rel.Rows))}
			if gi, gf := core.FormatResult(ri), core.FormatResult(rf); gi != gf {
				t.Errorf("results diverge:\nindexed:\n%s\nfull-scan:\n%s", gi, gf)
			}
		})
	}
}

// TestManyRuleBlockTwoFold pins the acceptance bar of the hot-path change
// on the many-rule regime specifically: with 64 dead-head rules added, the
// indexed engine must do less than half the full-scan's match attempts.
func TestManyRuleBlockTwoFold(t *testing.T) {
	s := filmsBench(t, 8, core.WithRules(deadRuleSrc(64)+deadSeq))
	_, _, si, sf := rewriteBoth(t, s, "SELECT Title FROM FILM WHERE MEMBER('Comedy', Categories) AND Numf > 2")
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

// TestSitePathsMatchWalk: the full-scan oracle visits sites through the
// site index too, so the index's parent links are checked here against
// the preorder walk instead: over the corpus roots, entry id is the id'th
// Fun node of term.Walk, its materialized path is the walk's path, and
// term.At finds the entry's node at that path.
func TestSitePathsMatchWalk(t *testing.T) {
	roots, _ := corpusRoots(t)
	sites := 0
	for _, root := range roots {
		nodes, paths := rewrite.SitePaths(root)
		id := 0
		term.Walk(root, func(sub *term.Term, path term.Path) bool {
			if sub.Kind != term.Fun {
				return true
			}
			switch {
			case id >= len(nodes):
				t.Errorf("%s: the walk reaches Fun node %d, the index has %d sites", root, id, len(nodes))
			case nodes[id] != sub || !slices.Equal(paths[id], path):
				t.Errorf("%s: site %d is %s at %v, the walk's is %s at %v", root, id, nodes[id], paths[id], sub, path)
			case term.At(root, paths[id]) != nodes[id]:
				t.Errorf("%s: term.At(root, %v) is not site %d's node", root, paths[id], id)
			}
			id++
			return true
		})
		if id != len(nodes) {
			t.Errorf("%s: the walk has %d Fun nodes, the index %d sites", root, id, len(nodes))
		}
		sites += id
	}
	if sites == 0 {
		t.Fatal("the corpus has no sites")
	}
	t.Logf("%d roots, %d sites", len(roots), sites)
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
