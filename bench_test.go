package lera

// Micro-benchmarks under the standard Go harness: the rewriter alone
// (BenchmarkRewrite*) and the two execution shapes of the repository's
// benchmark at a tenth of its size (BenchmarkExecJoin/ExecClosure) — the
// profile-able two-second inner loops docs/PERF.md cites. The paper's
// claims are work-counter tables, not timings: cmd/benchrunner prints them
// and testdata/experiments.golden pins them; timing of record is bench/.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"lera/internal/esql"
	"lera/internal/guard"
	"lera/internal/value"
)

func filmsBench(b testing.TB, n int, opts ...Option) *Session {
	b.Helper()
	s := NewSession(opts...)
	s.MustExec(`
TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction', 'Western');
TYPE SetCategory SET OF Category;
TABLE FILM (Numf : NUMERIC, Title : CHAR, Categories : SetCategory);
`)
	cats := []string{"Comedy", "Adventure", "Science Fiction", "Western"}
	rows := make([][]value.Value, n)
	for i := 0; i < n; i++ {
		rows[i] = []value.Value{
			value.Int(int64(i + 1)),
			value.String(fmt.Sprintf("film-%d", i+1)),
			value.NewSet(value.String(cats[i%4])),
		}
	}
	if err := s.DB.Load("FILM", rows); err != nil {
		b.Fatal(err)
	}
	return s
}

func graphBench(b testing.TB, n int, opts ...Option) *Session {
	b.Helper()
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
		b.Fatal(err)
	}
	return s
}

func benchQuery(b *testing.B, s *Session, q string) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRewrite times the rewriter alone on one translated query.
func benchRewrite(b *testing.B, s *Session, query string) {
	b.Helper()
	rw, err := s.Rewriter()
	if err != nil {
		b.Fatal(err)
	}
	q, err := translateBench(s, query)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := rw.RewriteCtx(context.Background(), q, guard.Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}

const figure3Query = "SELECT Title, Categories, Salary(Refactor) FROM APPEARS_IN, FILM WHERE FILM.Numf = APPEARS_IN.Numf AND Name(Refactor) = 'Quinn' AND MEMBER('Adventure', Categories)"

// Micro: full rewrite of the paper's Figure 3 and Figure 5 queries.
func BenchmarkRewriteFigure3(b *testing.B) {
	benchRewrite(b, paperSession(b), figure3Query)
}

func BenchmarkRewriteFigure5(b *testing.B) {
	benchRewrite(b, paperSession(b), "SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'Quinn'")
}

func paperSession(b testing.TB, opts ...Option) *Session {
	b.Helper()
	s := NewSession(opts...)
	if err := s.LoadFilms(); err != nil {
		b.Fatal(err)
	}
	return s
}

// deadRuleSrc builds n rules whose LHS heads never occur in any LERA
// term, collected into one block: the rule index discards them all from
// a single map lookup.
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

// Micro: a realistic rule base padded with 64 dead-head rules — the
// many-rule regime the head index targets.
func BenchmarkRewriteManyRules(b *testing.B) {
	benchRewrite(b, paperSession(b, WithRules(deadRuleSrc(64)+deadSeq)), figure3Query)
}

// Micro: rewrite of a deep operand tree (a 12-view stack).
func BenchmarkRewriteDeepTerm(b *testing.B) {
	s := filmsBench(b, 10)
	prev := "FILM"
	for i := 1; i <= 12; i++ {
		name := fmt.Sprintf("DV%d", i)
		s.MustExec(fmt.Sprintf(
			"CREATE VIEW %s (Numf, Title, Categories) AS SELECT Numf, Title, Categories FROM %s WHERE Numf > %d;", name, prev, i))
		prev = name
	}
	benchRewrite(b, s, "SELECT Title FROM DV12 WHERE Numf < 100")
}

// Micro: the no-match worst case — a sequence of nothing but dead rules,
// so every attempted match fails and the engine's fixed costs dominate.
func BenchmarkRewriteNoMatch(b *testing.B) {
	benchRewrite(b, paperSession(b, WithRules(deadRuleSrc(64)+"seq({benchdead}, 1);")), figure3Query)
}

func translateBench(s *Session, src string) (*Term, error) {
	q, err := esql.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	res, err := s.ExecSelectCtx(context.Background(), q)
	if err != nil {
		return nil, err
	}
	return res.Initial, nil
}

// The two execution shapes of the repository's benchmark (bench/README.md)
// at a tenth of its size, one operation = ESQL text in, rendered rows out
// over the workload's 15-query list: a two-second inner loop for engine
// work, beside the 16-second harness that judges it.

// BenchmarkExecJoin is exec_join: FILM 500 ⋈ APPEARS 1500 (fan-out 3) with
// Pay > k from the whole join down to a fifteenth of it, index warm.
func BenchmarkExecJoin(b *testing.B) {
	const films, fanout, payRange = 500, 3, 1000
	s := filmsBench(b, films)
	s.Parallelism = 1
	s.MustExec(`TABLE APPEARS (Numf : NUMERIC, Pay : NUMERIC);`)
	rows := make([][]value.Value, 0, fanout*films)
	for i := 0; i < fanout*films; i++ {
		rows = append(rows, []value.Value{value.Int(int64(i%films + 1)), value.Int(int64(i * 7919 % payRange))})
	}
	if err := s.DB.Load("APPEARS", rows); err != nil {
		b.Fatal(err)
	}
	benchList(b, s, func(i int) string {
		return fmt.Sprintf("SELECT Title, Pay FROM FILM, APPEARS WHERE FILM.Numf = APPEARS.Numf AND Pay > %d", i*payRange/15)
	})
}

// BenchmarkQualifications runs served_mixed's FILM templates in process
// over 2 000 films with the plan cache on: a point query, a disjunction of
// comparisons, and an ADT call over every row beside the plain comparison
// that selects the same 2 000 rows — the qualification evaluator's cost
// per row (docs/PERF.md "One evaluator").
func BenchmarkQualifications(b *testing.B) {
	s := filmsBench(b, 2000, WithPlanCache(64))
	s.Parallelism = 1
	for _, q := range []struct{ name, query string }{
		{"point", "SELECT Title FROM FILM WHERE Numf = 24"},
		{"or", "SELECT Title FROM FILM WHERE Numf = 42 OR Numf = 43"},
		{"not_isempty", "SELECT Title FROM FILM WHERE NOT ISEMPTY(Categories) AND Numf > 0"},
		{"cmp", "SELECT Title FROM FILM WHERE Numf > 0"},
	} {
		b.Run(q.name, func(b *testing.B) { benchQuery(b, s, q.query) })
	}
}

// BenchmarkIndexAccessPath is the in-process table of docs/PERF.md "Index
// access paths": a point query and a narrow range over 20 and over 2 000
// films, plan cache on. Read through the sorted column index, the query
// over 2 000 films costs about what it costs over 20; scanned, it tested
// every film.
func BenchmarkIndexAccessPath(b *testing.B) {
	for _, n := range []int{20, 2000} {
		s := filmsBench(b, n, WithPlanCache(64))
		s.Parallelism = 1
		for _, q := range []struct{ name, query string }{
			{"point", "SELECT Title FROM FILM WHERE Numf = 14"},
			{"range", "SELECT Title FROM FILM WHERE Numf > 10 AND Numf < 15"},
		} {
			b.Run(fmt.Sprintf("%s/films=%d", q.name, n), func(b *testing.B) { benchQuery(b, s, q.query) })
		}
	}
}

// BenchmarkExecClosure is exec_closure: the focused closure over chain(70)
// at 15 positions along the chain.
func BenchmarkExecClosure(b *testing.B) {
	const chain = 70
	s := graphBench(b, chain)
	s.Parallelism = 1
	benchList(b, s, func(i int) string {
		return fmt.Sprintf("SELECT Src FROM TC WHERE Dst = %d", (i+1)*chain/15)
	})
}

// benchList runs the 15-query list q(0..14) once per iteration, rendering
// every answer, after one warm-up pass.
func benchList(b *testing.B, s *Session, q func(i int) string) {
	b.Helper()
	pass := func() {
		for i := 0; i < 15; i++ {
			res, err := s.Query(q(i))
			if err != nil {
				b.Fatal(err)
			}
			if FormatResult(res) == "" {
				b.Fatal("empty rendering")
			}
		}
	}
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
