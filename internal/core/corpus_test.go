package core

// The query corpus the trace-ledger, plan-cache and shared-rewriter tests
// run over (internal/rewrite's fullscan_test.go pins the match index on
// the same corpus).

import (
	"fmt"
	"testing"

	"lera/internal/esql"
	"lera/internal/term"
	"lera/internal/translate"
	"lera/internal/value"
)

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

// translated returns the unrewritten LERA term of a SELECT.
func translated(s *Session, src string) (*term.Term, error) {
	q, err := esql.ParseQuery(src)
	if err != nil {
		return nil, err
	}
	return translate.Select(s.Cat, q)
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
