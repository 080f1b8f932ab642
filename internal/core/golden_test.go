package core

import (
	"testing"

	"lera/internal/lera"
)

// goldenCases pins the exact LERA form a query translates to and the
// exact form the default rewriter produces, plus the answer cardinality
// on the Figure 2 sample instance. Any change to the default rule base
// that alters a plan shows up here as a reviewable diff.
var goldenCases = []struct {
	query  string
	before string
	after  string
	rows   int
}{
	{
		query:  "SELECT Title FROM FILM WHERE Numf = 1",
		before: "search((FILM), [1.1=1], (1.2))",
		after:  "search((FILM), [1.1=1], (1.2))",
		rows:   1,
	},
	{
		query:  "SELECT Title, Categories, Salary(Refactor) FROM APPEARS_IN, FILM WHERE FILM.Numf = APPEARS_IN.Numf AND Name(Refactor) = 'Quinn' AND MEMBER('Adventure', Categories)",
		before: "search((APPEARS_IN, FILM), [1.1=2.1 ∧ name(1.2)='Quinn' ∧ member('Adventure', 2.3)], (2.2, 2.3, salary(1.2)))",
		after:  "search((APPEARS_IN, FILM), [1.1=2.1 ∧ PROJECT(VALUE(1.2), Name)='Quinn' ∧ member('Adventure', 2.3)], (2.2, 2.3, PROJECT(VALUE(1.2), Salary)))",
		rows:   1,
	},
	{
		query:  "SELECT Title FROM FilmActors WHERE MEMBER('Adventure', Categories) AND ALL(Salary(Actors) > 10000)",
		before: "search((nest(search((FILM, APPEARS_IN), [1.1=2.1], (1.2, 1.3, 2.2)), (3), Actors)), [all(salary(1.3)>10000) ∧ member('Adventure', 1.2)], (1.1))",
		after:  "search((nest(search((FILM, APPEARS_IN), [1.1=2.1 ∧ member('Adventure', 1.3)], (1.2, 1.3, 2.2)), (3), Actors)), [all(PROJECT(1.3, Salary)>10000)], (1.1))",
		rows:   2,
	},
	{
		query:  "SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'Quinn'",
		before: "search((fix(BETTER_THAN, union({search((DOMINATE), [true], (1.2, 1.3)), search((BETTER_THAN, BETTER_THAN), [1.2=2.1], (1.1, 2.2))}))), [name(1.2)='Quinn'], (name(1.1)))",
		after:  "search((fix(BETTER_THAN, union({search((DOMINATE), [PROJECT(VALUE(1.3), Name)='Quinn'], (1.2, 1.3)), search((BETTER_THAN, DOMINATE), [2.3=1.1], (2.2, 1.2))}))), [PROJECT(VALUE(1.2), Name)='Quinn'], (PROJECT(VALUE(1.1), Name)))",
		rows:   5,
	},
	{
		query:  "SELECT Numf FROM FILM WHERE Numf = 1 OR Numf = 2",
		before: "search((FILM), [1.1=1 ∨ 1.1=2], (1.1))",
		after:  "search((FILM), [1.1=1 ∨ 1.1=2], (1.1))",
		rows:   2,
	},
	{
		query:  "SELECT Title FROM FILM WHERE MEMBER('Cartoon', Categories)",
		before: "search((FILM), [member('Cartoon', 1.3)], (1.2))",
		after:  "search((FILM), [FALSE], (1.2))",
		rows:   0,
	},
	{
		query:  "SELECT Title FROM FILM WHERE 2 + 3 = 5 AND Numf = 1",
		before: "search((FILM), [(2 + 3)=5 ∧ 1.1=1], (1.2))",
		after:  "search((FILM), [1.1=1], (1.2))",
		rows:   1,
	},
	{
		query:  "SELECT Title FROM FILM WHERE Numf > 2 AND Numf <= 2",
		before: "search((FILM), [1.1<=2 ∧ 1.1>2], (1.2))",
		after:  "search((FILM), [FALSE], (1.2))",
		rows:   0,
	},
	{
		query:  "SELECT Title FROM AdvFilms WHERE Numf = 1",
		before: "search((search((FILM), [member('Adventure', 1.3)], (1.1, 1.2))), [1.1=1], (1.2))",
		after:  "search((FILM), [1.1=1 ∧ member('Adventure', 1.3)], (1.2))",
		rows:   1,
	},
	{
		query:  "SELECT D1.Numf FROM DOMINATE D1, DOMINATE D2 WHERE D1.Refactor2 = D2.Refactor1",
		before: "search((DOMINATE, DOMINATE), [1.3=2.2], (1.1))",
		after:  "search((DOMINATE, DOMINATE), [1.3=2.2], (1.1))",
		rows:   3,
	},
	{
		query:  "SELECT Numf FROM EITHERF WHERE Numf < 2",
		before: "search((union({search((APPEARS_IN), [true], (1.1)), search((FILM), [true], (1.1))})), [1.1<2], (1.1))",
		after:  "union({search((APPEARS_IN), [1.1<2], (1.1)), search((FILM), [1.1<2], (1.1))})",
		rows:   1,
	},
	{
		query:  "SELECT Title FROM FILM WHERE NOT ISEMPTY(Categories) AND Numf = 3",
		before: "search((FILM), [1.1=3 ∧ ¬(isempty(1.3))], (1.2))",
		after:  "search((FILM), [1.1=3 ∧ ¬(isempty(1.3))], (1.2))",
		rows:   1,
	},
	{
		query:  "SELECT Refactor2 FROM BETTER_THAN WHERE Name(Refactor1) = 'Quinn'",
		before: "search((fix(BETTER_THAN, union({search((DOMINATE), [true], (1.2, 1.3)), search((BETTER_THAN, BETTER_THAN), [1.2=2.1], (1.1, 2.2))}))), [name(1.1)='Quinn'], (1.2))",
		after:  "search((fix(BETTER_THAN, union({search((DOMINATE), [PROJECT(VALUE(1.2), Name)='Quinn'], (1.2, 1.3)), search((BETTER_THAN, DOMINATE), [1.2=2.2], (1.1, 2.3))}))), [PROJECT(VALUE(1.1), Name)='Quinn'], (1.2))",
		rows:   0,
	},
	{
		query:  "SELECT Title FROM DEEP2 WHERE Numf = 1",
		before: "search((search((search((search((FILM), [member('Adventure', 1.3)], (1.1, 1.2))), [1.1>0], (1.1, 1.2))), [1.1<100], (1.1, 1.2))), [1.1=1], (1.2))",
		after:  "search((FILM), [1.1<100 ∧ 1.1=1 ∧ 1.1>0 ∧ member('Adventure', 1.3)], (1.2))",
		rows:   1,
	},
}

func goldenSession(t testing.TB, opts ...Option) *Session {
	t.Helper()
	s := NewSession(opts...)
	if err := s.LoadFilms(); err != nil {
		t.Fatal(err)
	}
	s.MustExec("CREATE VIEW AdvFilms (Numf, Title) AS SELECT Numf, Title FROM FILM WHERE MEMBER('Adventure', Categories);")
	s.MustExec("CREATE VIEW EITHERF (Numf) AS SELECT Numf FROM FILM UNION SELECT Numf FROM APPEARS_IN;")
	s.MustExec("CREATE VIEW DEEP1 (Numf, Title) AS SELECT Numf, Title FROM AdvFilms WHERE Numf > 0;")
	s.MustExec("CREATE VIEW DEEP2 (Numf, Title) AS SELECT Numf, Title FROM DEEP1 WHERE Numf < 100;")
	return s
}

func TestGoldenPlans(t *testing.T) {
	s := goldenSession(t)
	for _, c := range goldenCases {
		res, err := s.Query(c.query)
		if err != nil {
			t.Errorf("%s: %v", c.query, err)
			continue
		}
		if got := lera.Format(res.Initial); got != c.before {
			t.Errorf("%s\n  before = %s\n  want     %s", c.query, got, c.before)
		}
		if got := lera.Format(res.Rewritten); got != c.after {
			t.Errorf("%s\n  after = %s\n  want    %s", c.query, got, c.after)
		}
		if len(res.Rows) != c.rows {
			t.Errorf("%s: rows = %d, want %d", c.query, len(res.Rows), c.rows)
		}
	}
}
