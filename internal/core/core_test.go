package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"lera/internal/esql"
	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/rules"
	"lera/internal/term"
	"lera/internal/testdb"
	"lera/internal/value"
)

// filmsSession builds a session with the Figure 2 schema (via DDL), the
// Figure 4/5 views, and the sample instance loaded.
func filmsSession(t *testing.T, opts ...Option) *Session {
	t.Helper()
	s := NewSession(opts...)
	if err := s.LoadFilms(); err != nil {
		t.Fatal(err)
	}
	return s
}

func sortedCol(rows [][]value.Value, j int) []string {
	var out []string
	for _, r := range rows {
		out = append(out, r[j-1].String())
	}
	sort.Strings(out)
	return out
}

// TestTypecheckRules: the §3.3 conversion — Salary(Refactor) becomes
// PROJECT(VALUE(Refactor), Salary) — runs as a rule block.
func TestTypecheckRules(t *testing.T) {
	s := filmsSession(t)
	rw, err := s.Rewriter()
	if err != nil {
		t.Fatal(err)
	}
	q := lera.Search(
		[]*term.Term{lera.Rel("APPEARS_IN")},
		lera.Ands(lera.Cmp(">", lera.Call("Salary", lera.Attr(1, 2)), term.Num(1000))),
		[]*term.Term{lera.Attr(1, 1)},
	)
	out, _, err := rw.eng.RunBlockCtx(context.Background(), q, "typecheck", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	got := lera.Format(out)
	if !strings.Contains(got, "PROJECT(VALUE(1.2), Salary)>1000") {
		t.Errorf("typecheck = %s", got)
	}
	// MEMBER becomes a direct ADT application.
	q2 := lera.Search(
		[]*term.Term{lera.Rel("FILM")},
		lera.Ands(lera.Call("Member", term.Str("Adventure"), lera.Attr(1, 3))),
		[]*term.Term{lera.Attr(1, 1)},
	)
	out2, _, err := rw.eng.RunBlockCtx(context.Background(), q2, "typecheck", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if term.Contains(out2, func(s *term.Term) bool { return lera.IsOp(s, lera.ECall) }) {
		t.Errorf("CALL survived typecheck: %s", lera.Format(out2))
	}
}

// TestFigure7 runs the merge block through the full rewriter on a view
// expansion: the nested searches of TestViewExpansion collapse.
func TestFigure7(t *testing.T) {
	s := filmsSession(t)
	s.MustExec("CREATE VIEW AdvFilms (Numf, Title) AS SELECT Numf, Title FROM FILM WHERE MEMBER('Adventure', Categories);")
	res, err := s.Query("SELECT Title FROM AdvFilms WHERE Numf = 1")
	if err != nil {
		t.Fatal(err)
	}
	if lera.SearchCount(res.Initial) != 2 {
		t.Fatalf("expected nested searches before rewrite: %s", lera.Format(res.Initial))
	}
	if lera.SearchCount(res.Rewritten) != 1 {
		t.Errorf("merge failed: %s", lera.Format(res.Rewritten))
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Lawrence of Arabia" {
		t.Errorf("rows = %v", res.Rows)
	}
}

// TestFigure8 exercises push-through-nest inside the full pipeline via
// the Figure 4 query.
func TestFigure8(t *testing.T) {
	s := filmsSession(t)
	res, err := s.Query(strings.TrimSuffix(strings.TrimSpace(esql.Figure4Query), ";"))
	if err != nil {
		t.Fatal(err)
	}
	got := sortedCol(res.Rows, 1)
	if len(got) != 2 || got[0] != "'Casablanca'" || got[1] != "'Lawrence of Arabia'" {
		t.Fatalf("Figure 4 answers = %v", got)
	}
	// The member predicate was pushed inside the nest (it references
	// only non-nested attributes), the ALL predicate stayed outside.
	f := lera.Format(res.Rewritten)
	nestIdx := strings.Index(f, "nest(")
	memberIdx := strings.Index(f, "member(")
	if nestIdx < 0 || memberIdx < 0 || memberIdx < nestIdx {
		t.Errorf("member predicate not pushed inside nest:\n%s", f)
	}
	if !strings.Contains(f, "all(") {
		t.Errorf("ALL predicate missing: %s", f)
	}
}

// TestFigure9 runs the Figure 5 query end to end: the Alexander rule
// fires inside the full sequence and answers stay correct.
func TestFigure9EndToEnd(t *testing.T) {
	s := filmsSession(t)
	res, err := s.Query(strings.TrimSuffix(strings.TrimSpace(esql.Figure5Query), ";"))
	if err != nil {
		t.Fatal(err)
	}
	got := sortedCol(res.Rows, 1)
	var want []string
	for _, n := range testdb.DominatorsOfQuinn() {
		want = append(want, "'"+n+"'")
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("dominators = %v, want %v", got, want)
	}
	// The focused program contains a filtered seed.
	f := lera.Format(res.Rewritten)
	if !strings.Contains(f, "fix(") {
		t.Fatalf("fix missing: %s", f)
	}
	if !strings.Contains(f, "'Quinn']") || strings.Count(f, "'Quinn'") < 2 {
		t.Errorf("seed filter missing (Alexander did not fire):\n%s", f)
	}
}

// TestRewritePreservesResults: on every example query, rewritten and
// unrewritten programs produce the same rows (the soundness property).
func TestRewritePreservesResults(t *testing.T) {
	queries := []string{
		"SELECT Title FROM FILM WHERE Numf = 1",
		"SELECT Title, Categories, Salary(Refactor) FROM FILM, APPEARS_IN WHERE FILM.Numf = APPEARS_IN.Numf AND Name(Refactor) = 'Quinn' AND MEMBER('Adventure', Categories)",
		"SELECT Title FROM FilmActors WHERE MEMBER('Adventure', Categories) AND ALL(Salary(Actors) > 10000)",
		"SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'Quinn'",
		"SELECT Numf FROM FILM WHERE Numf = 1 OR Numf = 2",
		"SELECT D1.Numf FROM DOMINATE D1, DOMINATE D2 WHERE D1.Refactor2 = D2.Refactor1",
		"SELECT Title FROM FILM WHERE MEMBER('Western', Categories) AND Numf > 0",
	}
	on := filmsSession(t)
	off := filmsSession(t)
	off.Rewrite = false
	for _, q := range queries {
		r1, err := on.Query(q)
		if err != nil {
			t.Fatalf("%s (rewritten): %v", q, err)
		}
		r2, err := off.Query(q)
		if err != nil {
			t.Fatalf("%s (raw): %v", q, err)
		}
		if k1, k2 := canon(r1.Rows), canon(r2.Rows); k1 != k2 {
			t.Errorf("%s: results differ\nrewritten: %v\nraw: %v", q, k1, k2)
		}
	}
}

// TestInconsistencyShortCircuit: the Section 6.1 example — a query for
// 'Cartoon' films touches zero tuples after rewriting (E5).
func TestInconsistencyShortCircuit(t *testing.T) {
	s := filmsSession(t)
	s.DB.ResetCounters()
	res, err := s.Query("SELECT Title FROM FILM WHERE MEMBER('Cartoon', Categories)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if !term.Equal(res.Rewritten.Args[1], term.FalseT()) {
		t.Errorf("qualification not simplified to FALSE: %s", lera.Format(res.Rewritten))
	}
	if s.DB.Count.Scanned != 0 {
		t.Errorf("scanned %d tuples, want 0", s.DB.Count.Scanned)
	}
	// Without rewriting, the same query scans the table.
	off := filmsSession(t)
	off.Rewrite = false
	off.DB.ResetCounters()
	if _, err := off.Query("SELECT Title FROM FILM WHERE MEMBER('Cartoon', Categories)"); err != nil {
		t.Fatal(err)
	}
	if off.DB.Count.Scanned == 0 {
		t.Error("raw query should scan the table")
	}
}

// TestDynamicLimits (§7): a key-lookup query is left untouched when
// dynamic limits are enabled; a complex query still gets rewritten.
func TestDynamicLimits(t *testing.T) {
	s := filmsSession(t, WithDynamicLimits())
	res, err := s.Query("SELECT Title FROM FILM WHERE Numf = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Applications != 0 {
		t.Errorf("simple query rewritten %d times under dynamic limits", res.Stats.Applications)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
	// The recursive query is complex and still gets the full treatment.
	res2, err := s.Query("SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'Quinn'")
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Applications == 0 {
		t.Error("complex query should be rewritten")
	}
	if len(res2.Rows) != len(testdb.DominatorsOfQuinn()) {
		t.Errorf("rows = %v", res2.Rows)
	}
}

// TestWithoutBlockAndBlockLimit: §7's knob — a zero block limit turns
// the block off.
func TestWithoutBlockAndBlockLimit(t *testing.T) {
	s := filmsSession(t, WithBlockLimit("fixpoint", 0))
	res, err := s.Query("SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'Quinn'")
	if err != nil {
		t.Fatal(err)
	}
	f := lera.Format(res.Rewritten)
	if strings.Count(f, "'Quinn'") != 1 {
		t.Errorf("fixpoint block disabled but seed filtered:\n%s", f)
	}
	if len(res.Rows) != len(testdb.DominatorsOfQuinn()) {
		t.Errorf("rows = %d", len(res.Rows))
	}
	// Zeroing the merge block leaves view-expansion searches nested.
	s2 := filmsSession(t, WithBlockLimit("merge", 0))
	s2.MustExec("CREATE VIEW AdvFilms (Numf, Title) AS SELECT Numf, Title FROM FILM WHERE MEMBER('Adventure', Categories);")
	res2, err := s2.Query("SELECT Title FROM AdvFilms WHERE Numf = 1")
	if err != nil {
		t.Fatal(err)
	}
	if lera.SearchCount(res2.Rewritten) != 2 {
		t.Errorf("merge disabled but searches merged: %s", lera.Format(res2.Rewritten))
	}
	if len(res2.Rows) != 1 {
		t.Errorf("rows = %v", res2.Rows)
	}
}

// TestBlockLimitRejectsWhatItCannotApply: a block limit must name a
// block of the assembled rule base — built-in or added by WithRules,
// whatever the option order — and be a budget or
// rules.Infinite; anything else fails construction, naming the block.
func TestBlockLimitRejectsWhatItCannotApply(t *testing.T) {
	const extra = "rule dbl: NEG(NEG(x)) --> x;\nblock(extra, {dbl}, inf);"
	for _, c := range []struct {
		opts []Option
		bad  string
	}{
		{[]Option{WithBlockLimit("merg", 0)}, `"merg"`},
		{[]Option{WithBlockLimit("merge", rules.Infinite-1)}, `"merge"`},
		{[]Option{WithBlockLimit("extra", 0)}, `"extra"`},
		{[]Option{WithBlockLimit("merge", rules.Infinite)}, ""},
		{[]Option{WithBlockLimit("extra", 0), WithRules(extra)}, ""},
	} {
		_, err := NewSession(c.opts...).Rewriter()
		switch {
		case c.bad == "" && err != nil:
			t.Errorf("valid block limit refused: %v", err)
		case c.bad != "" && (err == nil || !strings.Contains(err.Error(), c.bad)):
			t.Errorf("block limit on %s: err = %v, want an error naming it", c.bad, err)
		}
	}
}

// TestExtensibility (E9): a database implementor registers a new ADT
// (Interval) with an OVERLAPS method and a rewrite rule that exploits its
// symmetry — no engine changes.
func TestExtensibility(t *testing.T) {
	s := NewSession(WithRules(`
rule overlaps_symmetry:
  ANDS(SET(w*, OVERLAPS(x, y), OVERLAPS(y, x)))
  / DISTINCT(x, y)
  --> ANDS(SET(w*, OVERLAPS(x, y))) / ;
block(extension, {overlaps_symmetry}, inf);
seq({typecheck, normalize, merge, push, fixpoint, merge, constraints, semantic, extension, simplify, merge}, 2);
`))
	// Register the Interval ADT method.
	s.Cat.ADTs.Register("OVERLAPS", 2, true, func(args []value.Value) (value.Value, error) {
		lo1, _ := args[0].Field("lo")
		hi1, _ := args[0].Field("hi")
		lo2, _ := args[1].Field("lo")
		hi2, _ := args[1].Field("hi")
		return value.Bool(value.Compare(lo1, hi2) <= 0 && value.Compare(lo2, hi1) <= 0), nil
	})
	s.MustExec(`
TYPE Interval TUPLE (lo : INT, hi : INT);
TABLE MEETINGS (Id : INT, Slot : Interval);
INSERT INTO MEETINGS VALUES (1, TUPLE(lo: 1, hi: 5)), (2, TUPLE(lo: 4, hi: 9)), (3, TUPLE(lo: 10, hi: 12));
`)
	res, err := s.Query("SELECT M1.Id, M2.Id FROM MEETINGS M1, MEETINGS M2 WHERE OVERLAPS(M1.Slot, M2.Slot) AND OVERLAPS(M2.Slot, M1.Slot) AND M1.Id < M2.Id")
	if err != nil {
		t.Fatal(err)
	}
	// The symmetric duplicate is eliminated by the extension rule.
	n := term.Count(res.Rewritten, func(s *term.Term) bool {
		return s.Kind == term.Fun && s.Functor == "OVERLAPS"
	})
	if n != 1 {
		t.Errorf("extension rule did not deduplicate OVERLAPS: %s", lera.Format(res.Rewritten))
	}
	if len(res.Rows) != 1 { // meetings 1 and 2 overlap
		t.Errorf("rows = %v", res.Rows)
	}
}

// TestConstraintsViaOption: Figure 10 constraints through WithConstraints.
func TestConstraintsViaOption(t *testing.T) {
	s := filmsSession(t, WithConstraints(
		"rule ic_cat: F(x) / ISA(x, SetCategory) --> F(x) AND INCLUDE(x, SET('Comedy', 'Adventure', 'Science Fiction', 'Western')) / ;"))
	res, err := s.Query("SELECT Title FROM FILM WHERE MEMBER('Cartoon', Categories)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 || !term.Equal(res.Rewritten.Args[1], term.FalseT()) {
		t.Errorf("constraint-driven inconsistency failed: %s", lera.Format(res.Rewritten))
	}
}

// TestExplain: EXPLAIN prints both plans, the rewrite stats and one
// rule.apply line per application, naming the rule that fired.
func TestExplain(t *testing.T) {
	s := filmsSession(t)
	for _, c := range []struct{ query, rule string }{
		{"SELECT Title FROM FILM WHERE MEMBER('Cartoon', Categories)", "member_enum_incons"},
		{esql.Figure5Query, "alexander"},
	} {
		msg := explainOf(t, s, "EXPLAIN "+strings.TrimRight(strings.TrimSpace(c.query), ";")+";").Message
		for _, want := range []string{"plan (translated):", "plan (rewritten):", "rewrite: applications=", "rule.apply rule=" + c.rule + " "} {
			if !strings.Contains(msg, want) {
				t.Errorf("EXPLAIN missing %q:\n%s", want, msg)
			}
		}
		var apps int
		if _, err := fmt.Sscanf(msg[strings.Index(msg, "rewrite: applications="):], "rewrite: applications=%d", &apps); err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(msg, "· rule.apply "); n != apps || n == 0 {
			t.Errorf("%d rule.apply lines for %d applications:\n%s", n, apps, msg)
		}
	}
}

// TestSessionErrorsAndDDL.
func TestSessionErrorsAndDDL(t *testing.T) {
	s := NewSession()
	if _, err := s.Exec("SELECT x FROM nope"); err == nil {
		t.Error("unknown relation must error")
	}
	if _, err := s.Exec("garbage"); err == nil {
		t.Error("parse error expected")
	}
	rs := s.MustExec("TABLE T (a : INT); INSERT INTO T VALUES (1), (2);")
	if rs[0].Kind != ResultDDL || rs[1].Kind != ResultInsert {
		t.Errorf("results = %+v", rs)
	}
	res, err := s.Query("SELECT a FROM T WHERE a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %v", res.Rows)
	}
	if got := FormatResult(res); !strings.Contains(got, "1 rows") || !strings.Contains(got, "a") {
		t.Errorf("FormatResult = %q", got)
	}
	if got := FormatResult(rs[0]); !strings.Contains(got, "declared") {
		t.Errorf("FormatResult DDL = %q", got)
	}
	// Bad option sources fail at construction.
	if _, err := New(s.Cat, WithRules("garbage")); err == nil {
		t.Error("bad rules must error")
	}
	if _, err := New(s.Cat, WithConstraints("garbage")); err == nil {
		t.Error("bad constraints must error")
	}
	if _, err := New(s.Cat, WithRules("seq({typecheck}, 1")); err == nil {
		t.Error("bad sequence must error")
	}
	if _, err := New(s.Cat, WithRules("seq({nosuchblock}, 1);")); err == nil {
		t.Error("sequence referencing unknown block must error")
	}
}

// TestMustExecPanics.
func TestMustExecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustExec must panic on error")
		}
	}()
	NewSession().MustExec("garbage")
}

// TestFormatResultAllocs: rendering allocates a constant number of times
// however many rows there are — the builder, grown once from the first
// row, and one cell buffer — and the text is what joining each cell's
// String() with " | " gives.
func TestFormatResultAllocs(t *testing.T) {
	result := func(n int) *Result {
		r := &Result{Kind: ResultRows, Columns: []string{"Numf", "Title", "Categories"}, Message: fmt.Sprintf("%d rows", n)}
		for i := 0; i < n; i++ {
			r.Rows = append(r.Rows, []value.Value{
				value.Int(int64(1000 + i)),
				value.String(fmt.Sprintf("film-%04d", i)),
				value.NewSet(value.String("Comedy"), value.String("it's")),
			})
		}
		return r
	}
	small, large := result(10), result(1000)
	var want strings.Builder
	want.WriteString("Numf | Title | Categories\n-------------------------\n")
	for _, row := range large.Rows {
		want.WriteString(row[0].String() + " | " + row[1].String() + " | " + row[2].String() + "\n")
	}
	want.WriteString("1000 rows")
	if got := FormatResult(large); got != want.String() {
		t.Fatalf("FormatResult changed its rendering:\n%.200s\nwant\n%.200s", got, want.String())
	}
	allocs := func(r *Result) float64 {
		return testing.AllocsPerRun(20, func() { _ = FormatResult(r) })
	}
	a10, a1000 := allocs(small), allocs(large)
	t.Logf("allocations: %.0f for 10 rows, %.0f for 1000", a10, a1000)
	if a1000 > a10+2 || a1000 > 12 {
		t.Errorf("FormatResult allocates per row: %.0f allocations for 10 rows, %.0f for 1000", a10, a1000)
	}
}

// TestFormatResultPresizeIsBounded: the builder's one-shot presize
// extrapolates from the first row, so one long first cell in a large answer
// used to ask for (rows − 1) × its length up front — a gigabyte for a 10 KB
// SET(...) heading 100 000 rows. The presize is capped; the text is
// unchanged.
func TestFormatResultPresizeIsBounded(t *testing.T) {
	const rows = 100_000
	elems := make([]value.Value, 1000)
	for i := range elems {
		elems[i] = value.String(fmt.Sprintf("c-%05d", i))
	}
	long, short := []value.Value{value.NewSet(elems...)}, []value.Value{value.Int(7)}
	r := &Result{Kind: ResultRows, Rows: [][]value.Value{long}, Message: "done"}
	for i := 1; i < rows; i++ {
		r.Rows = append(r.Rows, short)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := FormatResult(r)
	runtime.ReadMemStats(&after)
	if want := long[0].String() + "\n" + strings.Repeat("7\n", rows-1) + "done"; got != want {
		t.Fatalf("FormatResult changed its rendering: %d bytes, want %d", len(got), len(want))
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d B allocated for a %d B answer (uncapped presize: %d B)", alloc, len(got), (rows-1)*(len(long[0].String())+3))
	if alloc > 4*formatPresizeMax {
		t.Errorf("FormatResult allocated %d B for a %d B answer: the presize is unbounded again", alloc, len(got))
	}
}

// TestEnumDomainRefusedAtWrite: member_enum_incons rewrites
// MEMBER('Cartoon', Categories) to FALSE because 'Cartoon' is outside the
// Category enumeration. A row holding it would make the rewritten query
// answer 0 rows where the query as written answers 1, so INSERT and LOAD
// refuse it, store nothing, and rewritten ≡ unrewritten on what remains.
func TestEnumDomainRefusedAtWrite(t *testing.T) {
	on := filmsSession(t)
	off := filmsSession(t)
	off.Rewrite = false
	for _, s := range []*Session{on, off} {
		_, err := s.Exec("INSERT INTO FILM VALUES (901, 'Toon', SET('Cartoon'));")
		if err == nil || !strings.Contains(err.Error(), `FILM: column Categories: "Cartoon" is not a value of the enumeration Category`) {
			t.Fatalf("INSERT of 'Cartoon' into FILM: %v", err)
		}
		rows := [][]value.Value{
			{value.Int(902), value.String("Legal"), value.NewSet(value.String("Comedy"))},
			{value.Int(903), value.String("Toon"), value.NewSet(value.String("Cartoon"))},
		}
		if err := s.DB.Load("FILM", rows); err == nil || !strings.Contains(err.Error(), `"Cartoon"`) {
			t.Fatalf("LOAD with a 'Cartoon' row: %v", err)
		}
	}
	for _, q := range []string{
		"SELECT Title FROM FILM WHERE MEMBER('Cartoon', Categories)",
		"SELECT Title FROM FILM WHERE Numf > 900",
		"SELECT Title FROM FILM",
	} {
		r1, err := on.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := off.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if k1, k2 := canon(r1.Rows), canon(r2.Rows); k1 != k2 {
			t.Errorf("%s: rewritten %v, as written %v", q, k1, k2)
		}
	}
	if r, err := on.Query("SELECT Numf FROM FILM"); err != nil || len(r.Rows) != 4 {
		t.Errorf("a refused write changed FILM: %v, %v", r, err)
	}
}

// TestDomainRefusedAtWrite: an INSERT whose value the column's declared
// type excludes is refused and stores nothing. A bare string in the
// SetCategory column once made every MEMBER over Categories fail with
// INTERNAL, and a string in the NUMERIC Numf satisfied Numf > 900.
func TestDomainRefusedAtWrite(t *testing.T) {
	s := filmsSession(t)
	for _, c := range []struct{ insert, want string }{
		{"INSERT INTO FILM VALUES (902, 'Toon', 'Comedy');", `FILM: column Categories: string 'Comedy' is not a value of SetCategory`},
		{"INSERT INTO FILM VALUES ('x', 'Toon2', SET('Comedy'));", `FILM: column Numf: string 'x' is not a value of NUMERIC`},
	} {
		if _, err := s.Exec(c.insert); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want %q", c.insert, err, c.want)
		}
	}
	for q, want := range map[string]int{
		"SELECT Title FROM FILM WHERE MEMBER('Comedy', Categories)": 1,
		"SELECT Title FROM FILM WHERE Numf > 900":                   0,
		"SELECT Numf FROM FILM":                                     4,
	} {
		if r, err := s.Query(q); err != nil || len(r.Rows) != want {
			t.Errorf("%s after the refused writes: %v, %v; want %d rows", q, r, err, want)
		}
	}
}

// TestRefusedInsertStoresNothing: an INSERT refused for its arity leaves
// the database as it was — a declared relation with no rows stays
// unknown to execution rather than turning into an empty one.
func TestRefusedInsertStoresNothing(t *testing.T) {
	s := NewSession()
	s.MustExec("TABLE T (A : INT, B : INT);")
	const q = "SELECT A FROM T"
	_, before := s.Query(q)
	if before == nil || !strings.Contains(before.Error(), `unknown relation "T"`) {
		t.Fatalf("query over an empty T: %v", before)
	}
	if _, err := s.Exec("INSERT INTO T VALUES (1);"); err == nil || !strings.Contains(err.Error(), "1 values for 2 columns") {
		t.Fatalf("INSERT of one value into T: %v", err)
	}
	if r, err := s.Query(q); err == nil || err.Error() != before.Error() {
		t.Errorf("after a refused INSERT: %v, %v; want %v", r, err, before)
	}
}
