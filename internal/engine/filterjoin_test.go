package engine

// FILTER and JOIN are SEARCHes in the engine (docs/PERF.md "One evaluator
// for selection and join"): FILTER(r, q) is the one-relation SEARCH of r
// under q and JOIN(r, s, q) the two-relation SEARCH of r and s, each
// projecting every column. These tests pin that they are their SEARCH forms
// — rows, counters and first error — that the fixed terms the random
// differential adds take the paths they are there for, and how a failing
// FILTER fails at every pool size and grant. ReferenceEval keeps its own
// nested-loop FILTER and JOIN as the oracle of their rows.

import (
	"context"
	"math"
	"sort"
	"strings"
	"testing"

	"lera/internal/catalog"
	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/value"
)

// FixedForms are the FILTER, JOIN and SEARCH terms the random
// differential (enginediff_test.go) runs beside its generated corpus, over
// any database of the Figure 2 schema, each as it stands and inside a FIX
// body (fix-<name>), where its program and scratch are cached by the term's
// identity: a nested-loop JOIN that leads with a conjunct of its second
// relation alone, which it pre-filters; an equi-JOIN, a hash join; a FILTER
// that leads with constant comparisons on a stored column, which it reads
// through the column's sorted index; and an equi-JOIN and a SEARCH whose
// key is -0.0 on one side and 0.0 on the other, which `=` pairs.
func FixedForms() map[string]*term.Term {
	zero := func(z float64) *term.Term {
		return lera.Search([]*term.Term{lera.Rel("FILM")}, lera.Ands(), []*term.Term{term.Flt(z)})
	}
	zeroKey := lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1)))
	forms := map[string]*term.Term{
		"cross-local-join": lera.Join(lera.Rel("FILM"), lera.Rel("APPEARS_IN"), lera.Ands(
			lera.Cmp("<", lera.Attr(2, 1), term.Num(5)),
			lera.Cmp("<>", lera.Attr(1, 1), lera.Attr(2, 1)),
		)),
		"equi-join": lera.Join(lera.Rel("FILM"), lera.Rel("APPEARS_IN"), lera.Ands(
			lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1)),
		)),
		"indexed-filter": lera.Filter(lera.Rel("FILM"), lera.Ands(
			lera.Cmp(">=", lera.Attr(1, 1), term.Num(3)),
			lera.Cmp("<", lera.Attr(1, 1), term.Num(8)),
		)),
		"signed-zero-join": lera.Join(zero(negZero()), zero(0), zeroKey),
		"signed-zero-search": lera.Search([]*term.Term{zero(negZero()), zero(0)}, zeroKey,
			[]*term.Term{lera.Attr(1, 1), lera.Attr(2, 1)}),
	}
	out := map[string]*term.Term{}
	for name, q := range forms {
		var cols []string
		switch {
		case strings.HasPrefix(name, "signed-zero"):
			cols = []string{"C1", "C2"}
		case q.Functor == "JOIN":
			cols = []string{"C1", "C2", "C3", "C4", "C5"}
		default:
			cols = []string{"C1", "C2", "C3"}
		}
		out[name], out["fix-"+name] = q, lera.Fix("FX", q, cols)
	}
	return out
}

// programOf compiles a SEARCH, FILTER or JOIN over stored relations.
func programOf(db *DB, q *term.Term) (*searchProgram, []*Relation) {
	relTerms, _, _, _ := searchParts(q)
	rels := make([]*Relation, len(relTerms))
	for i, rt := range relTerms {
		rels[i] = stored(db, rt.Args[0].Val.S)
	}
	return db.compileSearch(q, rels), rels
}

// TestFixedFormPaths: each fixed form compiles to the path it is in the
// differential for — the nested-loop JOIN's stage 2 pre-filters, the
// equi-JOIN's stage 2 has join keys, and the FILTER's stage 1 is read
// through a sorted index.
func TestFixedFormPaths(t *testing.T) {
	db := loadedDB(t)
	forms := FixedForms()
	prog, _ := programOf(db, forms["cross-local-join"])
	if st := prog.stages[1]; st.local == 0 || len(st.leftKeys) != 0 {
		t.Errorf("cross-local-join: stage 2 pre-filters %d conjuncts over %d join keys, want > 0 over none", st.local, len(st.leftKeys))
	}
	prog, _ = programOf(db, forms["equi-join"])
	if st := prog.stages[1]; len(st.leftKeys) == 0 {
		t.Error("equi-join: stage 2 has no join keys")
	}
	q := forms["indexed-filter"]
	prog, rels := programOf(db, q)
	if rd := db.readIndex(nil, &prog.stages[0], q.Args[0], env{}, rels[0].Rows); rd.ix == nil {
		t.Error("indexed-filter: stage 1 is not read through an index")
	}
	for name, q := range forms {
		if strings.HasPrefix(name, "fix-") && forms[strings.TrimPrefix(name, "fix-")] != q.Args[1] {
			t.Errorf("%s: the FIX body is not the form itself", name)
		}
	}
}

// searchForm is the SEARCH that filter_to_search or join_to_search makes of
// a FILTER or JOIN: the same relations and qualification, projecting every
// column.
func searchForm(db *DB, q *term.Term) *term.Term {
	relTerms, qual, _, _ := searchParts(q)
	var projs []*term.Term
	for i, rt := range relTerms {
		schema, err := lera.Infer(rt, db.Cat, nil)
		if err != nil {
			panic(err)
		}
		for j := 1; j <= len(schema.Cols); j++ {
			projs = append(projs, lera.Attr(i+1, j))
		}
	}
	return lera.Search(relTerms, qual, projs)
}

// TestFilterJoinAreTheirSearch: every FILTER and JOIN of the golden corpus
// and of the fixed forms gives what its SEARCH form gives — rows in order,
// width, Counters and error — serially and on a pool; only the operator's
// label in the stats tree differs. The JOIN whose failing pairs its equi
// key rejects answers, as its SEARCH form does, where the reference, which
// judges every pair, fails.
func TestFilterJoinAreTheirSearch(t *testing.T) {
	forms := FixedForms()
	corpus := diffCorpus()
	for _, name := range []string{"filter-member", "join-op"} {
		forms[name] = corpus[name]
	}
	forms["join-key-rejected"] = joinKeyRejected()
	var names []string
	for name, q := range forms {
		if q.Functor == "FILTER" || q.Functor == "JOIN" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		for _, par := range []int{1, 4} {
			got := runOn(loadedDB(t), forms[name], runCfg{par: par})
			db := loadedDB(t)
			want := runOn(db, searchForm(db, forms[name]), runCfg{par: par})
			got.Stats, want.Stats = nil, nil
			if d := diffRuns(want, got); d != "" {
				t.Errorf("%s pool %d: against its SEARCH form: %s", name, par, d)
			}
		}
	}
	if _, err := ReferenceEval(context.Background(), loadedDB(t), joinKeyRejected()); err == nil {
		t.Error("the reference answered a JOIN one of whose pairs divides by zero")
	}
}

// TestFilterFirstError: a FILTER whose conjunct fails on row k of 6 000 —
// and fails differently on a row of a later chunk — reports row k's error
// serially, on a pool of two, where the later chunk may fail first, and
// under a one-byte grant that spills, as the reference does.
func TestFilterFirstError(t *testing.T) {
	const n, k, later = 6000, 700, 4500
	rows := make([][]value.Value, n)
	for i := range rows {
		rows[i] = []value.Value{value.Int(int64(i)), value.Int(int64(i % 7))}
	}
	rows[later][0] = value.String("x")
	q := lera.Filter(lera.Rel("R"), lera.Ands(lera.Cmp(">",
		term.F("/", term.Num(1), term.F("-", lera.Attr(1, 1), term.Num(k))), term.Num(0))))
	newDB := func() *DB {
		db := New(catalog.New())
		if err := db.Load("R", rows); err != nil {
			t.Fatal(err)
		}
		return db
	}
	_, want := ReferenceEval(context.Background(), newDB(), q)
	if want == nil {
		t.Fatal("the reference answered a FILTER that divides by zero")
	}
	spill := guard.Limits{MaxMemBytes: 1}
	for _, c := range []runCfg{{par: 1}, {par: 2}, {par: 1, lim: spill, spillDir: t.TempDir()}, {par: 2, lim: spill, spillDir: t.TempDir()}} {
		if got := runOn(newDB(), q, c); got.Err != want.Error() {
			t.Errorf("%s: error %q, want row %d's %q", c, got.Err, k, want)
		}
	}
	// The later row fails on its own, with another error.
	rows[k][0] = value.Int(k + 1)
	defer func() { rows[k][0] = value.Int(k) }()
	if got := runOn(newDB(), q, runCfg{par: 1}); got.Err == "" || got.Err == want.Error() {
		t.Errorf("row %d alone fails with %q, want an error of its own", later, got.Err)
	}
}

// TestFilterJoinRowsAreTheReferences: over relations large enough to fan
// out (A: 3 000 rows, B: 10), a FILTER read through an index and JOINs
// driven from either side, hashed or crossed after a pre-filter give the
// reference's rows, in order, at pool 1 and 2 and under a one-byte grant
// that spills.
func TestFilterJoinRowsAreTheReferences(t *testing.T) {
	var a, b [][]value.Value
	for i := 0; i < 3000; i++ {
		a = append(a, []value.Value{value.Int(int64(i)), value.Int(int64(i % 10))})
	}
	for j := 0; j < 10; j++ {
		b = append(b, []value.Value{value.Int(int64(j)), value.Int(int64(j * 2))})
	}
	newDB := func() *DB {
		db := New(catalog.New())
		if err := db.Load("A", a); err != nil {
			t.Fatal(err)
		}
		if err := db.Load("B", b); err != nil {
			t.Fatal(err)
		}
		return db
	}
	A, B := lera.Rel("A"), lera.Rel("B")
	terms := map[string]*term.Term{
		"filter":      lera.Filter(A, lera.Ands(lera.Cmp(">=", lera.Attr(1, 2), term.Num(3)), lera.Cmp("<>", lera.Attr(1, 1), term.Num(17)))),
		"equi from B": lera.Join(A, B, lera.Ands(lera.Cmp("=", lera.Attr(1, 2), lera.Attr(2, 1)))),
		"equi from A": lera.Join(B, A, lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 2)))),
		"crossed":     lera.Join(A, B, lera.Ands(lera.Cmp("<", lera.Attr(2, 2), term.Num(8)), lera.Cmp("<", lera.Attr(1, 2), lera.Attr(2, 1)))),
	}
	spill := guard.Limits{MaxMemBytes: 1}
	for name, q := range terms {
		ref, err := ReferenceEval(context.Background(), newDB(), q)
		if err != nil {
			t.Fatalf("%s: the reference: %v", name, err)
		}
		if len(ref.Rows) == 0 {
			t.Fatalf("%s: the reference gives no rows", name)
		}
		want := engineRun{Width: ref.Arity(), NRows: len(ref.Rows)}
		for _, r := range ref.Rows {
			want.Rows = append(want.Rows, rowKey(r))
		}
		for _, c := range []runCfg{{par: 1}, {par: 2}, {par: 1, lim: spill, spillDir: t.TempDir()}, {par: 2, lim: spill, spillDir: t.TempDir()}} {
			got := runOn(newDB(), q, c)
			got.Counters, got.Stats = want.Counters, nil
			if d := diffRuns(want, got); d != "" {
				t.Errorf("%s (%s): against the reference: %s", name, c, d)
			}
		}
	}
}

// TestJoinKeyIsEquality: an equi-join pairs two cells exactly when `=`
// holds between them — `=` within one row, the equi-join in memory, the
// grace join under a one-byte grant, and the conjunction 1.1 <= 2.1 ∧
// 1.1 >= 2.1, which no join key serves, all pair the same — over NaN,
// -0.0, 0.0, 5, 5.0, '5' and NULL on each side. NaN equals NaN and
// nothing else.
func TestJoinKeyIsEquality(t *testing.T) {
	cells := []value.Value{value.Real(nanValue()), value.Real(negZero()), value.Real(0), value.Int(5), value.Real(5), value.String("5"), value.Null}
	cmp := func(ops ...string) *term.Term {
		var conj []*term.Term
		for _, op := range ops {
			conj = append(conj, lera.Cmp(op, lera.Attr(1, 1), lera.Attr(2, 1)))
		}
		return lera.Search([]*term.Term{lera.Rel("A"), lera.Rel("B")}, lera.Ands(conj...),
			[]*term.Term{lera.Attr(1, 1), lera.Attr(2, 1)})
	}
	// within judges a = b on one row (a, b) of C: the compiled comparison,
	// no key involved.
	within := lera.Search([]*term.Term{lera.Rel("C")}, lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(1, 2))),
		[]*term.Term{lera.Attr(1, 1), lera.Attr(1, 2)})
	pairs := func(a, b value.Value, q *term.Term, c runCfg) engineRun {
		db := New(catalog.New())
		for name, rows := range map[string][][]value.Value{"A": {{a}}, "B": {{b}}, "C": {{a, b}}} {
			if err := db.Load(name, rows); err != nil {
				t.Fatal(err)
			}
		}
		run := runOn(db, q, c)
		if c.spillDir != "" && run.Err == "" && db.Spill.Partitions == 0 {
			t.Fatalf("%s ⋈ %s under a one-byte grant did not spill", a, b)
		}
		return run
	}
	grace := runCfg{par: 1, lim: guard.Limits{MaxMemBytes: 1}, spillDir: t.TempDir()}
	isNaN := func(v value.Value) bool { return v.K == value.KReal && math.IsNaN(v.F()) }
	for _, a := range cells {
		for _, b := range cells {
			eq := pairs(a, b, within, runCfg{par: 1})
			want := pairs(a, b, cmp("<=", ">="), runCfg{par: 1})
			hash := pairs(a, b, cmp("="), runCfg{par: 1})
			spilled := pairs(a, b, cmp("="), grace)
			if eq.Err != "" || want.Err != "" || hash.Err != "" || spilled.Err != "" {
				t.Fatalf("%s ⋈ %s: errors %q %q %q %q", a, b, eq.Err, want.Err, hash.Err, spilled.Err)
			}
			if eq.NRows != want.NRows || hash.NRows != want.NRows || spilled.NRows != want.NRows {
				t.Errorf("%s ⋈ %s: `=` holds on %d rows, the join key pairs %d in memory and %d in the grace join, <= and >= pair %d",
					a, b, eq.NRows, hash.NRows, spilled.NRows, want.NRows)
			}
			if aNaN, bNaN := isNaN(a), isNaN(b); (aNaN || bNaN) && (want.NRows == 1) != (aNaN && bNaN) {
				t.Errorf("%s ⋈ %s: <= and >= pair %d: NaN equals NaN and nothing else", a, b, want.NRows)
			}
		}
	}
}
