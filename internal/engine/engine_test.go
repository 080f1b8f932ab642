package engine

import (
	"context"
	"sort"
	"strings"
	"testing"

	"lera/internal/catalog"
	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/testdb"
	"lera/internal/types"
	"lera/internal/value"
)

// loadedDB builds the Figure 2 database with its sample instance.
func loadedDB(t *testing.T) *DB {
	t.Helper()
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := testdb.Data()
	if err != nil {
		t.Fatal(err)
	}
	db := New(cat)
	for name, rows := range inst.Rows {
		if err := db.Load(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	for oid, obj := range inst.Objects {
		db.SetObject(oid, obj)
	}
	return db
}

// stored returns db's stored relation name (nil if absent).
func stored(db *DB, name string) *Relation { return db.rels[strings.ToUpper(name)] }

func evalOK(t *testing.T, db *DB, q *term.Term) *Relation {
	t.Helper()
	r, err := db.EvalCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("eval %s: %v", lera.Format(q), err)
	}
	return r
}

func col(r *Relation, j int) []string {
	var out []string
	for _, row := range r.Rows {
		out = append(out, row[j-1].String())
	}
	sort.Strings(out)
	return out
}

func TestEvalRelAndLoad(t *testing.T) {
	db := loadedDB(t)
	r := evalOK(t, db, lera.Rel("FILM"))
	if len(r.Rows) != 4 {
		t.Errorf("FILM rows = %d", len(r.Rows))
	}
	if _, err := db.EvalCtx(context.Background(), lera.Rel("NOSUCH")); err == nil {
		t.Error("unknown relation must error")
	}
	// Arity validation on load.
	if err := db.Load("FILM", [][]value.Value{{value.Int(1)}}); err == nil {
		t.Error("bad arity must fail")
	}
	if err := db.Insert("FILM", []value.Value{value.Int(9)}); err == nil {
		t.Error("bad insert arity must fail")
	}
	if err := db.Insert("SCRATCH", []value.Value{value.Int(9)}); err != nil {
		t.Errorf("undeclared relation insert: %v", err)
	}
	if stored(db, "SCRATCH") == nil {
		t.Error("Stored must see inserted relation")
	}
}

// TestFigure3Query executes the paper's §3.1 search:
//
//	search((APPEARS_IN, FILM),
//	       [1.1=2.1 ∧ name(1.2)='Quinn' ∧ member('Adventure', 2.3)],
//	       (2.2, 2.3, salary(1.2)))
func TestFigure3Query(t *testing.T) {
	db := loadedDB(t)
	q := lera.Search(
		[]*term.Term{lera.Rel("APPEARS_IN"), lera.Rel("FILM")},
		lera.Ands(
			lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1)),
			lera.Cmp("=", lera.Call("Name", lera.Attr(1, 2)), term.Str("Quinn")),
			lera.Call("Member", term.Str("Adventure"), lera.Attr(2, 3)),
		),
		[]*term.Term{lera.Attr(2, 2), lera.Attr(2, 3), lera.Call("Salary", lera.Attr(1, 2))},
	)
	r := evalOK(t, db, q)
	// Quinn appears in films 1 (Adventure) and 3 (Western): only film 1
	// qualifies.
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	row := r.Rows[0]
	if row[0].S != "Lawrence of Arabia" {
		t.Errorf("title = %v", row[0])
	}
	if row[2].I != 12000 {
		t.Errorf("salary = %v", row[2])
	}
}

// The same query in typed-checked form (§3.3): salary(1.2) rewritten to
// PROJECT(VALUE(1.2), Salary) must give identical results.
func TestFigure3QueryTypeChecked(t *testing.T) {
	db := loadedDB(t)
	q := lera.Search(
		[]*term.Term{lera.Rel("APPEARS_IN"), lera.Rel("FILM")},
		lera.Ands(
			lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1)),
			lera.Cmp("=", term.F(lera.EProject, term.F(lera.EValue, lera.Attr(1, 2)), term.Str("Name")), term.Str("Quinn")),
			term.F("MEMBER", term.Str("Adventure"), lera.Attr(2, 3)),
		),
		[]*term.Term{lera.Attr(2, 2), lera.Attr(2, 3), term.F(lera.EProject, term.F(lera.EValue, lera.Attr(1, 2)), term.Str("Salary"))},
	)
	r := evalOK(t, db, q)
	if len(r.Rows) != 1 || r.Rows[0][2].I != 12000 {
		t.Errorf("typed query result: %v", r.Rows)
	}
}

// TestFigure4Query: nested view semantics — nest actors per film, then
// apply the ALL quantifier over the projected salaries.
func TestFigure4Query(t *testing.T) {
	db := loadedDB(t)
	// FilmActors ≈ nest(search((FILM, APPEARS_IN), [1.1=2.1], (1.2, 1.3, 2.2)), (3), Actors)
	fa := lera.Nest(
		lera.Search(
			[]*term.Term{lera.Rel("FILM"), lera.Rel("APPEARS_IN")},
			lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1))),
			[]*term.Term{lera.Attr(1, 2), lera.Attr(1, 3), lera.Attr(2, 2)},
		),
		[]int{3}, "Actors",
	)
	// SELECT Title WHERE MEMBER('Adventure', Categories) AND ALL(Salary(Actors) > 10000)
	q := lera.Search(
		[]*term.Term{fa},
		lera.Ands(
			term.F("MEMBER", term.Str("Adventure"), lera.Attr(1, 2)),
			term.F("ALL", lera.Cmp(">", lera.Call("Salary", lera.Attr(1, 3)), term.Num(10000))),
		),
		[]*term.Term{lera.Attr(1, 1)},
	)
	r := evalOK(t, db, q)
	// Film 1: Quinn 12000, Brando 18000, Bogart 15000 — all > 10000. ✓
	// Film 2: Bogart 15000, Hepburn 11000 — all > 10000. ✓ (Adventure+Comedy)
	got := col(r, 1)
	want := []string{"'Casablanca'", "'Lawrence of Arabia'"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("titles = %v, want %v", got, want)
	}
}

// TestFixpointFigure5 computes the §3.2 fixpoint of BETTER_THAN and the
// Figure 5 query "who dominates Quinn".
func fig5Fix() *term.Term {
	seed := lera.Search(
		[]*term.Term{lera.Rel("DOMINATE")},
		lera.TrueQual(),
		[]*term.Term{lera.Attr(1, 2), lera.Attr(1, 3)},
	)
	rec := lera.Search(
		[]*term.Term{lera.Rel("BETTER_THAN"), lera.Rel("BETTER_THAN")},
		lera.Ands(lera.Cmp("=", lera.Attr(1, 2), lera.Attr(2, 1))),
		[]*term.Term{lera.Attr(1, 1), lera.Attr(2, 2)},
	)
	return lera.Fix("BETTER_THAN", lera.Union(seed, rec), []string{"Refactor1", "Refactor2"})
}

func TestFixpointFigure5(t *testing.T) {
	for _, mode := range []FixMode{SemiNaive, Naive} {
		db := loadedDB(t)
		SetFixMode(db, mode)
		q := lera.Search(
			[]*term.Term{fig5Fix()},
			lera.Ands(lera.Cmp("=", lera.Call("Name", lera.Attr(1, 2)), term.Str("Quinn"))),
			[]*term.Term{lera.Call("Name", lera.Attr(1, 1))},
		)
		r := evalOK(t, db, q)
		got := col(r, 1)
		var want []string
		for _, n := range testdb.DominatorsOfQuinn() {
			want = append(want, "'"+n+"'")
		}
		if len(got) != len(want) {
			t.Fatalf("mode %v: dominators = %v, want %v", mode, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("mode %v: dominators[%d] = %s, want %s", mode, i, got[i], want[i])
			}
		}
	}
}

// Semi-naive and naive fixpoints agree on random graphs, and semi-naive
// does no more join work.
func TestFixpointModesAgree(t *testing.T) {
	cat, _ := testdb.Catalog()
	for seed := int64(1); seed <= 5; seed++ {
		rows := randomGraph(40, 80, seed)
		run := func(mode FixMode) (*Relation, Counters) {
			db := New(cat)
			SetFixMode(db, mode)
			if err := db.Load("DOMINATE", rows); err != nil {
				t.Fatal(err)
			}
			r, err := db.EvalCtx(context.Background(), fig5Fix())
			if err != nil {
				t.Fatal(err)
			}
			return r.Dedup(), db.Count
		}
		sn, cSN := run(SemiNaive)
		nv, cNV := run(Naive)
		if len(sn.Rows) != len(nv.Rows) {
			t.Fatalf("seed %d: semi-naive %d rows, naive %d rows", seed, len(sn.Rows), len(nv.Rows))
		}
		snKeys := map[string]bool{}
		for _, row := range sn.Rows {
			snKeys[rowKey(row)] = true
		}
		for _, row := range nv.Rows {
			if !snKeys[rowKey(row)] {
				t.Fatalf("seed %d: naive row missing from semi-naive: %v", seed, row)
			}
		}
		if cSN.JoinPairs > cNV.JoinPairs {
			t.Errorf("seed %d: semi-naive did more join work (%d > %d)", seed, cSN.JoinPairs, cNV.JoinPairs)
		}
	}
}

func randomGraph(n, edges int, seed int64) [][]value.Value {
	// Deterministic LCG to avoid pulling math/rand into the hot path.
	state := uint64(seed)*2862933555777941757 + 3037000493
	next := func(mod int) int {
		state = state*2862933555777941757 + 3037000493
		return int(state>>33) % mod
	}
	score := value.NewList()
	var rows [][]value.Value
	for i := 0; i < edges; i++ {
		a, b := next(n)+1, next(n)+1
		rows = append(rows, []value.Value{value.Int(1), value.OID(int64(a)), value.OID(int64(b)), score})
	}
	return rows
}

func TestUnionInterDiff(t *testing.T) {
	db := loadedDB(t)
	filmIDs := func(rel string) *term.Term {
		return lera.Search([]*term.Term{lera.Rel(rel)}, lera.TrueQual(), []*term.Term{lera.Attr(1, 1)})
	}
	u := evalOK(t, db, lera.Union(filmIDs("FILM"), filmIDs("APPEARS_IN")))
	// FILM ids 1-4; APPEARS_IN ids 1-4 as well: union dedupes to 4.
	if len(u.Rows) != 4 {
		t.Errorf("union rows = %d", len(u.Rows))
	}
	i := evalOK(t, db, lera.Inter(filmIDs("FILM"), filmIDs("DOMINATE")))
	// DOMINATE has film ids 1,2,3,4.
	if len(i.Rows) != 4 {
		t.Errorf("inter rows = %d", len(i.Rows))
	}
	d := evalOK(t, db, lera.Diff(filmIDs("FILM"), filmIDs("DOMINATE")))
	if len(d.Rows) != 0 {
		t.Errorf("diff rows = %d", len(d.Rows))
	}
	if _, err := db.EvalCtx(context.Background(), term.F(lera.OpInter, term.Set())); err == nil {
		t.Error("empty intersection must error")
	}
}

func TestFilterAndJoinOps(t *testing.T) {
	db := loadedDB(t)
	f := evalOK(t, db, lera.Filter(lera.Rel("FILM"),
		lera.Ands(term.F("MEMBER", term.Str("Western"), lera.Attr(1, 3)))))
	if len(f.Rows) != 1 || f.Rows[0][1].S != "High Noon" {
		t.Errorf("filter rows = %v", f.Rows)
	}
	j := evalOK(t, db, lera.Join(lera.Rel("FILM"), lera.Rel("APPEARS_IN"),
		lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1)))))
	if len(j.Rows) != 8 {
		t.Errorf("join rows = %d", len(j.Rows))
	}
	if j.Arity() != 5 {
		t.Errorf("join arity = %d", j.Arity())
	}
}

func TestNestUnnestRoundTrip(t *testing.T) {
	db := loadedDB(t)
	n := lera.Nest(lera.Rel("APPEARS_IN"), []int{2}, "Actors")
	nested := evalOK(t, db, n)
	if len(nested.Rows) != 4 { // four films
		t.Fatalf("nest rows = %d", len(nested.Rows))
	}
	for _, row := range nested.Rows {
		if row[1].K != value.KSet {
			t.Errorf("nested col kind = %v", row[1].K)
		}
	}
	un := evalOK(t, db, term.F(lera.OpUnnest, n, term.Num(2)))
	if len(un.Rows) != 8 {
		t.Errorf("unnest rows = %d", len(un.Rows))
	}
	// Multi-column nest produces tuples.
	n2 := evalOK(t, db, lera.Nest(lera.Rel("DOMINATE"), []int{2, 3}, "Pairs"))
	for _, row := range n2.Rows {
		if row[len(row)-1].K != value.KSet || row[len(row)-1].Elems[0].K != value.KTuple {
			t.Errorf("multi-nest elem = %v", row[len(row)-1])
		}
	}
	// Unnest of a non-collection column fails.
	if _, err := db.EvalCtx(context.Background(), term.F(lera.OpUnnest, lera.Rel("FILM"), term.Num(1))); err == nil {
		t.Error("unnest scalar must fail")
	}
}

func TestLet(t *testing.T) {
	db := loadedDB(t)
	q := term.F(lera.OpLet, term.Str("M"),
		lera.Search([]*term.Term{lera.Rel("FILM")}, lera.TrueQual(), []*term.Term{lera.Attr(1, 1)}),
		lera.Search([]*term.Term{lera.Rel("M"), lera.Rel("M")},
			lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1))),
			[]*term.Term{lera.Attr(1, 1)}),
	)
	r := evalOK(t, db, q)
	if len(r.Rows) != 4 {
		t.Errorf("let rows = %d", len(r.Rows))
	}
}

func TestCounters(t *testing.T) {
	db := loadedDB(t)
	db.ResetCounters()
	q := lera.Search(
		[]*term.Term{lera.Rel("FILM"), lera.Rel("APPEARS_IN")},
		lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1))),
		[]*term.Term{lera.Attr(1, 2)},
	)
	evalOK(t, db, q)
	if db.Count.Scanned != 12 { // 4 FILM + 8 APPEARS_IN
		t.Errorf("scanned = %d", db.Count.Scanned)
	}
	// Hash join: join pairs equal matching pairs (8), not 32.
	if db.Count.JoinPairs != 8 {
		t.Errorf("join pairs = %d", db.Count.JoinPairs)
	}
	// Set semantics: the 8 join results project to 4 distinct titles.
	if db.Count.Emitted != 4 {
		t.Errorf("emitted = %d", db.Count.Emitted)
	}
	var c2 Counters
	c2.Add(db.Count)
	if c2.Scanned != db.Count.Scanned {
		t.Error("Counters.Add")
	}
}

func TestEvalErrors(t *testing.T) {
	db := loadedDB(t)
	bad := []*term.Term{
		term.Num(1),
		term.F(lera.OpSearch, term.List(), lera.TrueQual(), term.List()),
		lera.Search([]*term.Term{lera.Rel("FILM")}, lera.Ands(lera.Cmp("=", lera.Attr(9, 1), term.Num(1))), []*term.Term{lera.Attr(1, 1)}),
		lera.Search([]*term.Term{lera.Rel("FILM")}, lera.Ands(lera.Attr(1, 1)), []*term.Term{lera.Attr(1, 1)}), // non-boolean qual
		lera.Search([]*term.Term{lera.Rel("FILM")}, lera.TrueQual(), []*term.Term{term.V("x")}),
		term.F("FROBNICATE", lera.Rel("FILM")),
		// Index positions hold integers: a real there is an error, never a
		// row index read from its float bits.
		lera.Search([]*term.Term{lera.Rel("FILM")}, lera.TrueQual(), []*term.Term{term.F(lera.EAttr, term.Flt(1.5), term.Num(2))}),
		term.F(lera.OpNest, lera.Rel("DOMINATE"), term.List(term.Flt(2), term.Num(3)), term.Str("Pairs")),
		term.F(lera.OpNest, lera.Rel("DOMINATE"), term.List(term.Num(0)), term.Str("Pairs")),
		term.F(lera.OpUnnest, lera.Nest(lera.Rel("APPEARS_IN"), []int{2}, "Actors"), term.Flt(2)),
	}
	for _, q := range bad {
		if _, err := db.EvalCtx(context.Background(), q); err == nil {
			t.Errorf("Eval(%s) should fail", q)
		}
		if _, err := ReferenceEval(context.Background(), db, q); err == nil {
			t.Errorf("ReferenceEval(%s) should fail", q)
		}
	}
	// Dangling OID.
	db2 := loadedDB(t)
	delete(db2.Objects, 1)
	q := lera.Search(
		[]*term.Term{lera.Rel("APPEARS_IN")},
		lera.Ands(lera.Cmp("=", lera.Call("Name", lera.Attr(1, 2)), term.Str("Quinn"))),
		[]*term.Term{lera.Attr(1, 1)},
	)
	if _, err := db2.EvalCtx(context.Background(), q); err == nil {
		t.Error("dangling OID must error")
	}
}

func TestObjectSemantics(t *testing.T) {
	db := loadedDB(t)
	// VALUE on a non-OID is the identity.
	q := lera.Search(
		[]*term.Term{lera.Rel("FILM")},
		lera.TrueQual(),
		[]*term.Term{term.F(lera.EValue, lera.Attr(1, 1))},
	)
	r := evalOK(t, db, q)
	if r.Rows[0][0].K != value.KInt {
		t.Errorf("VALUE(int) = %v", r.Rows[0][0])
	}
	// PROJECT broadcast over a set of OIDs (set of actors -> set of names).
	fa := lera.Nest(lera.Rel("APPEARS_IN"), []int{2}, "Actors")
	q2 := lera.Search(
		[]*term.Term{fa},
		lera.TrueQual(),
		[]*term.Term{term.F(lera.EProject, lera.Attr(1, 2), term.Str("Name"))},
	)
	r2 := evalOK(t, db, q2)
	for _, row := range r2.Rows {
		if row[0].K != value.KSet {
			t.Fatalf("broadcast project = %v", row[0])
		}
		for _, el := range row[0].Elems {
			if el.K != value.KString {
				t.Errorf("projected element = %v", el)
			}
		}
	}
}

func TestDedupAndArity(t *testing.T) {
	r := &Relation{Rows: [][]value.Value{
		{value.Int(1)}, {value.Int(1)}, {value.Int(2)},
	}}
	d := r.Dedup()
	if len(d.Rows) != 2 {
		t.Errorf("dedup rows = %d", len(d.Rows))
	}
	if (&Relation{}).Arity() != 0 {
		t.Error("empty relation arity")
	}
	if r.Arity() != 1 {
		t.Error("arity")
	}
}

func TestFixNonUnionBodyFallsBackToNaive(t *testing.T) {
	db := loadedDB(t)
	// fix(R, search((DOMINATE), true, (1.2, 1.3))) — no recursion at all;
	// the body is not a union, so semi-naive falls back to naive and
	// converges in two rounds.
	q := lera.Fix("R",
		lera.Search([]*term.Term{lera.Rel("DOMINATE")}, lera.TrueQual(),
			[]*term.Term{lera.Attr(1, 2), lera.Attr(1, 3)}),
		[]string{"a", "b"})
	r := evalOK(t, db, q)
	if len(r.Rows) != 5 {
		t.Errorf("rows = %d", len(r.Rows))
	}
	if db.Count.FixIterations != 2 {
		t.Errorf("iterations = %d", db.Count.FixIterations)
	}
}

// TestWritesRefuseEnumOutsideDomain: Load and Insert refuse a string
// outside its column's ENUMERATION — a scalar enum column, or an element of
// a collection of the enumeration — naming relation, column and value, and
// store nothing; a legal row and a NULL pass.
func TestWritesRefuseEnumOutsideDomain(t *testing.T) {
	cat := catalog.New()
	color, err := cat.Types.DeclareEnum("Color", []string{"red", "green"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cat.DeclareRelation("PAINT", []catalog.Column{
		{Name: "Name", Type: cat.Types.Char},
		{Name: "Hue", Type: color},
		{Name: "Mix", Type: cat.Types.Collection(value.KSet, color)},
	}); err != nil {
		t.Fatal(err)
	}
	db := New(cat)
	row := func(hue value.Value, mix ...string) []value.Value {
		var els []value.Value
		for _, m := range mix {
			els = append(els, value.String(m))
		}
		return []value.Value{value.String("p"), hue, value.NewSet(els...)}
	}
	legal := [][]value.Value{row(value.String("red"), "green"), row(value.Null)}
	if err := db.Load("PAINT", legal); err != nil {
		t.Fatalf("legal rows refused: %v", err)
	}
	for _, c := range []struct {
		row  []value.Value
		want string
	}{
		{row(value.String("blue")), `PAINT: column Hue: "blue" is not a value of the enumeration Color`},
		{row(value.String("red"), "green", "teal"), `PAINT: column Mix: "teal" is not a value of the enumeration Color`},
	} {
		if err := db.Insert("PAINT", c.row); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Insert %v: %v, want %q", c.row, err, c.want)
		}
		if err := db.Load("PAINT", append(legal[:1:1], c.row)); err == nil || !strings.Contains(err.Error(), "PAINT row 1: "+c.want[len("PAINT: "):]) {
			t.Errorf("Load with %v: %v", c.row, err)
		}
	}
	if n := len(stored(db, "PAINT").Rows); n != len(legal) {
		t.Errorf("PAINT holds %d rows after refused writes, want %d", n, len(legal))
	}
}

// TestWritesRefuseValuesOutsideDomain: beyond enumerations, Load and
// Insert refuse a value whose kind the column's declared type excludes —
// a scalar's kind, a collection's kind, an element's type, a tuple or an
// object reference — and accept NULL anywhere, an int where a REAL or
// NUMERIC is declared, and whatever a type they cannot judge (ANY) holds.
func TestWritesRefuseValuesOutsideDomain(t *testing.T) {
	cat := catalog.New()
	reg := cat.Types
	point, err := reg.DeclareTuple("Pt", []types.Field{{Name: "X", Type: reg.Int}}, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	person, err := reg.DeclareTuple("Who", []types.Field{{Name: "Name", Type: reg.Char}}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	cols := []catalog.Column{
		{Name: "I", Type: reg.Int},
		{Name: "R", Type: reg.Real},
		{Name: "N", Type: reg.Numeric},
		{Name: "C", Type: reg.Char},
		{Name: "B", Type: reg.Bool},
		{Name: "S", Type: reg.Collection(value.KSet, reg.Int)},
		{Name: "L", Type: reg.Collection(value.KList, point)},
		{Name: "P", Type: person},
		{Name: "A", Type: reg.AnyT},
	}
	if _, err := cat.DeclareRelation("T", cols); err != nil {
		t.Fatal(err)
	}
	db := New(cat)
	pt := value.NewTuple([]string{"X"}, []value.Value{value.Int(1)})
	legal := func() []value.Value {
		return []value.Value{value.Int(1), value.Int(2), value.Real(2.5), value.String("c"), value.Bool(true),
			value.NewSet(value.Int(1), value.Null), value.NewList(pt), value.OID(7), value.String("any")}
	}
	nulls := make([]value.Value, len(cols))
	if err := db.Load("T", [][]value.Value{legal(), nulls}); err != nil {
		t.Fatalf("legal rows refused: %v", err)
	}
	for _, c := range []struct {
		col  int
		v    value.Value
		want string
	}{
		{0, value.String("x"), `column I: string 'x' is not a value of INT`},
		{0, value.Real(1.5), `column I: real 1.5 is not a value of INT`},
		{1, value.String("x"), `column R: string 'x' is not a value of REAL`},
		{2, value.Bool(true), `column N: bool TRUE is not a value of NUMERIC`},
		{3, value.Int(3), `column C: int 3 is not a value of CHAR`},
		{4, value.Int(1), `column B: int 1 is not a value of BOOLEAN`},
		{5, value.Int(1), `column S: int 1 is not a value of SET OF INT`},
		{5, value.NewList(value.Int(1)), `column S: list LIST(1) is not a value of SET OF INT`},
		{5, value.NewSet(value.String("x")), `column S: string 'x' is not a value of INT`},
		{6, value.NewList(value.Int(1)), `column L: int 1 is not a value of Pt`},
		{7, pt, `column P: tuple`},
	} {
		row := legal()
		row[c.col] = c.v
		if err := db.Insert("T", row); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Insert with %s in column %d: %v, want %q", c.v, c.col, err, c.want)
		}
		if err := db.Load("T", [][]value.Value{legal(), row}); err == nil || !strings.Contains(err.Error(), "T row 1: "+c.want) {
			t.Errorf("Load with %s in column %d: %v", c.v, c.col, err)
		}
	}
	if n := len(stored(db, "T").Rows); n != 2 {
		t.Errorf("T holds %d rows after refused writes, want 2", n)
	}
}
