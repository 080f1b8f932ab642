package magic

import (
	"context"
	"strings"
	"testing"

	"lera/internal/engine"
	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/rewrite"
	"lera/internal/rules"
	"lera/internal/term"
	"lera/internal/testdb"
	"lera/internal/value"
)

// distinct returns r without duplicate rows, first occurrence winning.
func distinct(r *engine.Relation) *engine.Relation {
	seen := map[string]bool{}
	out := &engine.Relation{Width: r.Width}
	for _, row := range r.Rows {
		var sb strings.Builder
		for _, v := range row {
			sb.WriteString(v.Key())
			sb.WriteByte('|')
		}
		if k := sb.String(); !seen[k] {
			seen[k] = true
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

func fixEngine(t *testing.T) *rewrite.Engine {
	t.Helper()
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	ext := rewrite.NewExternals()
	RegisterExternals(ext)
	rs := rules.MustParse(FixpointRules)
	return rewrite.New(rs, ext, cat, nil)
}

func betterThanFix() *term.Term {
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

// quinnQuery is the Figure 5 query: who dominates Quinn (binds column 2).
func quinnQuery() *term.Term {
	return lera.Search(
		[]*term.Term{betterThanFix()},
		lera.Ands(lera.Cmp("=", lera.Call("Name", lera.Attr(1, 2)), term.Str("Quinn"))),
		[]*term.Term{lera.Call("Name", lera.Attr(1, 1))},
	)
}

// TestFigure9RuleFires: the alexander rule rewrites the search-over-fix
// into a search over a focused fixpoint with filtered seeds.
func TestFigure9RuleFires(t *testing.T) {
	e := fixEngine(t)
	out, st, err := e.RunCtx(context.Background(), quinnQuery(), guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applications != 1 {
		t.Fatalf("applications = %d", st.Applications)
	}
	got := lera.Format(out)
	// The focused program: seed filtered by name(1.2)='Quinn', recursion
	// right-linearised over the seed expression.
	for _, frag := range []string{
		"fix(BETTER_THAN",
		"[name(1.2)='Quinn']",       // filtered seed
		"search((search((DOMINATE)", // linearised first operand is the seed expression
	} {
		if !strings.Contains(got, frag) {
			t.Errorf("focused program missing %q:\n%s", frag, got)
		}
	}
	// The rewritten query keeps its outer qualification and projection.
	if !strings.HasPrefix(got, "search(") || !strings.HasSuffix(got, "(name(1.1)))") {
		t.Errorf("outer query shape: %s", got)
	}
	// Idempotent: running again does not re-fire endlessly (the rewritten
	// fix has a filtered seed; adornment still finds the outer binding,
	// but the result converges because rewriting yields an equal term).
	out2, _, err := e.RunCtx(context.Background(), out, guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !term.Equal(out, out2) {
		t.Errorf("second run changed the program:\n%s\nvs\n%s", lera.Format(out), lera.Format(out2))
	}
}

// TestFocusedEqualsUnfocused: the focused program returns exactly the
// query's answers on random graphs, with (far) less work.
func TestFocusedEqualsUnfocused(t *testing.T) {
	cat, _ := testdb.Catalog()
	e := fixEngine(t)
	for seed := int64(1); seed <= 4; seed++ {
		rows, objs := chainWithNoise(60, seed)
		eval := func(q *term.Term) (*engine.Relation, engine.Counters) {
			db := engine.New(cat)
			if err := db.Load("DOMINATE", rows); err != nil {
				t.Fatal(err)
			}
			for oid, o := range objs {
				db.SetObject(oid, o)
			}
			r, err := db.EvalCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			return distinct(r), db.Count
		}
		orig := quinnQuery()
		focused, _, err := e.RunCtx(context.Background(), orig, guard.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		r1, c1 := eval(orig)
		r2, c2 := eval(focused)
		if len(r1.Rows) != len(r2.Rows) {
			t.Fatalf("seed %d: answers differ: %d vs %d", seed, len(r1.Rows), len(r2.Rows))
		}
		keys := map[string]bool{}
		for _, row := range r1.Rows {
			keys[row[0].Key()] = true
		}
		for _, row := range r2.Rows {
			if !keys[row[0].Key()] {
				t.Fatalf("seed %d: focused produced extra answer %v", seed, row)
			}
		}
		if c2.Emitted >= c1.Emitted {
			t.Errorf("seed %d: focused did not reduce work: emitted %d vs %d", seed, c2.Emitted, c1.Emitted)
		}
	}
}

// chainWithNoise builds a chain 1->2->...->n/2 ending at Quinn's OID plus
// noise edges in a disconnected component, so focusing pays off.
func chainWithNoise(n int, seed int64) ([][]value.Value, map[int64]value.Value) {
	objs := map[int64]value.Value{}
	for i := 1; i <= n; i++ {
		name := "Actor" + string(rune('A'+i%26)) + string(rune('0'+i%10))
		if i == n/2 {
			name = "Quinn"
		}
		objs[int64(i)] = value.NewTuple(
			[]string{"Name", "Salary"},
			[]value.Value{value.String(name), value.Int(int64(1000 * i))})
	}
	score := value.NewList()
	var rows [][]value.Value
	// Chain into Quinn.
	for i := 1; i < n/2; i++ {
		rows = append(rows, []value.Value{value.Int(1), value.OID(int64(i)), value.OID(int64(i + 1)), score})
	}
	// Disconnected noise component.
	for i := n/2 + 1; i < n; i++ {
		rows = append(rows, []value.Value{value.Int(1), value.OID(int64(i)), value.OID(int64(i + 1)), score})
	}
	_ = seed
	return rows, objs
}

// TestAdornmentVetoWhenFree: no binding on the fix output leaves the
// query untouched.
func TestAdornmentVetoWhenFree(t *testing.T) {
	e := fixEngine(t)
	q := lera.Search(
		[]*term.Term{betterThanFix()},
		lera.TrueQual(),
		[]*term.Term{lera.Attr(1, 1)},
	)
	out, st, err := e.RunCtx(context.Background(), q, guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applications != 0 || !term.Equal(out, q) {
		t.Errorf("free adornment must veto: %s", lera.Format(out))
	}
}

// Binding through an inequality (not =) does not focus.
func TestNonEqualityBindingVetoes(t *testing.T) {
	e := fixEngine(t)
	q := lera.Search(
		[]*term.Term{betterThanFix()},
		lera.Ands(lera.Cmp(">", lera.Attr(1, 2), term.Num(0))),
		[]*term.Term{lera.Attr(1, 1)},
	)
	_, st, err := e.RunCtx(context.Background(), q, guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applications != 0 {
		t.Error("inequality binding must veto")
	}
}

// Column-1 binding uses the left-linear direction.
func TestLeftLinearDirection(t *testing.T) {
	e := fixEngine(t)
	q := lera.Search(
		[]*term.Term{betterThanFix()},
		lera.Ands(lera.Cmp("=", lera.Call("Name", lera.Attr(1, 1)), term.Str("Quinn"))),
		[]*term.Term{lera.Attr(1, 2)},
	)
	out, st, err := e.RunCtx(context.Background(), q, guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applications != 1 {
		t.Fatalf("applications = %d", st.Applications)
	}
	got := lera.Format(out)
	if !strings.Contains(got, "[name(1.1)='Quinn']") {
		t.Errorf("left-linear seed filter missing: %s", got)
	}
	// Correctness on the sample data: whom does Quinn (transitively)
	// dominate? Nobody (Quinn is a sink).
	cat, _ := testdb.Catalog()
	inst, _ := testdb.Data()
	db := engine.New(cat)
	for name, rows := range inst.Rows {
		if err := db.Load(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	for oid, o := range inst.Objects {
		db.SetObject(oid, o)
	}
	r, err := db.EvalCtx(context.Background(), out)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 0 {
		t.Errorf("Quinn dominates nobody, got %v", r.Rows)
	}
}

// Unsupported recursion shapes veto cleanly.
func TestUnsupportedShapesVeto(t *testing.T) {
	e := fixEngine(t)
	// Non-TC bilinear recursion (projection swapped).
	rec := lera.Search(
		[]*term.Term{lera.Rel("R"), lera.Rel("R")},
		lera.Ands(lera.Cmp("=", lera.Attr(1, 2), lera.Attr(2, 1))),
		[]*term.Term{lera.Attr(2, 2), lera.Attr(1, 1)}, // swapped
	)
	seed := lera.Search([]*term.Term{lera.Rel("DOMINATE")}, lera.TrueQual(),
		[]*term.Term{lera.Attr(1, 2), lera.Attr(1, 3)})
	fx := lera.Fix("R", lera.Union(seed, rec), []string{"a", "b"})
	q := lera.Search([]*term.Term{fx},
		lera.Ands(lera.Cmp("=", lera.Attr(1, 2), term.Num(1))),
		[]*term.Term{lera.Attr(1, 1)})
	_, st, err := e.RunCtx(context.Background(), q, guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applications != 0 {
		t.Error("swapped-projection bilinear must veto")
	}
	// Fixpoint with no seed members.
	fx2 := lera.Fix("R", lera.Union(
		lera.Search([]*term.Term{lera.Rel("R")}, lera.TrueQual(), []*term.Term{lera.Attr(1, 1), lera.Attr(1, 2)})),
		[]string{"a", "b"})
	q2 := lera.Search([]*term.Term{fx2},
		lera.Ands(lera.Cmp("=", lera.Attr(1, 2), term.Num(1))),
		[]*term.Term{lera.Attr(1, 1)})
	_, st2, err := e.RunCtx(context.Background(), q2, guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Applications != 0 {
		t.Error("seedless fixpoint must veto")
	}
	// Non-union body.
	fx3 := lera.Fix("R", seed, []string{"a", "b"})
	q3 := lera.Search([]*term.Term{fx3},
		lera.Ands(lera.Cmp("=", lera.Attr(1, 2), term.Num(1))),
		[]*term.Term{lera.Attr(1, 1)})
	_, st3, err := e.RunCtx(context.Background(), q3, guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Applications != 0 {
		t.Error("non-union body must veto")
	}
}

// A genuinely linear recursion with invariant binding focuses directly
// (no linearisation needed): right-linear reachability.
func TestLinearRecursionFocuses(t *testing.T) {
	e := fixEngine(t)
	seed := lera.Search([]*term.Term{lera.Rel("DOMINATE")}, lera.TrueQual(),
		[]*term.Term{lera.Attr(1, 2), lera.Attr(1, 3)})
	rec := lera.Search(
		[]*term.Term{lera.Rel("DOMINATE"), lera.Rel("REACH")},
		lera.Ands(lera.Cmp("=", lera.Attr(1, 3), lera.Attr(2, 1))),
		[]*term.Term{lera.Attr(1, 2), lera.Attr(2, 2)},
	)
	fx := lera.Fix("REACH", lera.Union(seed, rec), []string{"src", "dst"})
	q := lera.Search([]*term.Term{fx},
		lera.Ands(lera.Cmp("=", lera.Call("Name", lera.Attr(1, 2)), term.Str("Quinn"))),
		[]*term.Term{lera.Attr(1, 1)})
	out, st, err := e.RunCtx(context.Background(), q, guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applications != 1 {
		t.Fatalf("applications = %d: %s", st.Applications, lera.Format(out))
	}
	// Execute both versions and compare answer sets.
	cat, _ := testdb.Catalog()
	inst, _ := testdb.Data()
	load := func() *engine.DB {
		db := engine.New(cat)
		for name, rows := range inst.Rows {
			if err := db.Load(name, rows); err != nil {
				t.Fatal(err)
			}
		}
		for oid, o := range inst.Objects {
			db.SetObject(oid, o)
		}
		return db
	}
	r1, err := load().EvalCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := load().EvalCtx(context.Background(), out)
	if err != nil {
		t.Fatal(err)
	}
	if n1, n2 := len(distinct(r1).Rows), len(distinct(r2).Rows); n1 != n2 {
		t.Errorf("focused linear differs: %d vs %d rows", n1, n2)
	}
}

// Cyclic graphs: the focused program must terminate and agree with the
// unfocused one when the recursion's data contains cycles (the seen-set
// in the engine's fixpoint guarantees termination; focusing must not
// change the answer set).
func TestFocusedOnCyclicGraphs(t *testing.T) {
	cat, _ := testdb.Catalog()
	e := fixEngine(t)
	focused, _, err := e.RunCtx(context.Background(), quinnQuery(), guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	score := value.NewList()
	// A 6-cycle through Quinn (OID 1) plus a tail into the cycle.
	var rows [][]value.Value
	cyc := []int64{2, 3, 1, 4, 5, 2}
	for i := 0; i < len(cyc); i++ {
		rows = append(rows, []value.Value{value.Int(1), value.OID(cyc[i]), value.OID(cyc[(i+1)%len(cyc)]), score})
	}
	rows = append(rows, []value.Value{value.Int(1), value.OID(6), value.OID(2), score})
	objs := map[int64]value.Value{}
	for oid, name := range map[int64]string{1: "Quinn", 2: "B", 3: "C", 4: "D", 5: "E", 6: "F"} {
		objs[oid] = value.NewTuple([]string{"Name"}, []value.Value{value.String(name)})
	}
	eval := func(q *term.Term) map[string]bool {
		db := engine.New(cat)
		if err := db.Load("DOMINATE", rows); err != nil {
			t.Fatal(err)
		}
		for oid, o := range objs {
			db.SetObject(oid, o)
		}
		r, err := db.EvalCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, row := range r.Rows {
			out[row[0].Key()] = true
		}
		return out
	}
	raw := eval(quinnQuery())
	foc := eval(focused)
	if len(raw) != len(foc) {
		t.Fatalf("cyclic answers differ: %d vs %d", len(raw), len(foc))
	}
	for k := range raw {
		if !foc[k] {
			t.Fatalf("focused missing answer %s", k)
		}
	}
	// Everyone on or feeding the cycle dominates Quinn — including Quinn
	// itself (a cycle through Quinn makes Quinn its own dominator).
	if len(raw) != 6 {
		t.Errorf("expected 6 dominators on the cycle, got %d", len(raw))
	}
}
