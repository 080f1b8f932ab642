package lera

import (
	"strings"
	"testing"
	"unsafe"

	"lera/internal/catalog"
	"lera/internal/term"
	"lera/internal/testdb"
)

// figure3Search builds the §3.1 translation of the Figure 3 query:
//
//	search((APPEARS_IN, FILM),
//	       [1.1=2.1 ∧ name(1.2)='Quinn' ∧ member('Adventure', 2.3)],
//	       (2.2, 2.3, salary(1.2)))
func figure3Search() *term.Term {
	return Search(
		[]*term.Term{Rel("APPEARS_IN"), Rel("FILM")},
		Ands(
			Cmp("=", Attr(1, 1), Attr(2, 1)),
			Cmp("=", Call("Name", Attr(1, 2)), term.Str("Quinn")),
			Call("Member", term.Str("Adventure"), Attr(2, 3)),
		),
		[]*term.Term{Attr(2, 2), Attr(2, 3), Call("Salary", Attr(1, 2))},
	)
}

func TestFormatFigure3(t *testing.T) {
	got := Format(figure3Search())
	want := "search((APPEARS_IN, FILM), [1.1=2.1 ∧ name(1.2)='Quinn' ∧ member('Adventure', 2.3)], (2.2, 2.3, salary(1.2)))"
	if got != want {
		t.Errorf("Format:\n got %s\nwant %s", got, want)
	}
}

func TestFormatFixpointFigure5(t *testing.T) {
	// §3.2: fix(BETTER_THAN, union({DOMINATE', search((BT, BT), [1.2=2.1], (1.1, 2.2))}))
	bt := "BETTER_THAN"
	rec := Search(
		[]*term.Term{Rel(bt), Rel(bt)},
		Ands(Cmp("=", Attr(1, 2), Attr(2, 1))),
		[]*term.Term{Attr(1, 1), Attr(2, 2)},
	)
	seed := Search(
		[]*term.Term{Rel("DOMINATE")},
		TrueQual(),
		[]*term.Term{Attr(1, 2), Attr(1, 3)},
	)
	fix := Fix(bt, Union(seed, rec), []string{"Refactor1", "Refactor2"})
	got := Format(fix)
	for _, frag := range []string{"fix(BETTER_THAN, union({", "search((DOMINATE)", "search((BETTER_THAN, BETTER_THAN), [1.2=2.1], (1.1, 2.2))"} {
		if !strings.Contains(got, frag) {
			t.Errorf("Format(fix) = %s\nmissing %q", got, frag)
		}
	}
}

func TestFormatOtherOps(t *testing.T) {
	cases := []struct {
		t    *term.Term
		want string
	}{
		{Filter(Rel("R"), Ands(Cmp(">", Attr(1, 1), term.Num(5)))), "filter(R, [1.1>5])"},
		{Join(Rel("A"), Rel("B"), Ands(Cmp("=", Attr(1, 1), Attr(2, 1)))), "join(A, B, [1.1=2.1])"},
		{Diff(Rel("A"), Rel("B")), "diff(A, B)"},
		{Inter(Rel("A"), Rel("B")), "inter({A, B})"},
		{Nest(Rel("R"), []int{3}, "Actors"), "nest(R, (3), Actors)"},
		{term.F(OpUnnest, Rel("R"), term.Num(2)), "unnest(R, 2)"},
		{term.F(OpLet, term.Str("M"), Rel("A"), Rel("M")), "let(M = A in M)"},
		{Not(Call("IsEmpty", Attr(1, 1))), "¬(isempty(1.1))"},
		{Ors(Cmp("=", Attr(1, 1), term.Num(1)), Cmp("=", Attr(1, 1), term.Num(2))), "1.1=1 ∨ 1.1=2"},
		{Ors(), "false"},
		// A conjunction or disjunction inside another is parenthesised;
		// the outermost one is not.
		{Ands(Cmp(">", Attr(1, 1), term.Num(1)), Ors(Cmp("=", Attr(1, 1), term.Num(2)), Cmp("=", Attr(1, 1), term.Num(3)))),
			"1.1>1 ∧ (1.1=2 ∨ 1.1=3)"},
		{term.F(EAnds, term.Set(term.F(EAnds, term.Set(V1(), V2())), term.V("z"))), "z ∧ (x ∧ y)"},
		{Ands(V1(), V2(), term.V("z")), "x ∧ y ∧ z"},
		{Ands(Ors(V1(), V2())), "x ∨ y"},
		{term.F(EAnds, term.Set(V1(), V2()), V1()), "ands({x, y}, x)"},
		{TrueQual(), "true"},
		{term.F(EProject, term.F(EValue, Attr(1, 2)), term.Str("Salary")), "PROJECT(VALUE(1.2), Salary)"},
		{Cmp("=", term.F("-", V1(), V2()), term.Num(0)), "(x - y)=0"},
	}
	for _, c := range cases {
		if got := Format(c.t); got != c.want {
			t.Errorf("Format = %q, want %q", got, c.want)
		}
	}
}

func V1() *term.Term { return term.V("x") }
func V2() *term.Term { return term.V("y") }

func TestAndsFlattensDedupesDropsTrue(t *testing.T) {
	c1 := Cmp("=", Attr(1, 1), term.Num(1))
	c2 := Cmp(">", Attr(1, 2), term.Num(2))
	q := Ands(c1, term.TrueT(), Ands(c2, c1))
	cs := Conjuncts(q)
	if len(cs) != 2 {
		t.Errorf("conjuncts = %v", cs)
	}
	if !IsTrueQual(Ands(term.TrueT())) {
		t.Error("ANDS(TRUE) is trivially true")
	}
	if IsTrueQual(q) {
		t.Error("non-empty qual is not true")
	}
	// Non-ANDS qualification is its own single conjunct.
	if len(Conjuncts(c1)) != 1 {
		t.Error("bare conjunct")
	}
	if len(Conjuncts(term.TrueT())) != 0 {
		t.Error("TRUE has no conjuncts")
	}
}

func TestOrsFlattensDropsFalse(t *testing.T) {
	d := Cmp("=", Attr(1, 1), term.Num(1))
	q := Ors(term.FalseT(), Ors(d))
	if len(q.Args[0].Args) != 1 {
		t.Errorf("ors = %s", q)
	}
}

func TestRelNameCallNameAttrIdx(t *testing.T) {
	if n, ok := RelName(Rel("FILM")); !ok || n != "FILM" {
		t.Error("RelName")
	}
	if _, ok := RelName(term.Num(1)); ok {
		t.Error("RelName of const")
	}
	if n, ok := CallName(Call("Salary", Attr(1, 1))); !ok || n != "Salary" {
		t.Error("CallName")
	}
	if _, ok := CallName(Rel("X")); ok {
		t.Error("CallName of REL")
	}
	i, j, ok := AttrIdx(Attr(3, 4))
	if !ok || i != 3 || j != 4 {
		t.Error("AttrIdx")
	}
	if _, _, ok := AttrIdx(term.Num(1)); ok {
		t.Error("AttrIdx of const")
	}
	// A real is not an index, whatever its payload word holds.
	for _, a := range []*term.Term{term.F(EAttr, term.Flt(1.5), term.Num(2)), term.F(EAttr, term.Num(1), term.Flt(2))} {
		if i, j, ok := AttrIdx(a); ok {
			t.Errorf("AttrIdx(%s) = %d, %d, true; want false", a, i, j)
		}
	}
}

func TestValidate(t *testing.T) {
	good := []*term.Term{
		figure3Search(),
		Union(Rel("A"), Rel("B")),
		Fix("R", Rel("A"), []string{"c"}),
		Nest(Rel("A"), []int{1}, "n"),
	}
	for _, g := range good {
		if err := Validate(g); err != nil {
			t.Errorf("Validate(%s) = %v", Format(g), err)
		}
	}
	bad := []*term.Term{
		term.F(OpSearch, Rel("A"), TrueQual(), term.List()),               // rels not a LIST
		term.F(OpSearch, term.List(term.Num(1)), TrueQual(), term.List()), // non-relational operand
		term.F(OpSearch, term.List()),                                     // arity
		term.F(OpRel),                                                     // arity
		term.F(OpUnion, term.List(Rel("A"))),                              // not a SET
		term.F(OpDiff, Rel("A")),                                          // arity
		term.F(OpFix, term.Str("R"), Rel("A")),                            // arity
		term.F(OpLet, term.Str("R"), Rel("A"), term.Num(1)),               // body not relational
		term.F(OpNest, Rel("A"), term.Num(1), term.Str("n")),              // idxs not LIST
		term.F(OpUnnest, Rel("A")),                                        // arity
		term.F(EAttr, term.Num(0), term.Num(1)),                           // non-positive
		term.F(ECall, term.Num(1)),                                        // name not string const? (const ok) — use no args
		term.F(EValue),                                                    // arity
		term.F(EProject, Attr(1, 1)),                                      // arity
		term.F(EAnds, term.List()),                                        // not SET
	}
	for _, b := range bad {
		if err := Validate(b); err == nil {
			t.Errorf("Validate(%s) should fail", b)
		}
	}
	// Validation recurses: a bad subterm inside a good operator fails,
	// named by its path from the root.
	const want = "lera: at [0]: REL requires one constant name, got REL()"
	if err := Validate(Filter(term.F(OpRel), TrueQual())); err == nil || err.Error() != want {
		t.Errorf("nested invalid REL: %v, want %q", err, want)
	}
	// The path is of the first violation in preorder: the DIFF that is
	// the second relation of the inner SEARCH.
	nested := Search([]*term.Term{Rel("A"), Search([]*term.Term{Rel("B"), term.F(OpDiff, Rel("C"))}, TrueQual(), nil)}, TrueQual(), nil)
	if err := Validate(nested); err == nil || err.Error() != "lera: at [0 1 0 1]: DIFF requires two relational operands, got DIFF(REL('C'))" {
		t.Errorf("deep violation: %v", err)
	}
}

// TestValidateAllocs: validating a well-formed plan allocates nothing, so
// the rewriter can check every plan it returns. The Figure 3 plan took 28
// objects when Validate built a path per node.
func TestValidateAllocs(t *testing.T) {
	q := figure3Search()
	if allocs := testing.AllocsPerRun(100, func() {
		if err := Validate(q); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Validate of the Figure 3 plan allocates %.0f objects, want 0", allocs)
	}
}

func TestCounts(t *testing.T) {
	q := Search([]*term.Term{figure3Search(), Rel("X")}, TrueQual(), []*term.Term{Attr(1, 1)})
	if OperatorCount(q) != 5 { // outer search + inner search + 2 rels + REL X
		t.Errorf("OperatorCount = %d", OperatorCount(q))
	}
	if SearchCount(q) != 2 {
		t.Errorf("SearchCount = %d", SearchCount(q))
	}
}

func TestShiftAndMapAttrs(t *testing.T) {
	e := Ands(Cmp("=", Attr(1, 1), Attr(2, 2)), Cmp(">", Attr(3, 1), term.Num(0)))
	shifted := ShiftAttrs(e, 2, 10)
	want := map[string]bool{}
	term.Walk(shifted, func(s *term.Term, _ term.Path) bool {
		if i, j, ok := AttrIdx(s); ok {
			want[Format(Attr(i, j))] = true
		}
		return true
	})
	for _, a := range []string{"1.1", "12.2", "13.1"} {
		if !want[a] {
			t.Errorf("ShiftAttrs missing %s: %v", a, want)
		}
	}
	mapped := MapAttrs(e, func(i, j int, at *term.Term) *term.Term { return Attr(i, j+100) })
	if !term.Contains(mapped, func(s *term.Term) bool {
		_, j, ok := AttrIdx(s)
		return ok && j == 101
	}) {
		t.Error("MapAttrs did not apply")
	}
}

func TestRefersOnly(t *testing.T) {
	e := Ands(Cmp("=", Attr(1, 1), term.Num(5)))
	if !RefersOnly(e, func(i, j int) bool { return i == 1 }) {
		t.Error("refers only rel 1")
	}
	if RefersOnly(e, func(i, j int) bool { return i == 2 }) {
		t.Error("does refer to rel 1")
	}
	if !RefersOnly(term.TrueT(), func(i, j int) bool { return false }) {
		t.Error("no attrs at all")
	}
}

// --- schema inference ---

func TestInferFigure3(t *testing.T) {
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Infer(figure3Search(), cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Arity() != 3 {
		t.Fatalf("arity = %d", s.Arity())
	}
	if s.Cols[0].Name != "Title" || s.Cols[1].Name != "Categories" || s.Cols[2].Name != "Salary" {
		t.Errorf("column names = %s", s)
	}
	// salary(1.2): Refactor is an Actor object; attribute-as-function
	// typing resolves Salary to NUMERIC.
	if s.Cols[2].Type.Name != "NUMERIC" {
		t.Errorf("Salary type = %s", s.Cols[2].Type)
	}
	if s.Cols[1].Type.Name != "SetCategory" {
		t.Errorf("Categories type = %s", s.Cols[1].Type)
	}
	if _, ok := s.Col(0); ok {
		t.Error("Col(0) out of range")
	}
}

func TestInferFixAndLet(t *testing.T) {
	cat, _ := testdb.Catalog()
	seed := Search([]*term.Term{Rel("DOMINATE")}, TrueQual(), []*term.Term{Attr(1, 2), Attr(1, 3)})
	rec := Search([]*term.Term{Rel("BT"), Rel("BT")},
		Ands(Cmp("=", Attr(1, 2), Attr(2, 1))),
		[]*term.Term{Attr(1, 1), Attr(2, 2)})
	fix := Fix("BT", Union(seed, rec), []string{"Refactor1", "Refactor2"})
	s, err := Infer(fix, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Arity() != 2 || s.Cols[0].Name != "Refactor1" {
		t.Errorf("fix schema = %s", s)
	}
	if s.Cols[0].Type.Name != "Actor" {
		t.Errorf("fix col type = %s (want Actor, refined from seed)", s.Cols[0].Type)
	}
	// LET binds a name visible in the body.
	let := term.F(OpLet, term.Str("M"), seed, Search([]*term.Term{Rel("M")}, TrueQual(), []*term.Term{Attr(1, 1)}))
	s2, err := Infer(let, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Arity() != 1 {
		t.Errorf("let schema = %s", s2)
	}
}

func TestInferNestUnnest(t *testing.T) {
	cat, _ := testdb.Catalog()
	// NEST(APPEARS_IN, (2), Actors): group Numf, nest Refactor.
	n := Nest(Rel("APPEARS_IN"), []int{2}, "Actors")
	s, err := Infer(n, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Arity() != 2 || s.Cols[1].Name != "Actors" {
		t.Fatalf("nest schema = %s", s)
	}
	if s.Cols[1].Type.Kind != 3 /* types.Collection */ {
		t.Errorf("nested col type = %s", s.Cols[1].Type)
	}
	// UNNEST inverts.
	u := term.F(OpUnnest, n, term.Num(2))
	s2, err := Infer(u, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Cols[1].Type.Name != "Actor" {
		t.Errorf("unnest col type = %s", s2.Cols[1].Type)
	}
}

func TestInferErrors(t *testing.T) {
	cat, _ := testdb.Catalog()
	bad := []*term.Term{
		Rel("NOSUCH"),
		Search([]*term.Term{Rel("FILM")}, TrueQual(), []*term.Term{Attr(2, 1)}), // rel idx
		Search([]*term.Term{Rel("FILM")}, TrueQual(), []*term.Term{Attr(1, 9)}), // col idx
		Union(Search([]*term.Term{Rel("FILM")}, TrueQual(), []*term.Term{Attr(1, 1)}),
			Search([]*term.Term{Rel("FILM")}, TrueQual(), []*term.Term{Attr(1, 1), Attr(1, 2)})), // arity mismatch
		term.F(OpUnion, term.Set()), // empty union
		Nest(Rel("FILM"), []int{9}, "x"),
		term.F(OpUnnest, Rel("FILM"), term.Num(9)),
		term.F(OpNest, Rel("FILM"), term.List(term.Flt(1)), term.Str("x")), // real index
		term.F(OpUnnest, Rel("FILM"), term.Flt(1)),                         // real index
		Diff(Rel("FILM"), Rel("APPEARS_IN")),
		term.Num(1),
	}
	for _, b := range bad {
		if _, err := Infer(b, cat, nil); err == nil {
			t.Errorf("Infer(%s) should fail", b)
		}
	}
}

func TestInferViewSchema(t *testing.T) {
	cat, _ := testdb.Catalog()
	def := Search([]*term.Term{Rel("FILM")}, TrueQual(), []*term.Term{Attr(1, 2)})
	vs, err := Infer(def, cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.DeclareView(&catalog.View{Name: "TitlesV", Columns: vs.Cols, Def: def}); err != nil {
		t.Fatal(err)
	}
	s, err := Infer(Rel("TitlesV"), cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Arity() != 1 || s.Cols[0].Name != "Title" {
		t.Errorf("view schema = %s", s)
	}
}

// TestAttrShared: ATTR(i, j) inside the shared table is one node per
// (i, j), indistinguishable from a fresh build; outside it Attr still
// builds one; and the table stays within 64 KB of heap.
func TestAttrShared(t *testing.T) {
	for _, ij := range [][2]int{{0, 0}, {1, 1}, {2, 3}, {7, 31}, {8, 1}, {1, 32}, {-1, 2}, {100, 100}} {
		i, j := ij[0], ij[1]
		got := Attr(i, j)
		fresh := term.F(EAttr, term.Num(int64(i)), term.Num(int64(j)))
		if !term.Equal(got, fresh) || got.Hash() != fresh.Hash() || got.Size() != fresh.Size() || got.String() != fresh.String() {
			t.Errorf("Attr(%d, %d) = %s (hash %x, size %d), fresh build %s (hash %x, size %d)",
				i, j, got, got.Hash(), got.Size(), fresh, fresh.Hash(), fresh.Size())
		}
		if gi, gj, ok := AttrIdx(got); !ok || gi != i || gj != j {
			t.Errorf("AttrIdx(Attr(%d, %d)) = %d, %d, %v", i, j, gi, gj, ok)
		}
		shared := i >= 0 && i < attrRels && j >= 0 && j < attrCols
		if again := Attr(i, j); (again == got) != shared {
			t.Errorf("Attr(%d, %d) twice: same pointer %v, want %v", i, j, again == got, shared)
		}
	}
	if n := testing.AllocsPerRun(100, func() { Attr(2, 3) }); n != 0 {
		t.Errorf("a shared Attr allocates %.0f times", n)
	}
	// Each table node, its two-pointer argument array, and one index
	// constant per column.
	node := int(unsafe.Sizeof(term.Term{}))
	if heap := attrRels*attrCols*(node+2*int(unsafe.Sizeof(&term.Term{}))) + attrCols*node; heap > 64<<10 {
		t.Errorf("the ATTR table takes %d B of heap, want <= 64 KB", heap)
	}
}
