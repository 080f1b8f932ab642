package term

import (
	"strings"
	"testing"
)

func TestConstructorsAndString(t *testing.T) {
	cases := []struct {
		t    *Term
		want string
	}{
		{Num(42), "42"},
		{Flt(2.5), "2.5"},
		{Str("Quinn"), "'Quinn'"},
		{TrueT(), "TRUE"},
		{FalseT(), "FALSE"},
		{V("x"), "x"},
		{SV("x"), "x*"},
		{F("MEMBER", Str("a"), V("s")), "MEMBER('a', s)"},
		{List(Num(1), Num(2)), "LIST(1, 2)"},
		{Set(), "SET()"},
		{FV("F", V("x")), "F(x)"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
	if (*Term)(nil).String() != "<nil>" {
		t.Error("nil String")
	}
}

func TestFunctorUppercased(t *testing.T) {
	if F("member").Functor != "MEMBER" {
		t.Error("functor must be upper-cased")
	}
}

func TestSetCanonicalization(t *testing.T) {
	s := Set(Num(3), Num(1), Num(3), Num(2))
	if s.String() != "SET(1, 2, 3)" {
		t.Errorf("set canonical form = %s", s)
	}
	// Bags sort but keep duplicates.
	b := Bag(Num(3), Num(1), Num(3))
	if b.String() != "BAG(1, 3, 3)" {
		t.Errorf("bag canonical form = %s", b)
	}
	// Lists preserve order.
	l := List(Num(3), Num(1))
	if l.String() != "LIST(3, 1)" {
		t.Errorf("list form = %s", l)
	}
	// Sequence variables float to the end but stay.
	p := Set(SV("x"), F("G", V("y")))
	if p.String() != "SET(G(y), x*)" {
		t.Errorf("pattern set form = %s", p)
	}
}

func TestSetDedupeMakesAndIdempotent(t *testing.T) {
	// AND over a SET of conjuncts is idempotent by construction — the
	// property the semantic rules rely on for termination.
	c := F("=", V("x"), V("y"))
	and1 := F("ANDS", Set(c, c))
	if len(and1.Args[0].Args) != 1 {
		t.Errorf("duplicate conjuncts must collapse: %s", and1)
	}
}

func TestCompareAndEqual(t *testing.T) {
	a := F("F", Num(1), V("x"))
	b := F("F", Num(1), V("x"))
	if !Equal(a, b) {
		t.Error("structurally equal terms")
	}
	if Equal(a, F("F", Num(1), V("y"))) {
		t.Error("different var names differ")
	}
	if Equal(a, F("G", Num(1), V("x"))) {
		t.Error("different functors differ")
	}
	if Equal(a, F("F", Num(1))) {
		t.Error("different arities differ")
	}
	if Compare(V("x"), SV("x")) == 0 {
		t.Error("var and seqvar differ")
	}
	if Compare(FV("F", V("x")), F("F", V("x"))) == 0 {
		t.Error("varhead and fixed head differ")
	}
	if Compare(Num(1), Num(2)) >= 0 {
		t.Error("constant order")
	}
	if Compare(a, a) != 0 {
		t.Error("identity")
	}
}

func TestIsGroundVarsSize(t *testing.T) {
	g := F("SEARCH", List(F("REL", Str("FILM"))), TrueT())
	if !g.IsGround() {
		t.Error("ground term")
	}
	ng := F("SEARCH", List(SV("x")), V("f"))
	if ng.IsGround() {
		t.Error("term with vars is not ground")
	}
	if FV("F", Num(1)).IsGround() {
		t.Error("function variable head is not ground")
	}
	vars, seqs, funs := map[string]bool{}, map[string]bool{}, map[string]bool{}
	FV("F", V("x"), SV("y"), F("G", V("z"))).Vars(vars, seqs, funs)
	if !vars["x"] || !vars["z"] || !seqs["y"] || !funs["F"] {
		t.Errorf("Vars = %v %v %v", vars, seqs, funs)
	}
	if g.Size() != 5 {
		t.Errorf("Size = %d, want 5", g.Size())
	}
}

func TestApply(t *testing.T) {
	b := NewBindings()
	b.BindVar("x", Num(7))
	b.BindSeq("r", []*Term{Str("a"), Str("b")})
	b.BindFun("F", "MEMBER")
	got, err := b.Apply(FV("F", V("x"), List(SV("r"), Num(9))))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "MEMBER(7, LIST('a', 'b', 9))" {
		t.Errorf("Apply = %s", got)
	}
	// Unbound errors.
	if _, err := b.Apply(V("nope")); err == nil {
		t.Error("unbound var must error")
	}
	if _, err := b.Apply(F("G", SV("nope"))); err == nil {
		t.Error("unbound seqvar must error")
	}
	if _, err := b.Apply(FV("H", Num(1))); err == nil {
		t.Error("unbound funvar must error")
	}
	if _, err := b.Apply(SV("r")); err == nil {
		t.Error("top-level seqvar must error")
	}
	// Constants pass through untouched (same pointer).
	c := Num(3)
	if got, _ := b.Apply(c); got != c {
		t.Error("constants are shared")
	}
}

func TestBindingsTrail(t *testing.T) {
	b := NewBindings()
	mark := b.Mark()
	b.BindVar("x", Num(1))
	b.BindSeq("s", []*Term{Num(2)})
	b.BindFun("F", "G")
	if _, ok := b.Var("x"); !ok {
		t.Fatal("x bound")
	}
	b.Restore(mark)
	if _, ok := b.Var("x"); ok {
		t.Error("x must be unbound after restore")
	}
	if _, ok := b.Seq("s"); ok {
		t.Error("s must be unbound after restore")
	}
	if _, ok := b.Fun("F"); ok {
		t.Error("F must be unbound after restore")
	}
}

// TestRestoreKeepsOuterBinding: undoing a rebinding uncovers the binding
// it shadowed, in all three namespaces. (Map-backed bindings deleted the
// name on Restore and left the variable unbound.)
func TestRestoreKeepsOuterBinding(t *testing.T) {
	b := NewBindings()
	b.BindVar("x", Str("a"))
	b.BindSeq("s", []*Term{Num(1)})
	b.BindFun("F", "G")
	m := b.Mark()
	b.BindVar("x", Str("c"))
	b.BindSeq("s", []*Term{Num(2), Num(3)})
	b.BindFun("F", "H")
	if x, _ := b.Var("x"); !Equal(x, Str("c")) {
		t.Fatalf("inner x = %v, want 'c'", x)
	}
	if got := b.String(); got != "{F()=H, s*=[2, 3], x='c'}" {
		t.Errorf("inner String() = %s", got)
	}
	b.Restore(m)
	if x, ok := b.Var("x"); !ok || !Equal(x, Str("a")) {
		t.Errorf("after Restore x = %v (bound %v), want 'a'", x, ok)
	}
	if s, ok := b.Seq("s"); !ok || len(s) != 1 || !Equal(s[0], Num(1)) {
		t.Errorf("after Restore s* = %v (bound %v), want [1]", s, ok)
	}
	if f, ok := b.Fun("F"); !ok || f != "G" {
		t.Errorf("after Restore F = %q (bound %v), want G", f, ok)
	}
	if got := b.String(); got != "{F()=G, s*=[1], x='a'}" {
		t.Errorf("outer String() = %s", got)
	}
}

func TestBindingsString(t *testing.T) {
	b := NewBindings()
	b.BindVar("x", Num(1))
	b.BindSeq("s", []*Term{Num(2)})
	b.BindFun("F", "G")
	s := b.String()
	for _, want := range []string{"x=1", "s*=[2]", "F()=G"} {
		if !strings.Contains(s, want) {
			t.Errorf("Bindings.String() = %s missing %s", s, want)
		}
	}
}

// --- matching ---

func mustMatch(t *testing.T, pat, subj *Term) *Bindings {
	t.Helper()
	b, ok := MatchFirst(pat, subj)
	if !ok {
		t.Fatalf("no match: %s vs %s", pat, subj)
	}
	return b
}

func mustNotMatch(t *testing.T, pat, subj *Term) {
	t.Helper()
	if _, ok := MatchFirst(pat, subj); ok {
		t.Fatalf("unexpected match: %s vs %s", pat, subj)
	}
}

func TestMatchBasics(t *testing.T) {
	b := mustMatch(t, V("x"), Num(5))
	if v, _ := b.Var("x"); v.Val.I != 5 {
		t.Errorf("x = %v", v)
	}
	mustMatch(t, Num(5), Num(5))
	mustNotMatch(t, Num(5), Num(6))
	mustNotMatch(t, Num(5), V("y"))
	mustNotMatch(t, F("F", V("x")), Num(5))
	mustNotMatch(t, F("F", V("x")), F("G", Num(1)))
	mustNotMatch(t, F("F", V("x")), F("F", Num(1), Num(2)))
	mustNotMatch(t, SV("x"), Num(1))
}

func TestMatchNonLinear(t *testing.T) {
	// Same variable twice must bind consistently.
	pat := F("=", V("x"), V("x"))
	mustMatch(t, pat, F("=", Num(3), Num(3)))
	mustNotMatch(t, pat, F("=", Num(3), Num(4)))
}

func TestMatchSeqVarOrdered(t *testing.T) {
	// LIST(x*, SEARCH(z), v*) — the paper's Figure 7 search-merging
	// left-hand side shape.
	pat := List(SV("x"), F("SEARCH", V("z")), SV("v"))
	subj := List(F("REL", Str("A")), F("SEARCH", Num(1)), F("REL", Str("B")))
	b := mustMatch(t, pat, subj)
	xs, _ := b.Seq("x")
	vs, _ := b.Seq("v")
	if len(xs) != 1 || len(vs) != 1 {
		t.Errorf("split: x*=%v v*=%v", xs, vs)
	}
	// Seq vars may be empty.
	subj2 := List(F("SEARCH", Num(1)))
	b2 := mustMatch(t, pat, subj2)
	xs2, _ := b2.Seq("x")
	vs2, _ := b2.Seq("v")
	if len(xs2) != 0 || len(vs2) != 0 {
		t.Errorf("empty split: %v %v", xs2, vs2)
	}
	mustNotMatch(t, pat, List(F("REL", Str("A"))))
}

func TestMatchSeqVarAllSplits(t *testing.T) {
	// x* followed by y* over 3 elements has 4 splits; verify all are
	// reachable via the continuation.
	pat := List(SV("x"), SV("y"))
	subj := List(Num(1), Num(2), Num(3))
	splits := 0
	b := NewBindings()
	Match(pat, subj, b, func() bool {
		splits++
		return false // reject, keep enumerating
	})
	if splits != 4 {
		t.Errorf("splits = %d, want 4", splits)
	}
}

func TestMatchSeqVarBoundConsistency(t *testing.T) {
	// Same seq var twice: LIST(x*, SEP(), x*).
	pat := List(SV("x"), F("SEP"), SV("x"))
	mustMatch(t, pat, List(Num(1), F("SEP"), Num(1)))
	mustNotMatch(t, pat, List(Num(1), F("SEP"), Num(2)))
	mustNotMatch(t, pat, List(Num(1), F("SEP"), Num(1), Num(2)))
	mustNotMatch(t, pat, List(Num(1), Num(2), F("SEP"), Num(1)))
}

func TestMatchMultiset(t *testing.T) {
	// Paper's running example: F(SET(x*, G(y, f))) — pick G out of a
	// set regardless of canonical position.
	pat := F("F", Set(SV("x"), F("G", V("y"), V("f"))))
	subj := F("F", Set(Num(1), F("G", Num(2), TrueT()), Num(3)))
	b := mustMatch(t, pat, subj)
	y, _ := b.Var("y")
	if y.Val.I != 2 {
		t.Errorf("y = %v", y)
	}
	xs, _ := b.Seq("x")
	if len(xs) != 2 {
		t.Errorf("x* = %v", xs)
	}
	// Fixed elements must pick distinct subject elements.
	pat2 := Set(V("a"), V("b"))
	mustNotMatch(t, pat2, Set(Num(1)))
	b2 := mustMatch(t, pat2, Set(Num(1), Num(2)))
	av, _ := b2.Var("a")
	bv, _ := b2.Var("b")
	if Equal(av, bv) {
		t.Error("distinct picks required")
	}
}

func TestMatchMultisetBacktracksOverPicks(t *testing.T) {
	// SET(x, G(x), rest*): x must be chosen such that G(x) is also
	// present, forcing backtracking over the pick of x.
	pat := Set(V("x"), F("G", V("x")), SV("rest"))
	subj := Set(Num(1), Num(2), F("G", Num(2)))
	b := mustMatch(t, pat, subj)
	x, _ := b.Var("x")
	if x.Val.I != 2 {
		t.Errorf("x = %v, want 2", x)
	}
	rest, _ := b.Seq("rest")
	if len(rest) != 1 || rest[0].Val.I != 1 {
		t.Errorf("rest = %v", rest)
	}
	mustNotMatch(t, pat, Set(Num(1), F("G", Num(2))))
}

func TestMatchMultisetTwoSeqVars(t *testing.T) {
	pat := F("SPLIT", Set(SV("a"), SV("b")))
	subj := F("SPLIT", Set(Num(1), Num(2)))
	parts := 0
	b := NewBindings()
	Match(pat, subj, b, func() bool {
		parts++
		return false
	})
	if parts != 4 { // each of 2 elements goes to a or b
		t.Errorf("partitions = %d, want 4", parts)
	}
}

func TestMatchBagKeepsMultiplicity(t *testing.T) {
	pat := Bag(V("x"), V("x"), SV("r"))
	mustMatch(t, pat, Bag(Num(1), Num(1), Num(2)))
	mustNotMatch(t, pat, Bag(Num(1), Num(2), Num(3)))
}

func TestMatchCollectionWildcard(t *testing.T) {
	pat := F("F", F(FCollection, SV("x")))
	for _, mk := range []func(...*Term) *Term{Set, Bag, List, Array} {
		subj := F("F", mk(Num(1), Num(2)))
		if _, ok := MatchFirst(pat, subj); !ok {
			t.Errorf("COLLECTION should match %s", subj)
		}
	}
	mustNotMatch(t, pat, F("F", F("REL", Num(1))))
}

func TestMatchFunctionVariable(t *testing.T) {
	// F(x) with function variable F: matches any unary application.
	pat := FV("F", V("x"))
	b := mustMatch(t, pat, F("ABS", Num(3)))
	f, _ := b.Fun("F")
	if f != "ABS" {
		t.Errorf("F = %q", f)
	}
	// Non-linear function variables: F(x) = F(y) heads must agree.
	pat2 := F("=", FV("F", V("x")), FV("F", V("y")))
	mustMatch(t, pat2, F("=", F("ABS", Num(1)), F("ABS", Num(2))))
	mustNotMatch(t, pat2, F("=", F("ABS", Num(1)), F("ORD", Num(2))))
}

func TestMatchContinuationVeto(t *testing.T) {
	// The constraint-check pattern: reject bindings until y > 1.
	pat := Set(SV("rest"), V("y"))
	subj := Set(Num(1), Num(2), Num(3))
	b := NewBindings()
	ok := Match(pat, subj, b, func() bool {
		y, _ := b.Var("y")
		return y.Val.I > 2
	})
	if !ok {
		t.Fatal("should find y=3")
	}
	y, _ := b.Var("y")
	if y.Val.I != 3 {
		t.Errorf("y = %v", y)
	}
	// Rejecting all restores bindings.
	b2 := NewBindings()
	if Match(pat, subj, b2, func() bool { return false }) {
		t.Error("all-veto must fail")
	}
	if _, bound := b2.Var("y"); bound {
		t.Error("bindings must be restored after failed match")
	}
}

// Applying the accepted bindings to the pattern must reproduce the subject
// (soundness of matching) — checked across representative cases.
func TestMatchApplyRoundTrip(t *testing.T) {
	cases := []struct{ pat, subj *Term }{
		{V("x"), F("F", Num(1))},
		{F("F", V("x"), V("y")), F("F", Num(1), Str("a"))},
		{List(SV("x"), F("S", V("z")), SV("v")), List(Num(1), F("S", Num(2)), Num(3), Num(4))},
		{F("F", Set(SV("x"), F("G", V("y")))), F("F", Set(Num(1), F("G", Num(2))))},
		{FV("F", V("x")), F("NAME", Num(9))},
		{F("UNION", Set(SV("x"), F("UNION", V("z")))), F("UNION", Set(F("R", Num(1)), F("UNION", Set(Num(5)))))},
	}
	for _, c := range cases {
		b, ok := MatchFirst(c.pat, c.subj)
		if !ok {
			t.Errorf("no match: %s vs %s", c.pat, c.subj)
			continue
		}
		got, err := b.Apply(c.pat)
		if err != nil {
			t.Errorf("apply: %v", err)
			continue
		}
		if !Equal(got, c.subj) {
			t.Errorf("round trip: apply(match(%s)) = %s, want %s", c.pat, got, c.subj)
		}
	}
}
