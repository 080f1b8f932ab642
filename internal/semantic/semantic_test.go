package semantic

import (
	"context"
	"strings"
	"testing"

	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/obs"
	"lera/internal/rewrite"
	"lera/internal/rules"
	"lera/internal/term"
	"lera/internal/testdb"
)

func semEngine(t *testing.T, extraSrc string) *rewrite.Engine {
	t.Helper()
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	ext := rewrite.NewExternals()
	RegisterExternals(ext)
	rs := RuleSet()
	if extraSrc != "" {
		extra, err := ParseConstraints(extraSrc, 100)
		if err != nil {
			t.Fatal(err)
		}
		rs.Merge(extra)
	}
	return rewrite.New(rs, ext, cat, nil)
}

func runBlock(t *testing.T, e *rewrite.Engine, q *term.Term, block string) *term.Term {
	t.Helper()
	out, _, err := e.RunBlockCtx(context.Background(), q, block, guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// --- Figure 11: implicit semantic knowledge ---

func TestFigure11TransitivityOfEquality(t *testing.T) {
	e := semEngine(t, "")
	q := lera.Ands(
		lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1)),
		lera.Cmp("=", lera.Attr(2, 1), lera.Attr(3, 1)),
	)
	out := runBlock(t, e, q, "semantic")
	cs := lera.Conjuncts(out)
	if len(cs) != 3 {
		t.Fatalf("conjuncts = %d: %s", len(cs), lera.Format(out))
	}
	want := lera.Cmp("=", lera.Attr(1, 1), lera.Attr(3, 1))
	found := false
	for _, c := range cs {
		if term.Equal(c, want) {
			found = true
		}
	}
	if !found {
		t.Errorf("derived 1.1=3.1 missing: %s", lera.Format(out))
	}
	// Closure of a longer chain terminates by saturation.
	q2 := lera.Ands(
		lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1)),
		lera.Cmp("=", lera.Attr(2, 1), lera.Attr(3, 1)),
		lera.Cmp("=", lera.Attr(3, 1), lera.Attr(4, 1)),
	)
	out2 := runBlock(t, e, q2, "semantic")
	if len(lera.Conjuncts(out2)) != 6 { // 3 given + 3 derived
		t.Errorf("chain closure = %s", lera.Format(out2))
	}
}

func TestFigure11IncludeTransitivity(t *testing.T) {
	e := semEngine(t, "")
	q := lera.Ands(
		term.F("INCLUDE", lera.Attr(1, 1), lera.Attr(2, 1)),
		term.F("INCLUDE", lera.Attr(2, 1), lera.Attr(3, 1)),
	)
	out := runBlock(t, e, q, "semantic")
	want := term.F("INCLUDE", lera.Attr(1, 1), lera.Attr(3, 1))
	if !term.Contains(out, func(s *term.Term) bool { return term.Equal(s, want) }) {
		t.Errorf("INCLUDE transitivity: %s", lera.Format(out))
	}
}

func TestFigure11EqualitySubstitution(t *testing.T) {
	e := semEngine(t, "")
	q := lera.Ands(
		lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1)),
		term.F("ISEMPTY", lera.Attr(1, 1)),
	)
	out := runBlock(t, e, q, "semantic")
	want := term.F("ISEMPTY", lera.Attr(2, 1))
	if !term.Contains(out, func(s *term.Term) bool { return term.Equal(s, want) }) {
		t.Errorf("equality substitution: %s", lera.Format(out))
	}
}

// --- Figure 12: predicate simplification ---

func TestFigure12Inconsistencies(t *testing.T) {
	e := semEngine(t, "")
	x, y := lera.Attr(1, 1), lera.Attr(1, 2)
	other := term.F("ISEMPTY", lera.Attr(1, 3))
	cases := []*term.Term{
		lera.Ands(lera.Cmp(">", x, y), lera.Cmp("<=", x, y), other),
		lera.Ands(lera.Cmp("<", x, y), lera.Cmp(">=", x, y), other),
		lera.Ands(lera.Cmp("=", x, y), lera.Cmp("<>", x, y), other),
	}
	for _, q := range cases {
		out := runBlock(t, e, q, "simplify")
		if out.Kind != term.Const || out.Val.B() {
			t.Errorf("inconsistency not detected: %s -> %s", lera.Format(q), lera.Format(out))
		}
	}
	// A consistent pair stays.
	ok := lera.Ands(lera.Cmp(">", x, y), lera.Cmp("<", x, lera.Attr(2, 2)))
	out := runBlock(t, e, ok, "simplify")
	if len(lera.Conjuncts(out)) != 2 {
		t.Errorf("consistent qual altered: %s", lera.Format(out))
	}
}

func TestFigure12ConstantFolding(t *testing.T) {
	e := semEngine(t, "")
	// x - y = 0 with constants rewrites to x = y (the paper's rule),
	// then folds to TRUE, then the TRUE conjunct is dropped.
	q := lera.Ands(
		lera.Cmp("=", term.F("-", term.Num(3), term.Num(3)), term.Num(0)),
		term.F("ISEMPTY", lera.Attr(1, 1)),
	)
	out := runBlock(t, e, q, "simplify")
	cs := lera.Conjuncts(out)
	if len(cs) != 1 || cs[0].Functor != "ISEMPTY" {
		t.Errorf("folded = %s", lera.Format(out))
	}
	// General pure-function folding: MEMBER over a literal set.
	q2 := lera.Ands(term.F("MEMBER", term.Str("Cartoon"),
		term.Set(term.Str("Comedy"), term.Str("Adventure"))))
	out2 := runBlock(t, e, q2, "simplify")
	if out2.Kind != term.Const || out2.Val.B() {
		t.Errorf("member fold = %s", lera.Format(out2))
	}
	// Arithmetic folding inside a comparison.
	q3 := lera.Ands(lera.Cmp(">", term.F("+", term.Num(2), term.Num(3)), lera.Attr(1, 1)))
	out3 := runBlock(t, e, q3, "simplify")
	if !strings.Contains(lera.Format(out3), "5>1.1") {
		t.Errorf("arith fold = %s", lera.Format(out3))
	}
	// NOT folding.
	q4 := lera.Ands(lera.Not(term.FalseT()), term.F("ISEMPTY", lera.Attr(1, 1)))
	out4 := runBlock(t, e, q4, "simplify")
	if len(lera.Conjuncts(out4)) != 1 {
		t.Errorf("NOT fold = %s", lera.Format(out4))
	}
}

func TestFoldingDoesNotDestroyStructure(t *testing.T) {
	e := semEngine(t, "")
	// A constant-only SET inside ANDS must not be folded into an opaque
	// value (PUREFN excludes constructors and connectives).
	q := lera.Search(
		[]*term.Term{lera.Rel("FILM")},
		lera.Ands(term.F("MEMBER", lera.Attr(1, 2), term.Set(term.Str("a"), term.Str("b")))),
		[]*term.Term{lera.Attr(1, 1)},
	)
	out := runBlock(t, e, q, "simplify")
	if !lera.IsOp(out, lera.OpSearch) {
		t.Fatalf("structure destroyed: %s", out)
	}
	if err := lera.Validate(out); err != nil {
		t.Errorf("invalid after simplify: %v", err)
	}
}

// --- Section 6.1: domain inconsistency ---

func TestMemberEnumInconsistency(t *testing.T) {
	e := semEngine(t, "")
	// MEMBER('Cartoon', Categories) inside a search over FILM: the
	// Categories column is SET OF Category and 'Cartoon' is not a
	// Category value, so the qualification is inconsistent.
	q := lera.Search(
		[]*term.Term{lera.Rel("FILM")},
		lera.Ands(term.F("MEMBER", term.Str("Cartoon"), lera.Attr(1, 3))),
		[]*term.Term{lera.Attr(1, 2)},
	)
	out := runBlock(t, e, q, "simplify")
	if !term.Equal(out.Args[1], term.FalseT()) {
		t.Errorf("qualification should be FALSE: %s", lera.Format(out))
	}
	// A legal member test is untouched.
	q2 := lera.Search(
		[]*term.Term{lera.Rel("FILM")},
		lera.Ands(term.F("MEMBER", term.Str("Adventure"), lera.Attr(1, 3))),
		[]*term.Term{lera.Attr(1, 2)},
	)
	out2 := runBlock(t, e, q2, "simplify")
	if term.Equal(out2.Args[1], term.FalseT()) {
		t.Error("legal member test wrongly simplified")
	}
}

// --- Figure 10: integrity constraints ---

const figure10Constraints = `
rule ic_point_abs: F(x) / ISA(x, Point) --> F(x) AND ABS(x) > 0 / ;
rule ic_category: F(x) / ISA(x, SetCategory) --> F(x) AND INCLUDE(x, SET('Comedy', 'Adventure', 'Science Fiction', 'Western')) / ;
`

func TestFigure10ConstraintCompilation(t *testing.T) {
	rs, err := ParseConstraints(figure10Constraints, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.RuleOrder) != 2 {
		t.Fatalf("rules = %v", rs.RuleOrder)
	}
	r := rs.Rules["ic_category"]
	if !lera.IsOp(r.LHS, lera.EAnds) {
		t.Errorf("compiled LHS = %s", r.LHS)
	}
	if len(r.Methods) != 1 || r.Methods[0].Functor != "TYPEDSUB" {
		t.Errorf("compiled methods = %v", r.Methods)
	}
	b := rs.Blocks["constraints"]
	if b == nil || b.Limit != 50 {
		t.Errorf("constraints block = %+v", b)
	}
}

func TestFigure10ConstraintAddition(t *testing.T) {
	e := semEngine(t, figure10Constraints)
	// A query over FILM whose qualification mentions Categories gets the
	// domain INCLUDE constraint added.
	q := lera.Search(
		[]*term.Term{lera.Rel("FILM")},
		lera.Ands(term.F("MEMBER", term.Str("Cartoon"), lera.Attr(1, 3))),
		[]*term.Term{lera.Attr(1, 2)},
	)
	out := runBlock(t, e, q, "constraints")
	qual := out.Args[1]
	hasInclude := term.Contains(qual, func(s *term.Term) bool {
		return s.Kind == term.Fun && s.Functor == "INCLUDE"
	})
	if !hasInclude {
		t.Fatalf("INCLUDE constraint not added: %s", lera.Format(out))
	}
	// Now the simplify block detects the inconsistency through the
	// explicit-knowledge rule (member_include_incons).
	out2 := runBlock(t, e, out, "simplify")
	if !term.Equal(out2.Args[1], term.FalseT()) {
		t.Errorf("inconsistency via explicit constraint: %s", lera.Format(out2))
	}
}

func TestConstraintCompilationErrors(t *testing.T) {
	bad := []string{
		"rule r: FOO(x) / ISA(x, Point) --> FOO(x) AND ABS(x) > 0;",   // fixed head
		"rule r: F(x, y) / ISA(x, Point) --> F(x, y) AND ABS(x) > 0;", // arity
		"rule r: F(x) / --> F(x) AND ABS(x) > 0;",                     // missing ISA
		"rule r: F(x) / ISA(x, Point) --> ABS(x) > 0;",                // RHS shape
		"rule r: F(x) / ISA(x, Point) --> G(x) AND ABS(x) > 0;",       // RHS head differs
	}
	for _, src := range bad {
		if _, err := ParseConstraints(src, 10); err == nil {
			t.Errorf("expected compile error for %q", src)
		}
	}
	if _, err := ParseConstraints("garbage", 10); err == nil {
		t.Error("parse error expected")
	}
}

// Figure 11(3): subclass substitution falls out of ISA — a constraint on
// Person-typed subterms also fires for Actor-typed ones.
func TestSubclassSubstitutionViaISA(t *testing.T) {
	src := "rule ic_person: F(x) / ISA(x, Person) --> F(x) AND NOT ISEMPTY(FIRSTNAME(VALUE(x))) / ;"
	e := semEngine(t, src)
	// Refactor (column 2 of APPEARS_IN) is an Actor — a subtype of
	// Person — so the constraint applies.
	q := lera.Search(
		[]*term.Term{lera.Rel("APPEARS_IN")},
		lera.Ands(lera.Cmp("=", lera.Call("Name", lera.Attr(1, 2)), term.Str("Quinn"))),
		[]*term.Term{lera.Attr(1, 1)},
	)
	out := runBlock(t, e, q, "constraints")
	if !term.Contains(out, func(s *term.Term) bool { return s.Kind == term.Fun && s.Functor == "FIRSTNAME" }) {
		t.Errorf("subclass constraint not added: %s", lera.Format(out))
	}
}

// The semantic block's budget bounds augmentation (§7): a tiny limit
// stops the transitive closure early.
func TestSemanticBudgetBounds(t *testing.T) {
	cat, _ := testdb.Catalog()
	ext := rewrite.NewExternals()
	RegisterExternals(ext)
	rs := RuleSet()
	src := strings.Replace(SemanticRules,
		"block(semantic, {transitivity_eq, include_trans, eq_subst}, 200);",
		"block(semantic, {transitivity_eq, include_trans, eq_subst}, 1);", 1)
	rs = rules.MustParse(src)
	e := rewrite.New(rs, ext, cat, nil)
	q := lera.Ands(
		lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1)),
		lera.Cmp("=", lera.Attr(2, 1), lera.Attr(3, 1)),
		lera.Cmp("=", lera.Attr(3, 1), lera.Attr(4, 1)),
	)
	rec := obs.NewRecorder("rewrite")
	out, _, err := e.RunBlockCtx(obs.NewContext(context.Background(), rec), q, "semantic", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if trace := obs.FormatTree(rec.Finish(), false); !strings.Contains(trace, "budget.exhausted block=semantic") {
		t.Errorf("budget should be recorded exhausted:\n%s", trace)
	}
	if len(lera.Conjuncts(out)) >= 6 {
		t.Errorf("limit 1 must not reach full closure: %s", lera.Format(out))
	}
}
