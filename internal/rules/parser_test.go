package rules

import (
	"math/rand"
	"strings"
	"testing"

	"lera/internal/term"
)

func parseOne(t *testing.T, src string) *Rule {
	t.Helper()
	rs, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if len(rs.RuleOrder) != 1 {
		t.Fatalf("expected 1 rule, got %d", len(rs.RuleOrder))
	}
	return rs.Rules[rs.RuleOrder[0]]
}

func TestParseSimpleRule(t *testing.T) {
	r := parseOne(t, "rule r1: F(x) / --> G(x) / ;")
	if r.Name != "r1" {
		t.Errorf("name = %q", r.Name)
	}
	if !r.LHS.VarHead || r.LHS.Functor != "F" {
		t.Errorf("lhs = %s", r.LHS)
	}
	if len(r.Constraints) != 0 || len(r.Methods) != 0 {
		t.Errorf("empty sections expected: %v %v", r.Constraints, r.Methods)
	}
}

func TestParseOmittedSections(t *testing.T) {
	// Both '/' sections may be omitted entirely.
	r := parseOne(t, "rule r: FOO(x) --> BAR(x);")
	if r.LHS.Functor != "FOO" || r.RHS.Functor != "BAR" {
		t.Errorf("rule = %s", r)
	}
}

// The paper's running example (Section 4.1):
//
//	F(SET(x*, G(y, f))) / MEMBER(y, x*), f = TRUE --> F(x*) /
func TestParsePaperRunningExample(t *testing.T) {
	r := parseOne(t, "rule ex: F(SET(x*, G(y, f))) / MEMBER(y, x*), f = TRUE --> F(x*) / ;")
	if len(r.Constraints) != 2 {
		t.Fatalf("constraints = %v", r.Constraints)
	}
	if r.Constraints[0].String() != "MEMBER(y, x*)" {
		t.Errorf("c0 = %s", r.Constraints[0])
	}
	if r.Constraints[1].String() != "=(f, TRUE)" {
		t.Errorf("c1 = %s", r.Constraints[1])
	}
	inner := r.LHS.Args[0]
	if inner.Functor != term.FSet {
		t.Fatalf("lhs arg = %s", inner)
	}
	// G(y, f) is a function-variable application.
	if !inner.Args[0].VarHead {
		t.Errorf("G should be a function variable: %s", inner.Args[0])
	}
	if !r.Decreasing() {
		t.Error("the paper notes this rule decreases the number of terms")
	}
}

// Figure 7 search merging rule, in our concrete syntax with explicit
// context arguments to SUBSTITUTE/SHIFT.
func TestParseFigure7SearchMerging(t *testing.T) {
	src := `
rule search_merge:
  SEARCH(LIST(x*, SEARCH(z, g, b), v*), f, a)
  / -->
  SEARCH(APPENDL(x*, v*, z), ANDMERGE(f2, g2), a2)
  / SUBSTITUTE(f, x*, v*, z, b, f2), SHIFT(g, x*, v*, z, g2), SUBSTITUTE(a, x*, v*, z, b, a2) ;
`
	r := parseOne(t, src)
	if len(r.Methods) != 3 {
		t.Fatalf("methods = %v", r.Methods)
	}
	if r.Methods[1].Functor != "SHIFT" {
		t.Errorf("m1 = %s", r.Methods[1])
	}
	// LHS shape: seq vars in an ordered LIST context.
	lst := r.LHS.Args[0]
	if lst.Functor != term.FList || lst.Args[0].Kind != term.SeqVar {
		t.Errorf("lhs list = %s", lst)
	}
}

// Figure 7 union merging rule:
//
//	UNION(SET(x*, UNION(z))) / --> UNION(SET-UNION(x*, z)) /
func TestParseFigure7UnionMerging(t *testing.T) {
	r := parseOne(t, "rule union_merge: UNION(SET(x*, UNION(z))) / --> UNION(SET-UNION(x*, z)) / ;")
	if r.RHS.Args[0].Functor != "SET-UNION" {
		t.Errorf("rhs = %s", r.RHS)
	}
}

// Figure 10 integrity constraints.
func TestParseFigure10Constraints(t *testing.T) {
	src := `
rule ic_point_abs: F(x) / ISA(x, Point) --> F(x) AND ABS(x) > 0 / ;
rule ic_point_ord: F(x) / ISA(x, Point) --> F(x) AND ORD(x) > 0 / ;
rule ic_category:  F(x) / ISA(x, Category) --> F(x) AND MEMBER(x, SET('Comedy', 'Adventure', 'Science Fiction', 'Western')) / ;
`
	rs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.RuleOrder) != 3 {
		t.Fatalf("rules = %v", rs.RuleOrder)
	}
	r := rs.Rules["ic_point_abs"]
	// RHS: AND(F(x), >(ABS(x), 0)).
	if r.RHS.Functor != "AND" {
		t.Fatalf("rhs = %s", r.RHS)
	}
	if r.RHS.Args[1].String() != ">(ABS(x), 0)" {
		t.Errorf("rhs conjunct = %s", r.RHS.Args[1])
	}
	if r.Constraints[0].String() != "ISA(x, 'Point')" {
		t.Errorf("constraint = %s", r.Constraints[0])
	}
}

// Figure 11 implicit semantic knowledge.
func TestParseFigure11Implicit(t *testing.T) {
	src := `
rule transitivity_eq: x = y AND y = z --> x = y AND y = z AND x = z ;
rule include_trans:
  INCLUDE(x, y) AND INCLUDE(y, z) / ISA(x, Set), ISA(y, Set), ISA(z, Set)
  --> INCLUDE(x, y) AND INCLUDE(y, z) AND INCLUDE(x, z) / ;
rule eq_subst: x = y AND p(x) --> x = y AND p(x) AND p(y) ;
rule subclass_subst: p(y) / ISA(x, y) --> p(y) AND p(x) / ;
`
	rs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	eq := rs.Rules["transitivity_eq"]
	// Left-assoc AND: AND(AND(=(x,y), =(y,z))...).
	if eq.LHS.Functor != "AND" || eq.LHS.Args[0].Functor != "=" {
		t.Errorf("lhs = %s", eq.LHS)
	}
	subst := rs.Rules["eq_subst"]
	// p(x) is a function variable application.
	found := false
	term.Walk(subst.LHS, func(s *term.Term, _ term.Path) bool {
		if s.Kind == term.Fun && s.VarHead && s.Functor == "p" {
			found = true
		}
		return true
	})
	if !found {
		t.Errorf("p(x) must parse as a function variable: %s", subst.LHS)
	}
}

// Figure 12 predicate simplification rules.
func TestParseFigure12Simplification(t *testing.T) {
	src := `
rule gt_le_incons: x > y AND x <= y --> FALSE ;
rule and_false: f AND FALSE --> FALSE ;
rule sub_zero: x - y = 0 / ISA(x, constant), ISA(y, constant) --> x = y / ;
rule const_fold: F(x, y) / ISA(x, constant), ISA(y, constant) --> a / EVALUATE(F(x, y), a) ;
`
	rs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	sz := rs.Rules["sub_zero"]
	if sz.LHS.String() != "=(-(x, y), 0)" {
		t.Errorf("sub_zero lhs = %s", sz.LHS)
	}
	cf := rs.Rules["const_fold"]
	if len(cf.Methods) != 1 || cf.Methods[0].Functor != "EVALUATE" {
		t.Errorf("const_fold methods = %v", cf.Methods)
	}
	if cf.RHS.Kind != term.Var || cf.RHS.Name != "a" {
		t.Errorf("const_fold rhs = %s", cf.RHS)
	}
	af := rs.Rules["and_false"]
	if af.LHS.String() != "AND(f, FALSE)" {
		t.Errorf("and_false lhs = %s", af.LHS)
	}
}

// Figure 9 Alexander invocation rule.
func TestParseFigure9Alexander(t *testing.T) {
	src := `
rule alexander:
  SEARCH(LIST(x*, FIX(z, e, p), y*), q, a)
  / BINDSFIX(q, x*, z)
  --> SEARCH(APPENDL(x*, LIST(u), y*), q, a)
  / ADORNMENT(q, x*, z, s), ALEXANDER(z, e, p, s, u) ;
`
	r := parseOne(t, src)
	if len(r.Constraints) != 1 || len(r.Methods) != 2 {
		t.Fatalf("rule = %s", r)
	}
	if r.Methods[1].Functor != "ALEXANDER" {
		t.Errorf("m1 = %s", r.Methods[1])
	}
}

func TestParseBlocksAndSeq(t *testing.T) {
	src := `
rule a: F(x) --> G(x);
rule b: G(x) --> H(x);
block(merge, {a, b}, inf);
block(push, {a}, 100);
seq({merge, push, merge}, 2);
`
	rs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.BlockOrder) != 2 {
		t.Fatalf("blocks = %v", rs.BlockOrder)
	}
	if rs.Blocks["merge"].Limit != Infinite {
		t.Errorf("merge limit = %d", rs.Blocks["merge"].Limit)
	}
	if rs.Blocks["push"].Limit != 100 {
		t.Errorf("push limit = %d", rs.Blocks["push"].Limit)
	}
	if rs.Sequence == nil || len(rs.Sequence.Blocks) != 3 || rs.Sequence.Limit != 2 {
		t.Errorf("seq = %+v", rs.Sequence)
	}
	// The same block may appear several times in the sequence (§4.2).
	if rs.Sequence.Blocks[0] != "merge" || rs.Sequence.Blocks[2] != "merge" {
		t.Errorf("seq order = %v", rs.Sequence.Blocks)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"rule",
		"rule r",
		"rule r: ;",
		"rule r: F(x) --> ",
		"rule r: F(x) --> G(x)", // missing ;
		"rule r: x --> G(x);",   // lhs must be functional
		"rule r: F(x --> G(x);", // unbalanced
		"block(b, {r}, inf);",   // unknown rule
		"rule r: F(x) --> G(x); rule r: F(x) --> G(x);",          // dup rule
		"rule r: F(x) --> G(x); block(b,{r},1); block(b,{r},1);", // dup block
		"rule r: F(x) --> G(x); block(b,{r},-2);",
		"rule r: F(x) --> G(x); block(b,{r},x);",
		"frobnicate;",
		"rule r: F('unterminated --> G(x);",
		"rule r: F(?) --> G(x);",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := `
-- the merging block
rule a: F(x) --> G(x); -- trailing comment
`
	rs, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.RuleOrder) != 1 {
		t.Errorf("rules = %v", rs.RuleOrder)
	}
}

func TestParseNumbersAndStrings(t *testing.T) {
	r := parseOne(t, "rule r: F(x) / x > 10.5, x <> -3 --> G('it''s', 10000) ;")
	if r.Constraints[0].String() != ">(x, 10.5)" {
		t.Errorf("real literal: %s", r.Constraints[0])
	}
	if r.Constraints[1].String() != "<>(x, -3)" {
		t.Errorf("negative int: %s", r.Constraints[1])
	}
	if r.RHS.Args[0].String() != "'it''s'" {
		t.Errorf("escaped string: %s", r.RHS.Args[0])
	}
}

func TestParseDivisionInsideParens(t *testing.T) {
	r := parseOne(t, "rule r: F(x) / (x / 2) > 1 --> G(x) ;")
	if r.Constraints[0].String() != ">(/(x, 2), 1)" {
		t.Errorf("division = %s", r.Constraints[0])
	}
}

func TestParseOrNotPrecedence(t *testing.T) {
	r := parseOne(t, "rule r: F(x) / NOT x = 1 OR x = 2 AND x = 3 --> G(x) ;")
	// OR(NOT(=(x,1)), AND(=(x,2), =(x,3)))
	want := "OR(NOT(=(x, 1)), AND(=(x, 2), =(x, 3)))"
	if got := r.Constraints[0].String(); got != want {
		t.Errorf("precedence: %s, want %s", got, want)
	}
}

func TestRuleString(t *testing.T) {
	r := parseOne(t, "rule r: F(x) / ISA(x, Point) --> G(x) / M(x, y) ;")
	s := r.String()
	for _, want := range []string{"r:", "F(x)", "ISA(x, 'Point')", "-->", "G(x)", "M(x, y)"} {
		if !strings.Contains(s, want) {
			t.Errorf("Rule.String() = %q missing %q", s, want)
		}
	}
}

func TestMergeAndValidate(t *testing.T) {
	a := MustParse("rule r1: F(x) --> G(x); block(b1, {r1}, inf); seq({b1}, 1);")
	b := MustParse("rule r1: F(x) --> H(x); rule r2: G(x) --> H(x); block(b2, {r2}, 1); seq({b2}, 1);")
	a.Merge(b)
	if a.Rules["r1"].RHS.Functor != "H" {
		t.Error("merge must override same-named rules")
	}
	if len(a.RuleOrder) != 2 {
		t.Errorf("rule order = %v", a.RuleOrder)
	}
	if a.Sequence.Blocks[0] != "b2" {
		t.Error("merge must replace sequence")
	}
	if err := a.Validate(); err != nil {
		t.Errorf("validate: %v", err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse must panic on error")
		}
	}()
	MustParse("nonsense")
}

func TestSeqVarVsMultiplication(t *testing.T) {
	// 'x*' (no space) is a collection variable; 'x * y' is multiplication.
	r := parseOne(t, "rule r: F(LIST(x*), x * y) --> G(x*) ;")
	if r.LHS.Args[0].Args[0].Kind != term.SeqVar {
		t.Errorf("x* should be a seq var: %s", r.LHS)
	}
	if r.LHS.Args[1].String() != "*(x, y)" {
		t.Errorf("x * y should be multiplication: %s", r.LHS.Args[1])
	}
}

// Arbitrary input must produce an error or a rule set — never a panic.
func TestParserRobustness(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tokens := []string{
		"rule", "block", "seq", "r:", "F(x)", "-->", "/", ";", ",", "(", ")",
		"{", "}", "SET(", "x*", "=", "<=", "AND", "OR", "NOT", "'str'", "42",
		"3.5", "inf", "ISA", "-", "+", "*",
	}
	for trial := 0; trial < 300; trial++ {
		var sb strings.Builder
		n := r.Intn(20)
		for i := 0; i < n; i++ {
			sb.WriteString(tokens[r.Intn(len(tokens))])
			sb.WriteString(" ")
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic on %q: %v", sb.String(), p)
				}
			}()
			_, _ = Parse(sb.String())
		}()
	}
}
