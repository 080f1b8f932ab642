package rulecheck

import (
	"strings"
	"testing"

	"lera/internal/catalog"
	"lera/internal/rewrite"
	"lera/internal/rules"
	"lera/internal/term"
)

func mustParse(t *testing.T, src string) *rules.RuleSet {
	t.Helper()
	rs, err := rules.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return rs
}

// testExt returns externals with one registered constraint and method so
// that positive cases have something legitimate to reference.
func testExt() *rewrite.Externals {
	ext := rewrite.NewExternals()
	ext.RegisterConstraint("GOODC", func(ctx *rewrite.Ctx, args []*term.Term) (bool, error) { return true, nil })
	ext.RegisterMethod("GOODM", func(ctx *rewrite.Ctx, args []*term.Term) (bool, error) { return true, nil })
	return ext
}

// want asserts that ds contains a diagnostic for (code, rule) at the
// given severity whose message contains frag, and returns it.
func want(t *testing.T, ds []Diagnostic, code, rule string, sev Severity, frag string) Diagnostic {
	t.Helper()
	for _, d := range ds {
		if d.Code == code && d.Rule == rule && d.Severity == sev && strings.Contains(d.Msg, frag) {
			return d
		}
	}
	t.Fatalf("no %s %s diagnostic for rule %q containing %q in:\n%s", sev, code, rule, frag, renderAll(ds))
	return Diagnostic{}
}

func wantNone(t *testing.T, ds []Diagnostic, code string) {
	t.Helper()
	for _, d := range ds {
		if d.Code == code {
			t.Fatalf("unexpected %s diagnostic: %s", code, d)
		}
	}
}

func renderAll(ds []Diagnostic) string {
	var sb strings.Builder
	for _, d := range ds {
		sb.WriteString("  " + d.String() + "\n")
	}
	if sb.Len() == 0 {
		return "  (no diagnostics)\n"
	}
	return sb.String()
}

func TestLintUnboundRHSVariable(t *testing.T) {
	rs := mustParse(t, `rule broken: UNIONN(s) / --> UNIONN(z) / ;`)
	ds := Lint(rs, testExt(), catalog.New())
	want(t, ds, CodeUnboundRHS, "broken", SevError, `"z"`)
}

func TestLintUnboundRHSSeqVar(t *testing.T) {
	rs := mustParse(t, `rule broken: FILTER(r, ANDS(SET(c, w*))) / --> FILTER(r, ANDS(SET(q*))) / ;`)
	ds := Lint(rs, testExt(), catalog.New())
	want(t, ds, CodeUnboundRHS, "broken", SevError, `"q"*`)
}

func TestLintMethodBoundRHSVariableOK(t *testing.T) {
	// z appears only in the RHS but a method call mentions it, so it can
	// be bound there — no RC001.
	rs := mustParse(t, `rule ok: UNIONN(s) / --> UNIONN(z) / GOODM(s, z) ;`)
	ds := Lint(rs, testExt(), catalog.New())
	wantNone(t, ds, CodeUnboundRHS)
}

func TestLintConstraintUnboundVariableWarns(t *testing.T) {
	rs := mustParse(t, `rule loose: UNIONN(s) / z = 1 --> INTERN(s) / ;`)
	ds := Lint(rs, testExt(), catalog.New())
	want(t, ds, CodeUnboundRHS, "loose", SevWarn, "constraints run before methods")
}

func TestLintUnknownConstraint(t *testing.T) {
	rs := mustParse(t, `rule broken: UNIONN(s) / NOSUCHCONSTRAINT(s) --> INTERN(s) / ;`)
	ds := Lint(rs, testExt(), catalog.New())
	want(t, ds, CodeUnknownConstraint, "broken", SevError, `"NOSUCHCONSTRAINT"`)

	// Registered constraints, built-in forms and ADT functions are fine.
	ok := mustParse(t, `rule fine: UNIONN(s) / AND(GOODC(s), NOT(ISEMPTY(s))) --> INTERN(s) / ;`)
	wantNone(t, Lint(ok, testExt(), catalog.New()), CodeUnknownConstraint)
}

func TestLintUnknownMethod(t *testing.T) {
	rs := mustParse(t, `rule broken: UNIONN(s) / --> INTERN(s) / NOSUCHMETHOD(s) ;`)
	ds := Lint(rs, testExt(), catalog.New())
	want(t, ds, CodeUnknownMethod, "broken", SevError, `"NOSUCHMETHOD"`)
}

func TestLintArityMismatch(t *testing.T) {
	// JOIN's declared arity is 3. A left-hand side of the wrong arity
	// only never matches; a right-hand side builds a malformed plan.
	rs := mustParse(t, `rule broken: JOIN(a, b) / --> JOIN(b, a) / ;`)
	ds := Lint(rs, testExt(), catalog.New())
	want(t, ds, CodeArity, "broken", SevWarn, "declared arity is 3")
	want(t, ds, CodeArity, "broken", SevError, "declared arity is 3")

	// The SEARCH short of its projection is refused, the ADT function of
	// the wrong arity stays a warning.
	rs = mustParse(t, `rule short: SEARCH(r, q, p) / --> SEARCH(r, AND(q, ISEMPTY(p, p))) / ;`)
	ds = Lint(rs, testExt(), catalog.New())
	want(t, ds, CodeArity, "short", SevError, "SEARCH is applied to 2 arguments but its declared arity is 3")
	want(t, ds, CodeArity, "short", SevWarn, "ISEMPTY is applied to 2 arguments but its declared arity is 1")
	for _, d := range ds {
		if d.Severity == SevError && strings.Contains(d.Msg, "ISEMPTY") {
			t.Errorf("an ADT arity mismatch is an error: %s", d)
		}
	}
}

func TestLintArityInconsistentWithinRule(t *testing.T) {
	rs := mustParse(t, `rule broken: UNIONN(MYFN(a)) / --> UNIONN(MYFN(a, a)) / ;`)
	ds := Lint(rs, testExt(), catalog.New())
	want(t, ds, CodeArity, "broken", SevWarn, "inconsistent arities")
}

func TestLintUnknownSymbol(t *testing.T) {
	rs := mustParse(t, `rule odd: UNIONN(FROBNICATE(a)) / --> UNIONN(a) / ;`)
	ds := Lint(rs, testExt(), catalog.New())
	want(t, ds, CodeUnknownSymbol, "odd", SevInfo, `"FROBNICATE"`)

	// LERA vocabulary, registered externals and ADT builtins are known.
	ok := mustParse(t, `rule fine: SEARCH(LIST(REL(n)), q, a) / --> FILTER(REL(n), q) / ;`)
	wantNone(t, Lint(ok, testExt(), catalog.New()), CodeUnknownSymbol)
}

func TestLintDivergentSelfCycle(t *testing.T) {
	// Identity rewrite with no guard: warn-level divergence.
	rs := mustParse(t, `rule spin: UNIONN(s) / --> UNIONN(s) / ;`)
	ds := Lint(rs, testExt(), catalog.New())
	want(t, ds, CodeDivergence, "spin", SevWarn, "no constraints or methods guard it")

	// The same cycle behind a constraint degrades to info: the guard is
	// assumed to break the loop, block budgets catch it if not.
	guarded := mustParse(t, `rule churn: UNIONN(s) / GOODC(s) --> UNIONN(s) / ;`)
	ds = Lint(guarded, testExt(), catalog.New())
	want(t, ds, CodeDivergence, "churn", SevInfo, "constraints/methods must prevent re-application")

	// A size-decreasing rule never triggers RC006.
	dec := mustParse(t, `rule shrink: INTERN(INTERN(s)) / --> INTERN(s) / ;`)
	wantNone(t, Lint(dec, testExt(), catalog.New()), CodeDivergence)
}

func TestLintDuplicateListing(t *testing.T) {
	rs := mustParse(t, `
rule a: UNIONN(s) / --> INTERN(s) / ;
block(b, {a, a}, 1);
`)
	ds := Lint(rs, testExt(), catalog.New())
	want(t, ds, CodeShadowed, "b", SevWarn, "more than once")
}

func TestLintShadowedRule(t *testing.T) {
	rs := mustParse(t, `
rule first:  UNIONN(s) / --> INTERN(s) / ;
rule second: UNIONN(s) / --> DIFF(s, s) / ;
block(b, {first, second}, 1);
`)
	ds := Lint(rs, testExt(), catalog.New())
	want(t, ds, CodeShadowed, "second", SevWarn, `shadows`)
}

func TestLintUnknownBlockInSeq(t *testing.T) {
	// The parser does not resolve seq -> block references (Validate
	// does), so the lint must catch the dangling name.
	rs := mustParse(t, `
rule a: UNIONN(s) / --> INTERN(s) / ;
block(b, {a}, 1);
seq({b, ghost}, 1);
`)
	ds := Lint(rs, testExt(), catalog.New())
	want(t, ds, CodeUnknownBlock, "", SevError, `"ghost"`)
}

func TestLintUnknownRuleInBlock(t *testing.T) {
	// Parse rejects this, so build the rule set programmatically — the
	// lint must still catch it for rule bases assembled in Go.
	rs := rules.NewRuleSet()
	rs.Blocks["b"] = &rules.Block{Name: "b", Rules: []string{"ghost"}, Limit: 1}
	rs.BlockOrder = []string{"b"}
	ds := Lint(rs, testExt(), catalog.New())
	want(t, ds, CodeUnknownRule, "b", SevError, `"ghost"`)
}

func TestLintDeadRule(t *testing.T) {
	rs := mustParse(t, `
rule used:   UNIONN(s) / --> INTERN(s) / ;
rule orphan: INTERN(INTERN(s)) / --> INTERN(s) / ;
block(b, {used}, 1);
`)
	ds := Lint(rs, testExt(), catalog.New())
	want(t, ds, CodeDeadRule, "orphan", SevInfo, "never fire")

	// Without any blocks the whole rule set is one implicit block, so no
	// rule is dead.
	free := mustParse(t, `rule solo: INTERN(INTERN(s)) / --> INTERN(s) / ;`)
	wantNone(t, Lint(free, testExt(), catalog.New()), CodeDeadRule)
}

// §4.2 termination analysis: a rule that does not shrink the term, in a
// block that saturates, is reported with its rule and block; decreasing
// rules and bounded blocks are not.
func TestLintNonDecreasingInSaturatingBlock(t *testing.T) {
	rs := mustParse(t, `
rule shrink: BIG(x, y) --> SMALL(x);
rule grow: SMALL(x) --> BIG(x, WRAP(x));
rule same: MID(x) --> MID2(x);
block(saturate, {shrink, grow, same}, inf);
block(bounded, {grow}, 10);
`)
	ds := Lint(rs, testExt(), catalog.New())
	if got := Filter(ds, CodeNonDecreasing); len(got) != 2 {
		t.Fatalf("want 2 %s diagnostics, got:\n%s", CodeNonDecreasing, renderAll(got))
	}
	d := want(t, ds, CodeNonDecreasing, "grow", SevInfo, `saturating block "saturate"`)
	if d.Site != "3:1 block saturate" {
		t.Errorf("site = %q, want the rule position and the block", d.Site)
	}
	want(t, ds, CodeNonDecreasing, "same", SevInfo, "lhs 2, rhs 2 nodes")
}

func TestLintNilExternalsAndCatalogDegrade(t *testing.T) {
	// With no externals/catalog the lint must not panic and must not
	// invent RC002/RC003 errors it cannot substantiate... except RC003,
	// which still fires for non-call methods; here everything resolves.
	rs := mustParse(t, `rule r: UNIONN(s) / GOODC(s) --> INTERN(s) / ;`)
	ds := Lint(rs, nil, nil)
	want(t, ds, CodeUnknownConstraint, "r", SevError, `"GOODC"`)
}

func TestLintSitesCarryPositions(t *testing.T) {
	rs := mustParse(t, `
rule broken: UNIONN(s) / --> UNIONN(z) / ;
`)
	ds := Lint(rs, testExt(), catalog.New())
	d := want(t, ds, CodeUnboundRHS, "broken", SevError, `"z"`)
	if !strings.HasPrefix(d.Site, "2:1") {
		t.Fatalf("diagnostic site %q does not carry the rule position 2:1", d.Site)
	}
}

func TestDiagnosticHelpers(t *testing.T) {
	ds := []Diagnostic{
		{Rule: "a", Severity: SevError, Code: CodeUnboundRHS, Msg: "x"},
		{Rule: "b", Severity: SevWarn, Code: CodeArity, Msg: "y"},
		{Rule: "c", Severity: SevInfo, Code: CodeArity, Msg: "z"},
	}
	if !HasErrors(ds) {
		t.Fatal("HasErrors should be true")
	}
	if n := Count(ds, SevWarn); n != 1 {
		t.Fatalf("Count(warn) = %d, want 1", n)
	}
	if got := len(Filter(ds, CodeArity)); got != 2 {
		t.Fatalf("Filter(RC004) = %d entries, want 2", got)
	}
	if !HasErrors(ds[:1]) || HasErrors(ds[1:]) {
		t.Fatal("HasErrors severity threshold wrong")
	}
}
