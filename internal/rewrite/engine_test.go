package rewrite

import (
	"context"
	"strings"
	"testing"

	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/obs"
	"lera/internal/rules"
	"lera/internal/term"
	"lera/internal/testdb"
	"lera/internal/value"
)

func newEngine(t *testing.T, src string) *Engine {
	t.Helper()
	rs, err := rules.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	return New(rs, NewExternals(), cat, nil)
}

func run(t *testing.T, e *Engine, q *term.Term) (*term.Term, *Stats) {
	t.Helper()
	out, st, err := e.RunCtx(context.Background(), q, guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	return out, st
}

func TestSimpleRewrite(t *testing.T) {
	e := newEngine(t, "rule r: FOO(x) --> BAR(x);")
	out, st := run(t, e, term.F("WRAP", term.F("FOO", term.Num(1))))
	if out.String() != "WRAP(BAR(1))" {
		t.Errorf("out = %s", out)
	}
	if st.Applications != 1 {
		t.Errorf("applications = %d", st.Applications)
	}
}

func TestRewriteToFixpoint(t *testing.T) {
	// Peano-style: s(s(s(z))) with rule s(x) --> x reduces to z in 3
	// applications under an infinite implicit block.
	e := newEngine(t, "rule strip: SUCC(x) --> x;")
	n := term.F("ZERO")
	for i := 0; i < 3; i++ {
		n = term.F("SUCC", n)
	}
	out, st := run(t, e, n)
	if out.String() != "ZERO()" {
		t.Errorf("out = %s", out)
	}
	if st.Applications != 3 {
		t.Errorf("applications = %d", st.Applications)
	}
}

func TestConstraintComparison(t *testing.T) {
	e := newEngine(t, "rule r: F(x) / x > 5 --> BIG(x);")
	out, _ := run(t, e, term.F("PAIR", term.F("F", term.Num(3)), term.F("F", term.Num(7))))
	if out.String() != "PAIR(F(3), BIG(7))" {
		t.Errorf("out = %s", out)
	}
}

func TestConstraintConnectives(t *testing.T) {
	e := newEngine(t, `
rule r1: FF(x) / x > 5 AND x < 10 --> MID(x);
rule r2: GG(x) / x < 0 OR x > 100 --> EXT(x);
rule r3: HH(x) / NOT x = 0 --> NZ(x);
`)
	out, _ := run(t, e, term.F("TT",
		term.F("FF", term.Num(7)), term.F("FF", term.Num(12)),
		term.F("GG", term.Num(-1)), term.F("GG", term.Num(50)),
		term.F("HH", term.Num(0)), term.F("HH", term.Num(1))))
	want := "TT(MID(7), FF(12), EXT(-1), GG(50), HH(0), NZ(1))"
	if out.String() != want {
		t.Errorf("out = %s, want %s", out, want)
	}
}

func TestConstraintISAConstant(t *testing.T) {
	// Figure 12's ISA(x, constant).
	e := newEngine(t, "rule r: F(x, y) / ISA(x, constant), ISA(y, constant) --> a / EVALUATE(PLUSOP(x, y), a);")
	// PLUSOP is an implementor-registered pure ADT function, so
	// EVALUATE can fold it (the extensibility path of Section 4.1).
	e.Cat.ADTs.Register("PLUSOP", 2, true, func(args []value.Value) (value.Value, error) {
		return value.Int(args[0].I + args[1].I), nil
	})
	out, _ := run(t, e, term.F("F", term.Num(2), term.Num(3)))
	if out.String() != "5" {
		t.Errorf("out = %s", out)
	}
	// Non-constant arguments: rule must not fire.
	out2, _ := run(t, e, term.F("F", term.V("q"), term.Num(3)))
	if !strings.HasPrefix(out2.String(), "F(") {
		t.Errorf("out2 = %s", out2)
	}
}

func TestConstraintISAType(t *testing.T) {
	// ISA typed against the schema of the enclosing search: Categories
	// (2.3 in the Figure 3 ordering) is a SetCategory.
	e := newEngine(t, "rule r: MEMBER(c, x) / ISA(x, SetCategory) --> MARKED(c, x);")
	q := lera.Search(
		[]*term.Term{lera.Rel("APPEARS_IN"), lera.Rel("FILM")},
		lera.Ands(term.F("MEMBER", term.Str("Adventure"), lera.Attr(2, 3))),
		[]*term.Term{lera.Attr(2, 2)},
	)
	out, st := run(t, e, q)
	if st.Applications != 1 {
		t.Fatalf("applications = %d", st.Applications)
	}
	if !term.Contains(out, func(s *term.Term) bool { return s.Functor == "MARKED" }) {
		t.Errorf("out = %s", lera.Format(out))
	}
	// The same rule must NOT fire when the second argument is a set of
	// chars rather than SetCategory.
	q2 := lera.Search(
		[]*term.Term{lera.Rel("APPEARS_IN")},
		lera.Ands(term.F("MEMBER", term.Str("x"), term.Set(term.Str("x")))),
		[]*term.Term{lera.Attr(1, 1)},
	)
	_, st2 := run(t, e, q2)
	if st2.Applications != 0 {
		t.Errorf("rule fired on non-SetCategory argument")
	}
}

func TestSeqVarRule(t *testing.T) {
	// The paper's running example: drop a G(y, TRUE) member whose y is
	// already in the rest of the set. (The paper prints the right-hand
	// side as F(x*); under our splice semantics the set-typed result is
	// written explicitly as F(SET(x*)).)
	e := newEngine(t, "rule ex: F(SET(x*, G(y, f))) / MEMBER(y, x*), f = TRUE --> F(SET(x*));")
	q := term.F("F", term.Set(term.Num(1), term.Num(2), term.F("G", term.Num(2), term.TrueT())))
	out, _ := run(t, e, q)
	if out.String() != "F(SET(1, 2))" {
		t.Errorf("out = %s", out)
	}
	// y not in x*: no application.
	q2 := term.F("F", term.Set(term.Num(1), term.F("G", term.Num(9), term.TrueT())))
	_, st := run(t, e, q2)
	if st.Applications != 0 {
		t.Error("must not fire when MEMBER(y, x*) fails")
	}
	// f = FALSE: no application.
	q3 := term.F("F", term.Set(term.Num(1), term.F("G", term.Num(1), term.FalseT())))
	_, st3 := run(t, e, q3)
	if st3.Applications != 0 {
		t.Error("must not fire when f != TRUE")
	}
}

func TestBuiltins(t *testing.T) {
	e := newEngine(t, `
rule flat: CAT(LIST(x*), LIST(y*)) --> APPENDL(x*, y*);
rule merge: MRG(f, g) --> ANDMERGE(f, g);
rule su: UU(SET(x*), SET(y*)) --> SET-UNION(x*, y*);
`)
	out, _ := run(t, e, term.F("CAT", term.List(term.Num(1)), term.List(term.Num(2))))
	if out.String() != "LIST(1, 2)" {
		t.Errorf("APPENDL: %s", out)
	}
	a := lera.Ands(term.F("=", lera.Attr(1, 1), term.Num(1)))
	b := lera.Ands(term.F(">", lera.Attr(1, 2), term.Num(2)))
	out2, _ := run(t, e, term.F("MRG", a, b))
	if len(lera.Conjuncts(out2)) != 2 {
		t.Errorf("ANDMERGE: %s", out2)
	}
	out3, _ := run(t, e, term.F("UU", term.Set(term.Num(1), term.Num(2)), term.Set(term.Num(2), term.Num(3))))
	if out3.String() != "SET(1, 2, 3)" {
		t.Errorf("SET-UNION: %s", out3)
	}
}

func TestMethodVeto(t *testing.T) {
	// EVALUATE on a non-ground expression vetoes the rule.
	e := newEngine(t, "rule r: F(x) --> a / EVALUATE(UNKNOWNFN(x), a);")
	q := term.F("F", term.Num(1))
	out, st := run(t, e, q)
	if st.Applications != 0 || !term.Equal(out, q) {
		t.Errorf("vetoed rule must not apply: %s", out)
	}
}

func TestMethodErrors(t *testing.T) {
	e := newEngine(t, "rule r: F(x) --> a / NOSUCHMETHOD(x, a);")
	if _, _, err := e.RunCtx(context.Background(), term.F("F", term.Num(1)), guard.Limits{}); err == nil {
		t.Error("unknown method must error")
	}
	e2 := newEngine(t, "rule r: F(x) --> a / EVALUATE(x);")
	if _, _, err := e2.RunCtx(context.Background(), term.F("F", term.Num(1)), guard.Limits{}); err == nil {
		t.Error("bad EVALUATE arity must error")
	}
}

func TestUnknownConstraintErrors(t *testing.T) {
	e := newEngine(t, "rule r: F(x) / MYSTERY(x) --> G(x);")
	if _, _, err := e.RunCtx(context.Background(), term.F("F", term.Num(1)), guard.Limits{}); err == nil {
		t.Error("unknown constraint must error")
	}
}

func TestUnboundRHSVariableErrors(t *testing.T) {
	e := newEngine(t, "rule r: F(x) --> G(x, q9);")
	if _, _, err := e.RunCtx(context.Background(), term.F("F", term.Num(1)), guard.Limits{}); err == nil {
		t.Error("unbound RHS variable must error")
	}
}

func TestNoChangeApplicationsDoNotLoop(t *testing.T) {
	// G(x) --> G(x) would loop forever if no-change detection failed.
	e := newEngine(t, "rule id: G(x) --> G(x);")
	out, st := run(t, e, term.F("G", term.Num(1)))
	if st.Applications != 0 {
		t.Errorf("identity rule must not count as application: %d", st.Applications)
	}
	if out.String() != "G(1)" {
		t.Errorf("out = %s", out)
	}
}

func TestMaxChecksGuard(t *testing.T) {
	// A growing rule under an infinite block must hit the guard, not
	// hang: F(x) --> F(S(x)).
	defer func(saved int) { maxChecks = saved }(maxChecks)
	maxChecks = 500
	e := newEngine(t, "rule grow: F(x) --> F(S(x));")
	if _, _, err := e.RunCtx(context.Background(), term.F("F", term.Num(1)), guard.Limits{}); err == nil {
		t.Error("non-terminating rule set must be cut by maxChecks")
	}
}

func TestBlockBudgetCountsConditionChecks(t *testing.T) {
	// §4.2: each condition check decrements the budget. The LHS F(x)
	// matches both F nodes; with budget 1 only one check happens.
	src := `
rule r: FF(x) / x > 10 --> BIG(x);
block(b, {r}, 1);
seq({b}, 1);
`
	e := newEngine(t, src)
	q := term.F("TT", term.F("FF", term.Num(1)), term.F("FF", term.Num(20)))
	rec := obs.NewRecorder("rewrite")
	out, st, err := e.RunCtx(obs.NewContext(context.Background(), rec), q, guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// The first check is FF(1), which fails x>10 and exhausts the
	// budget; FF(20) is never tried.
	if st.ConditionChecks != 1 {
		t.Errorf("condition checks = %d, want 1", st.ConditionChecks)
	}
	if st.Applications != 0 {
		t.Errorf("applications = %d, want 0 (budget spent on failing check)", st.Applications)
	}
	if trace := obs.FormatTree(rec.Finish(), false); !strings.Contains(trace, "budget.exhausted block=b") {
		t.Errorf("budget must be recorded exhausted:\n%s", trace)
	}
	if out.String() != q.String() {
		t.Errorf("out = %s", out)
	}
	// With budget 2 the second check succeeds.
	src2 := strings.Replace(src, ", 1);", ", 2);", 1)
	e2 := newEngine(t, src2)
	out2, _ := run(t, e2, q)
	if out2.String() != "TT(FF(1), BIG(20))" {
		t.Errorf("out2 = %s", out2)
	}
}

func TestZeroBudgetBlockIsSkipped(t *testing.T) {
	// §7: "Simple queries ... a 0 limit can then be given to all blocks".
	src := `
rule r: FF(x) --> GG(x);
block(b, {r}, 0);
seq({b}, 1);
`
	e := newEngine(t, src)
	q := term.F("FF", term.Num(1))
	out, st := run(t, e, q)
	if st.Applications != 0 || !term.Equal(out, q) {
		t.Errorf("zero-budget block must be inert: %s", out)
	}
}

func TestSequenceOrderAndRepeats(t *testing.T) {
	// Two blocks in sequence; the second depends on the first's output;
	// a repeated first block picks up work exposed by the second (§4.2:
	// "the same block may be executed several times").
	src := `
rule a2b: AA(x) --> BB(x);
rule b2c: BB(x) / --> CC(AA(x)) / ;
block(first, {a2b}, inf);
block(second, {b2c}, 1);
seq({first, second, first}, 1);
`
	e := newEngine(t, src)
	out, _ := run(t, e, term.F("AA", term.Num(1)))
	// first: AA->BB; second: BB->CC(AA(1)); first again: inner AA->BB.
	if out.String() != "CC(BB(1))" {
		t.Errorf("out = %s", out)
	}
}

func TestSeqLimitBoundsRounds(t *testing.T) {
	// A ping-pong pair under seq limit 3 stops after 3 rounds.
	src := `
rule p: PP(x) --> QQ(SS(x));
rule q: QQ(x) --> PP(x);
block(bp, {p}, 1);
block(bq, {q}, 1);
seq({bp, bq}, 3);
`
	e := newEngine(t, src)
	out, st := run(t, e, term.F("PP", term.Num(0)))
	if st.Rounds != 3 {
		t.Errorf("rounds = %d", st.Rounds)
	}
	if out.String() != "PP(SS(SS(SS(0))))" {
		t.Errorf("out = %s", out)
	}
}

func TestRunBlockDirect(t *testing.T) {
	src := `
rule r: FF(x) --> GG(x);
block(b, {r}, inf);
`
	e := newEngine(t, src)
	out, st, err := e.RunBlockCtx(context.Background(), term.F("FF", term.Num(1)), "b", guard.Limits{})
	if err != nil || out.String() != "GG(1)" || st.Applications != 1 {
		t.Errorf("RunBlock: %s %v %v", out, st, err)
	}
	if _, _, err := e.RunBlockCtx(context.Background(), term.Num(1), "nosuch", guard.Limits{}); err == nil {
		t.Error("unknown block must error")
	}
}

// TestDeclaredZeroBlock: a block declared with limit 0 — how the §7
// knobs turn a block off — checks nothing, applies nothing, and reports
// no budget.exhausted, since it had no allowance to spend.
func TestDeclaredZeroBlock(t *testing.T) {
	src := `
rule r: FF(x) --> GG(x);
block(b, {r}, 0);
seq({b}, 1);
`
	e := newEngine(t, src)
	rec := obs.NewRecorder("rewrite")
	out, st, err := e.RunCtx(obs.NewContext(context.Background(), rec), term.F("FF", term.Num(1)), guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applications != 0 || st.ConditionChecks != 0 || out.String() != "FF(1)" {
		t.Errorf("a 0 limit must disable the block: %s after %d checks", out, st.ConditionChecks)
	}
	if got := obs.FormatTree(rec.Finish(), false); strings.Contains(got, "budget.exhausted") {
		t.Errorf("a block declared 0 reported an exhausted budget:\n%s", got)
	}
}

// TestTraceCollection: a rewrite run under a recorder records each rule
// application once, as a rule.apply event on its block's span.
func TestTraceCollection(t *testing.T) {
	src := `
rule r: FF(x) --> GG(x);
block(b, {r}, inf);
seq({b}, 1);
`
	e := newEngine(t, src)
	rec := obs.NewRecorder("rewrite")
	_, st, err := e.RunCtx(obs.NewContext(context.Background(), rec), term.F("HH", term.F("FF", term.Num(1))), guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	got := obs.FormatTree(rec.Finish(), false)
	if want := "· rule.apply rule=r block=b site=[0] checks=1 size=3\n"; st.Applications != 1 || strings.Count(got, "rule.apply") != 1 || !strings.Contains(got, want) {
		t.Errorf("trace for %d applications:\n%s\nwant one %q", st.Applications, got, want)
	}
}

func TestRuleOrderWithinBlock(t *testing.T) {
	// Earlier rules win when several match the same site.
	src := `
rule first: FOO(x) --> ONE(x);
rule second: FOO(x) --> TWO(x);
block(b, {first, second}, inf);
seq({b}, 1);
`
	e := newEngine(t, src)
	out, _ := run(t, e, term.F("FOO", term.Num(1)))
	if out.String() != "ONE(1)" {
		t.Errorf("out = %s", out)
	}
}

func TestNotMemberAndDistinctConstraints(t *testing.T) {
	// Transitivity with a NOTMEMBER guard terminates by saturation:
	// once EQT(x,z) is present, SET-dedup makes application a no-op.
	src := `
rule trans: ANDS(SET(w*, EQT(x, y), EQT(y, z))) / DISTINCT(x, z), NOTMEMBER(EQT(x, z), w*)
  --> ANDS(SET(w*, EQT(x, y), EQT(y, z), EQT(x, z)));
`
	e := newEngine(t, src)
	q := term.F("ANDS", term.Set(
		term.F("EQT", term.Str("a"), term.Str("b")),
		term.F("EQT", term.Str("b"), term.Str("c")),
		term.F("EQT", term.Str("c"), term.Str("d")),
	))
	out, _ := run(t, e, q)
	// Transitive closure of a=b=c=d adds a=c, b=d, a=d.
	if n := len(out.Args[0].Args); n != 6 {
		t.Errorf("closure size = %d, want 6: %s", n, out)
	}
}

// Context helpers: EnclosingRels and InferAt must respect FIX/LET binders
// crossed on the way to the match site.
func TestCtxEnclosingRelsThroughBinders(t *testing.T) {
	e := newEngine(t, "rule probe: MEMBER(c, x) / ISA(x, SetCategory) --> HIT(c, x);")
	// The MEMBER conjunct sits inside a fixpoint body whose relation list
	// includes the fix-bound name; typing 2.3 must resolve through the
	// provisional schema (declared columns) and the base FILM schema.
	seed := lera.Search([]*term.Term{lera.Rel("FILM")}, lera.TrueQual(),
		[]*term.Term{lera.Attr(1, 1), lera.Attr(1, 3)})
	rec := lera.Search(
		[]*term.Term{lera.Rel("FX"), lera.Rel("FILM")},
		lera.Ands(
			lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1)),
			term.F("MEMBER", term.Str("Adventure"), lera.Attr(2, 3)),
		),
		[]*term.Term{lera.Attr(1, 1), lera.Attr(1, 2)},
	)
	q := lera.Fix("FX", lera.Union(seed, rec), []string{"N", "Cats"})
	out, st := run(t, e, q)
	if st.Applications != 1 {
		t.Fatalf("applications = %d: %s", st.Applications, lera.Format(out))
	}
	// LET binders work the same way.
	q2 := term.F(lera.OpLet, term.Str("M"), seed,
		lera.Search([]*term.Term{lera.Rel("M"), lera.Rel("FILM")},
			lera.Ands(term.F("MEMBER", term.Str("Western"), lera.Attr(2, 3))),
			[]*term.Term{lera.Attr(1, 1)}))
	_, st2 := run(t, e, q2)
	if st2.Applications != 1 {
		t.Errorf("LET binder: applications = %d", st2.Applications)
	}
}

// A constraint needing a relational context outside any operator fails
// gracefully (rule simply does not apply).
func TestCtxNoEnclosingOperator(t *testing.T) {
	e := newEngine(t, "rule probe: MEMBER(c, x) / ISA(x, SetCategory) --> HIT(c, x);")
	q := term.F("MEMBER", term.Str("Adventure"), lera.Attr(1, 3))
	_, st := run(t, e, q)
	if st.Applications != 0 {
		t.Error("no enclosing operator: rule must not fire")
	}
}
