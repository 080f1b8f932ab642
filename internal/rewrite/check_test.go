package rewrite

// Condition checks that build nothing, and run state that pins nothing
// (docs/PERF.md "Condition checks that build nothing").

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"lera/internal/guard"
	"lera/internal/term"
)

// TestConstraintShapesMatchOracle: the constraint shapes the corpus sweep
// (TestConstraintChecksMatchOracle) never meets — bare and sequence
// variables, function-variable heads, connectives over them, wrong
// arities, unknown and non-ground constraints — give the oracle's verdict
// and error text.
func TestConstraintShapesMatchOracle(t *testing.T) {
	const src = `
rule bare: FF(x, y) / x --> GG(x);
rule seq: FF(x, y*) / y*, NOTMEMBER(x, y*), DISTINCT(y*, x) --> GG(x);
rule fv: H(x, y) / H(x, y), ISA(H(x), constant), PAIRC(H(x, y)) --> GG(x);
rule conn: FF(x, y) / AND(ISA(x, constant), OR(x, NOT(y))), OR(AND(), y), NOT y --> GG(x);
rule ground: FF(x, y) / x < y, MEMBER(x, SET(1, 2)), UNKNOWNC(y), ISA(x), NOTMEMBER(x), z --> GG(x);
`
	e := newEngine(t, src)
	e.Ext.RegisterConstraint("PAIRC", func(ctx *Ctx, args []*term.Term) (bool, error) {
		return len(args) == 1 && len(args[0].Args) == 2, nil
	})
	subjects := []*term.Term{
		term.F("FF", term.Num(1), term.Num(2)),
		term.F("FF", term.TrueT(), term.FalseT()),
		term.F("FF", term.Str("a"), term.F("GG", term.Num(3))),
		term.F("FF", term.Num(1), term.Num(2), term.Num(1)),
		term.F("FF", term.F("NOT", term.TrueT(), term.FalseT()), term.F("AND", term.TrueT(), term.F("OR", term.FalseT()))),
	}
	checks, verdicts := 0, map[string]bool{}
	for _, name := range e.RS.RuleOrder {
		rule := e.RS.Rules[name]
		for _, sub := range subjects {
			b := term.NewBindings()
			term.Match(rule.LHS, sub, b, func() bool {
				for _, c := range rule.Constraints {
					got, want := CheckBothWays(e, sub, term.Path{}, b, name, c)
					checks++
					verdicts[want] = true
					if got != want {
						t.Errorf("rule %s, constraint %s at %s: got %s, want %s", name, c, sub, got, want)
					}
				}
				return false
			})
		}
	}
	var all []string
	for v := range verdicts {
		all = append(all, v)
	}
	seen := strings.Join(all, "\n")
	for _, want := range []string{"ok=true", "ok=false err=<nil>", "non-boolean constraint", "unbound constraint",
		"NOT takes one constraint", "unknown or non-ground constraint", "ISA takes 2", "NOTMEMBER takes"} {
		if !strings.Contains(seen, want) {
			t.Errorf("no check gave %q; verdicts:\n%s", want, seen)
		}
	}
	if checks < 40 {
		t.Fatalf("only %d checks", checks)
	}
}

// TestConditionCheckAllocs: checking ISA(x, constant) and a registered
// constraint with bound arguments allocates nothing — the constraint term
// is not instantiated and the arguments go to the run's stack.
func TestConditionCheckAllocs(t *testing.T) {
	e := newEngine(t, "rule r: FF(x, y) / ISA(x, constant), CHK(x, y), AND(CHK(y, x), NOT(ISA(y, constant))) --> GG(x);")
	e.Ext.RegisterConstraint("CHK", func(ctx *Ctx, args []*term.Term) (bool, error) {
		return len(args) == 2 && args[0] != args[1], nil
	})
	rule := e.RS.Rules["r"]
	q := term.F("FF", term.Num(1), term.F("GG", term.Num(2)))
	r := e.newRun(context.Background(), q, guard.Limits{})
	r.bind.BindVar("x", q.Args[0])
	r.bind.BindVar("y", q.Args[1])
	r.cx = Ctx{Cat: e.Cat, Bind: &r.bind, Rule: rule.Name, root: q, site: term.Path{}, run: r}
	for _, c := range rule.Constraints {
		check := func() {
			if ok, err := e.evalConstraintSafe(&r.cx, c); !ok || err != nil {
				t.Fatalf("%s: %v, %v; want true", c, ok, err)
			}
		}
		check() // size the argument stack
		if n := testing.AllocsPerRun(100, check); n != 0 {
			t.Errorf("checking %s allocates %.0f times, want 0", c, n)
		}
	}
	if len(r.args) != 0 {
		t.Errorf("argument stack left %d deep", len(r.args))
	}
}

// termRefs counts the non-nil *term.Term values reachable from v, not
// looking into terms themselves, the Engine, or function values.
func termRefs(v reflect.Value, seen map[uintptr]bool) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return 0
		}
		switch v.Type() {
		case reflect.TypeFor[*term.Term]():
			return 1
		case reflect.TypeFor[*Engine]():
			return 0
		}
		if seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		return termRefs(v.Elem(), seen)
	case reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return termRefs(v.Elem(), seen)
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += termRefs(v.Field(i), seen)
		}
		return n
	case reflect.Slice:
		v = v.Slice(0, v.Cap()) // what lies beyond the length is held too
		fallthrough
	case reflect.Array:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += termRefs(v.Index(i), seen)
		}
		return n
	case reflect.Map:
		n := 0
		for it := v.MapRange(); it.Next(); {
			n += termRefs(it.Key(), seen) + termRefs(it.Value(), seen)
		}
		return n
	}
	return 0
}

// TestPooledRunHoldsNoTerms: after RunCtx or RunBlockCtx returns — with a
// plan, or with an error from a budget, a constraint or a panicking
// external — the state it put back in the pool holds no term pointer: not
// in the site index, the bindings trail, the matcher's arenas, the
// argument stack, the Ctx or the failed-attempt memo, nor beyond any
// slice's length.
func TestPooledRunHoldsNoTerms(t *testing.T) {
	const src = `
rule pick: PAIR(SET(c, w*), z) / CHK(c, w*), ISA(c, constant) --> SEEN(c, z);
rule grow: FF(x) --> FF(SS(x));
rule bad: BAD(x) / ERRC(x) --> GG(x);
rule boom: BOOM(x) / AND(CHK(x, x), BOOMC(x, x)) --> GG(x);
rule miss: SEEN(c, z) / DISTINCT(c, c) --> GG(c);
block(b, {pick, grow, bad, boom, miss}, inf);
seq({b}, 1);
`
	set := term.Set(term.Num(1), term.Num(2), term.Num(3))
	cases := []struct {
		name    string
		q       *term.Term
		lim     guard.Limits
		block   string
		wantErr string
	}{
		{"plan", term.F("PAIR", set, term.Num(4)), guard.Limits{}, "", ""},
		{"plan-block", term.F("PAIR", set, term.Num(4)), guard.Limits{}, "b", ""},
		{"step-budget", term.F("FF", term.Num(1)), guard.Limits{MaxSteps: 3}, "", "rule applications reached"},
		{"constraint-error", term.F("PAIR", set, term.F("BAD", term.Num(1))), guard.Limits{}, "", "no good"},
		{"constraint-panic", term.F("BOOM", term.Num(1)), guard.Limits{}, "b", "kaboom"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := newEngine(t, src)
			e.Ext.RegisterConstraint("CHK", func(ctx *Ctx, args []*term.Term) (bool, error) { return true, nil })
			e.Ext.RegisterConstraint("ERRC", func(ctx *Ctx, args []*term.Term) (bool, error) {
				return false, errors.New("no good")
			})
			e.Ext.RegisterConstraint("BOOMC", func(ctx *Ctx, args []*term.Term) (bool, error) { panic("kaboom") })
			runOnce := func() {
				var err error
				if c.block != "" {
					_, _, err = e.RunBlockCtx(context.Background(), c.q, c.block, c.lim)
				} else {
					_, _, err = e.RunCtx(context.Background(), c.q, c.lim)
				}
				if (c.wantErr == "") != (err == nil) || err != nil && !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, c.wantErr)
				}
			}
			// The pool may drop what it is given (the race detector makes
			// it do so at random), so run until a state comes back.
			var r *runState
			for i := 0; i < 100 && r == nil; i++ {
				runOnce()
				r, _ = e.pool.Get().(*runState)
			}
			if r == nil {
				t.Fatal("no run state came back to the pool")
			}
			if n := termRefs(reflect.ValueOf(r), map[uintptr]bool{}); n != 0 {
				t.Errorf("the pooled run state holds %d term pointers", n)
			}
			if len(r.failed) != 0 {
				t.Errorf("the pooled run state remembers %d failed attempts", len(r.failed))
			}
			if cap(r.ix.sites) == 0 {
				t.Error("the pooled state kept no site index storage")
			}
		})
	}

	// The walk is not vacuous: a run in flight holds its query.
	e := newEngine(t, src)
	e.Ext.RegisterConstraint("CHK", func(ctx *Ctx, args []*term.Term) (bool, error) { return true, nil })
	q := term.F("PAIR", set, term.Num(4))
	r := e.newRun(context.Background(), q, guard.Limits{})
	if _, err := r.runBlock(q, e.blocks["b"]); err != nil {
		t.Fatal(err)
	}
	if n := termRefs(reflect.ValueOf(r), map[uintptr]bool{}); n == 0 {
		t.Error("a run in flight shows no term pointers; the walk sees nothing")
	}
	if len(r.failed) == 0 {
		t.Error("a run in flight remembers no failed attempt (miss at SEEN); the scrub of the memo is not exercised")
	}
}
