package rewrite

// Guardrail tests for the rewrite engine: panic isolation around every
// external invocation, cancellation/deadline checks inside the condition
// loop, and the step/term-size budgets. Faults are injected
// deterministically through guard.Injector.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"lera/internal/guard"
	"lera/internal/term"
)

func TestConstraintPanicIsolated(t *testing.T) {
	e := newEngine(t, "rule rc: FF(x) / BOOMC(x) --> GG(x);")
	inj := guard.NewInjector()
	inj.Set("BOOMC", guard.Fault{OnCall: 1, Mode: guard.FaultPanic})
	e.Ext.RegisterConstraint("BOOMC", func(ctx *Ctx, args []*term.Term) (bool, error) {
		if err := inj.Hit(ctx.Context(), "BOOMC"); err != nil {
			return false, err
		}
		return true, nil
	})
	_, _, err := e.RunCtx(context.Background(), term.F("FF", term.Num(1)), guard.Limits{})
	var ee *guard.ExternalError
	if !errors.As(err, &ee) {
		t.Fatalf("want ExternalError, got %v", err)
	}
	if ee.Kind != guard.ExtConstraint {
		t.Errorf("kind = %q", ee.Kind)
	}
	if ee.Rule != "rc" {
		t.Errorf("rule = %q, want rc", ee.Rule)
	}
	if ee.External != "BOOMC" {
		t.Errorf("external = %q", ee.External)
	}
	if ee.Site == "" {
		t.Errorf("site must name the match path")
	}
	if ee.Panic != "injected panic (BOOMC call 1)" {
		t.Errorf("panic = %v", ee.Panic)
	}
}

func TestMethodPanicIsolated(t *testing.T) {
	e := newEngine(t, "rule rm: FF(x) --> a / BOOMM(x, a);")
	e.Ext.RegisterMethod("BOOMM", func(ctx *Ctx, args []*term.Term) (bool, error) {
		panic("method kaboom")
	})
	_, _, err := e.RunCtx(context.Background(), term.F("FF", term.Num(1)), guard.Limits{})
	var ee *guard.ExternalError
	if !errors.As(err, &ee) {
		t.Fatalf("want ExternalError, got %v", err)
	}
	if ee.Kind != guard.ExtMethod || ee.Rule != "rm" || ee.External != "BOOMM" {
		t.Errorf("fields = %+v", ee)
	}
}

func TestBuiltinPanicIsolated(t *testing.T) {
	e := newEngine(t, "rule rb: FF(x) --> BOOMB(x);")
	e.Ext.RegisterBuiltin("BOOMB", func(ctx *Ctx, args []*term.Term) (*term.Term, error) {
		panic("builtin kaboom")
	})
	_, _, err := e.RunCtx(context.Background(), term.F("FF", term.Num(1)), guard.Limits{})
	var ee *guard.ExternalError
	if !errors.As(err, &ee) {
		t.Fatalf("want ExternalError, got %v", err)
	}
	if ee.Kind != guard.ExtBuiltin || ee.Rule != "rb" || ee.External != "BOOMB" {
		t.Errorf("fields = %+v", ee)
	}
}

func TestRewriteDeadline(t *testing.T) {
	// The grow rule never terminates; below the condition-check cap only
	// the context deadline can cut it.
	e := newEngine(t, "rule grow: FF(x) --> FF(SS(x));")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := e.RunCtx(ctx, term.F("FF", term.Num(1)), guard.Limits{})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not interrupt the rewrite (took %v)", elapsed)
	}
	if !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
}

func TestRewriteCancel(t *testing.T) {
	e := newEngine(t, "rule grow: FF(x) --> FF(SS(x));")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, _, err := e.RunCtx(ctx, term.F("FF", term.Num(1)), guard.Limits{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestStepBudget(t *testing.T) {
	e := newEngine(t, "rule grow: FF(x) --> FF(SS(x));")
	_, st, err := e.RunCtx(context.Background(), term.F("FF", term.Num(1)), guard.Limits{MaxSteps: 5})
	if !errors.Is(err, guard.ErrStepBudget) {
		t.Fatalf("got %v, want ErrStepBudget", err)
	}
	if st == nil || st.Applications != 5 {
		t.Fatalf("stats = %+v, want 5 applications", st)
	}
	if !strings.Contains(err.Error(), "5") {
		t.Errorf("error must carry the application count: %v", err)
	}
}

func TestTermSizeBudget(t *testing.T) {
	e := newEngine(t, "rule grow: FF(x) --> FF(SS(x));")
	_, _, err := e.RunCtx(context.Background(), term.F("FF", term.Num(1)), guard.Limits{MaxTermSize: 10})
	if !errors.Is(err, guard.ErrTermSize) {
		t.Fatalf("got %v, want ErrTermSize", err)
	}
	if !strings.Contains(err.Error(), "grow") {
		t.Errorf("error must name the offending rule: %v", err)
	}
}

func TestLastGoodAfterPanic(t *testing.T) {
	// The safe rule commits once before the panicking rule fires; the term
	// returned with the error must be the committed intermediate, not the
	// original query.
	e := newEngine(t, `
rule ok: AA(x) --> BB(x);
rule boom: BB(x) / BOOMC(x) --> CC(x);
`)
	e.Ext.RegisterConstraint("BOOMC", func(ctx *Ctx, args []*term.Term) (bool, error) {
		panic("late kaboom")
	})
	lg, _, err := e.RunCtx(context.Background(), term.F("AA", term.Num(1)), guard.Limits{})
	if err == nil {
		t.Fatal("want error from panicking constraint")
	}
	if lg == nil || lg.String() != "BB(1)" {
		t.Fatalf("last good = %v, want BB(1)", lg)
	}
}

func TestLastGoodAfterStepBudget(t *testing.T) {
	e := newEngine(t, "rule grow: FF(x) --> FF(SS(x));")
	lg, _, err := e.RunCtx(context.Background(), term.F("FF", term.Num(1)), guard.Limits{MaxSteps: 2})
	if !errors.Is(err, guard.ErrStepBudget) {
		t.Fatalf("got %v", err)
	}
	if lg == nil || lg.String() != "FF(SS(SS(1)))" {
		t.Fatalf("last good = %v, want FF(SS(SS(1)))", lg)
	}
}
