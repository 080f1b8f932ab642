package core

// End-to-end guardrail tests: the session degrades gracefully when the
// rewriter panics or runs out of budget — the query is still answered,
// from the fallback plan, with the reason recorded in Result.Stats —
// while execution-side budget failures stay hard errors, typed and with
// the plan attached to the returned Result.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"lera/internal/guard"
	"lera/internal/rewrite"
	"lera/internal/term"
)

// spinOpts installs a divergent but semantics-preserving rule: every
// SEARCH wraps in an identity FILTER, forever. Each intermediate term is
// fully executable, so any fallback plan the guard picks returns the
// same rows as the untouched query.
func spinOpts() []Option {
	return []Option{
		WithRules(`
rule spin: SEARCH(rl, f, p) --> FILTER(SEARCH(rl, f, p), TRUE);
block(spinb, {spin}, inf);
seq({spinb}, 1);
`),
	}
}

const guardQuery = "SELECT Title FROM FILM WHERE Numf > 0"

// baselineRows answers the query with rewriting off.
func baselineRows(t *testing.T) []string {
	t.Helper()
	s := filmsSession(t)
	s.Rewrite = false
	res, err := s.Query(guardQuery)
	if err != nil {
		t.Fatal(err)
	}
	return sortedCol(res.Rows, 1)
}

// TestDegradeOnRewriteBudgets drives each rewrite-side budget error
// through the full session and checks the degradation contract: no
// error, correct rows, reason visible in Result.Stats.
func TestDegradeOnRewriteBudgets(t *testing.T) {
	want := baselineRows(t)
	cases := []struct {
		name       string
		limits     guard.Limits
		sentinel   error
		wantReason string
	}{
		{"deadline", guard.Limits{Timeout: 40 * time.Millisecond}, guard.ErrDeadline, "deadline"},
		{"step budget", guard.Limits{MaxSteps: 3}, guard.ErrStepBudget, "step budget"},
		{"term size", guard.Limits{MaxTermSize: 60}, guard.ErrTermSize, "term size"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := filmsSession(t, spinOpts()...)
			s.Limits = tc.limits
			res, err := s.Query(guardQuery)
			if err != nil {
				t.Fatalf("degradation must not surface the rewrite error: %v", err)
			}
			if res.Stats == nil || !res.Stats.Degraded {
				t.Fatalf("stats must record degradation: %+v", res.Stats)
			}
			if !strings.Contains(res.Stats.DegradationReason, tc.wantReason) {
				t.Errorf("reason = %q, want mention of %q", res.Stats.DegradationReason, tc.wantReason)
			}
			if got := sortedCol(res.Rows, 1); len(got) != len(want) {
				t.Fatalf("fallback rows = %v, want %v", got, want)
			} else {
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("fallback rows = %v, want %v", got, want)
						break
					}
				}
			}
		})
	}
}

// TestDegradeOnConstraintPanic: a panicking implementor constraint must
// not take the query down — the fault-injection harness arms the panic
// on the first call.
func TestDegradeOnConstraintPanic(t *testing.T) {
	want := baselineRows(t)
	s := filmsSession(t,
		WithRules(`
rule boomr: SEARCH(rl, f, p) / BOOMC(f) --> UNIONN(SET(SEARCH(rl, f, p)));
block(boomb, {boomr}, 1);
seq({boomb}, 1);
`))
	rw, err := s.Rewriter()
	if err != nil {
		t.Fatal(err)
	}
	inj := guard.NewInjector()
	inj.Set("BOOMC", guard.Fault{OnCall: 1, Mode: guard.FaultPanic})
	rw.Ext.RegisterConstraint("BOOMC", func(ctx *rewrite.Ctx, args []*term.Term) (bool, error) {
		if err := inj.Hit(ctx.Context(), "BOOMC"); err != nil {
			return false, err
		}
		return true, nil
	})
	res, err := s.Query(guardQuery)
	if err != nil {
		t.Fatalf("panicking constraint must degrade, not fail: %v", err)
	}
	if res.Stats == nil || !res.Stats.Degraded {
		t.Fatalf("stats must record degradation: %+v", res.Stats)
	}
	reason := res.Stats.DegradationReason
	if !strings.Contains(reason, "BOOMC") || !strings.Contains(reason, "boomr") {
		t.Errorf("reason must name the external and the rule: %q", reason)
	}
	if got := sortedCol(res.Rows, 1); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("fallback rows = %v, want %v", got, want)
	}
	if inj.Calls("BOOMC") != 1 {
		t.Errorf("constraint called %d times, want 1", inj.Calls("BOOMC"))
	}
}

// TestExecutionRowBudgetIsHardError: execution-side budget exhaustion is
// not maskable — it fails, typed, with the plan attached.
func TestExecutionRowBudgetIsHardError(t *testing.T) {
	s := filmsSession(t)
	s.Limits = guard.Limits{MaxRows: 2}
	res, err := s.Query(guardQuery)
	if !errors.Is(err, guard.ErrRowBudget) {
		t.Fatalf("got %v, want ErrRowBudget", err)
	}
	if res == nil || res.Rewritten == nil {
		t.Fatal("the failing Result must carry the plan that was running")
	}
}

// TestLimitsLiveOnTheDB: a session's budget is its database's, one
// variable — a budget set through s.DB binds the next s.Query instead of
// being overwritten by a session-side copy.
func TestLimitsLiveOnTheDB(t *testing.T) {
	s := filmsSession(t)
	if &s.Limits != &s.DB.Limits {
		t.Fatal("s.Limits and s.DB.Limits are two variables")
	}
	s.DB.Limits = guard.Limits{MaxRows: 1}
	if _, err := s.Query(guardQuery); guard.CodeOf(err) != guard.CodeRowBudget {
		t.Fatalf("s.DB.Limits = {MaxRows: 1} on a multi-row query: err = %v, want ROW_BUDGET", err)
	}
}

// TestQueryCtxCancellation: a caller-cancelled context stops the pipeline.
func TestQueryCtxCancellation(t *testing.T) {
	s := filmsSession(t, spinOpts()...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.QueryCtx(ctx, guardQuery)
	// The rewrite phase degrades on the cancelled context; execution then
	// either fails on the same dead context or finishes trivially before
	// the first amortized check. Either way the cancellation must be
	// visible: as a typed error or as a degradation record.
	if err != nil {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, guard.ErrDeadline) {
			t.Fatalf("got %v, want context.Canceled or ErrDeadline", err)
		}
		return
	}
	if res.Stats == nil || !res.Stats.Degraded {
		t.Fatalf("cancelled ctx left no trace: %+v", res.Stats)
	}
}

// TestLimitsZeroValueIsUnlimited: the ctx-less API with zero Limits must
// behave exactly as before the guard layer existed.
func TestLimitsZeroValueIsUnlimited(t *testing.T) {
	s := filmsSession(t)
	res, err := s.Query(guardQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != nil && res.Stats.Degraded {
		t.Fatalf("unexpected degradation: %q", res.Stats.DegradationReason)
	}
	if got := sortedCol(res.Rows, 1); len(got) == 0 {
		t.Fatal("no rows")
	}
}

// TestMalformedPlanDegrades: a rule whose right-hand side builds a
// malformed operator — a SEARCH short of its projection, a FILTER or DIFF
// of one operand, a PROJECT without its field, an ATTR where the
// projection LIST belongs — fails lera.Validate, so the query degrades to
// its translated plan and answers the unrewritten rows, with the
// violation as the reason, where executing the plan would panic or
// misread ATTR's indices as a projection.
func TestMalformedPlanDegrades(t *testing.T) {
	const q = "SELECT Title FROM FILM WHERE Numf = 1"
	for _, rule := range []string{
		"SEARCH(r, q, p) --> SEARCH(r, q)",
		"SEARCH(r, q, p) --> FILTER(SEARCH(r, q, p))",
		"SEARCH(r, q, p) --> DIFF(SEARCH(r, q, p))",
		"SEARCH(r, q, LIST(p)) --> SEARCH(r, q, LIST(PROJECT(p)))",
		"SEARCH(r, q, LIST(p)) --> SEARCH(r, q, p)",
	} {
		s := filmsSession(t, WithRules("rule bad: "+rule+"; block(bb, {bad}, 1); seq({bb}, 1);"))
		res, err := s.Query(q)
		if err != nil {
			t.Errorf("%s: %v", rule, err)
			continue
		}
		if got := FormatResult(res); !strings.Contains(got, "'Lawrence of Arabia'") || len(res.Rows) != 1 {
			t.Errorf("%s: answered %q, want the one unrewritten row", rule, got)
		}
		st := res.RewriteStats()
		if !st.Degraded || !strings.Contains(st.DegradationReason, "malformed plan: lera: at") {
			t.Errorf("%s: stats %+v, want a degradation naming the malformed plan", rule, st)
		}
		if !term.Equal(res.Rewritten, res.Initial) {
			t.Errorf("%s: ran %s, want the translated plan %s", rule, res.Rewritten, res.Initial)
		}
	}
}

// TestUntypedPlanDegrades: a rule whose plan passes lera.Validate but not
// lera.Infer — an ATTR past its SEARCH's relations or past its relation's
// columns — or that changes the answer's width degrades the query to its
// translated plan, with the inference error as the reason, and the plan is
// never cached. Unchecked, the first two fail the query at execution and
// the third answers two columns for one.
func TestUntypedPlanDegrades(t *testing.T) {
	const q = "SELECT Title FROM FILM WHERE Numf = 1"
	for _, c := range []struct{ rule, reason string }{
		{"SEARCH(r, q, LIST(p)) --> SEARCH(r, q, LIST(ATTR(2, 1)))", "relation index out of range"},
		{"SEARCH(r, q, LIST(p)) --> SEARCH(r, q, LIST(ATTR(1, 9)))", "column index out of range"},
		{"SEARCH(r, q, LIST(p)) --> SEARCH(r, q, LIST(p, p))", "2 columns where the query has 1"},
	} {
		s := filmsSession(t, WithPlanCache(8), WithRules("rule bad: "+c.rule+"; block(bb, {bad}, 1); seq({bb}, 1);"))
		res, err := s.Query(q)
		if err != nil {
			t.Errorf("%s: %v", c.rule, err)
			continue
		}
		if got := FormatResult(res); got != "Title\n-----\n'Lawrence of Arabia'\n1 rows" {
			t.Errorf("%s: answered %q, want the one unrewritten row", c.rule, got)
		}
		st := res.RewriteStats()
		if !st.Degraded || !strings.Contains(st.DegradationReason, "cannot type: ") || !strings.Contains(st.DegradationReason, c.reason) {
			t.Errorf("%s: stats %+v, want a degradation naming %q", c.rule, st, c.reason)
		}
		if st.DegradationCode != string(guard.CodeInvalid) {
			t.Errorf("%s: degraded with code %s, want %s: the catalog refused a plan a user's rule built", c.rule, st.DegradationCode, guard.CodeInvalid)
		}
		if !term.Equal(res.Rewritten, res.Initial) {
			t.Errorf("%s: ran %s, want the translated plan %s", c.rule, res.Rewritten, res.Initial)
		}
		if n := s.Plans.Snapshot().Entries; n != 0 {
			t.Errorf("%s: %d plans cached, want none", c.rule, n)
		}
	}
}
