package rewrite

// The failed-attempt memo (docs/PERF.md "Failed attempts are not
// repeated"): what it may remember, and what it must leave alone.

import (
	"context"
	"testing"

	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/term"
)

// TestMemoSkipsContextReads: one MEMBER node sits under two SEARCHes, so
// one (rule, subterm) pair meets two contexts. Under DOMINATE its column
// 3 is an actor and ISA fails; under FILM it is a SetCategory and the
// rule applies. The first attempt read its context (EnclosingRels), so
// it is not remembered and the second runs for real.
func TestMemoSkipsContextReads(t *testing.T) {
	e := newEngine(t, "rule probe: MEMBER(c, x) / ISA(x, SetCategory) --> HIT(c, x);")
	m := term.F("MEMBER", term.Str("Adventure"), lera.Attr(1, 3))
	search := func(rel string) *term.Term {
		return lera.Search([]*term.Term{lera.Rel(rel)}, lera.Ands(m), []*term.Term{lera.Attr(1, 1)})
	}
	q := lera.Union(search("DOMINATE"), search("FILM"))
	var sites int
	term.Walk(q, func(sub *term.Term, _ term.Path) bool {
		if sub == m {
			sites++
		}
		return true
	})
	if sites != 2 {
		t.Fatalf("the MEMBER node occurs %d times in %s, want 2", sites, lera.Format(q))
	}
	out, st := run(t, e, q)
	if st.Applications != 1 || lera.Format(out) == lera.Format(q) {
		t.Errorf("applications = %d, want 1 (under FILM): %s", st.Applications, lera.Format(out))
	}
	_, sf := run(t, WithoutMemo(e), q)
	if st.ConditionChecks != sf.ConditionChecks || st.MatchAttempts != sf.MatchAttempts {
		t.Errorf("checks %d, attempts %d; without the memo %d, %d: an attempt that read its context was replayed",
			st.ConditionChecks, st.MatchAttempts, sf.ConditionChecks, sf.MatchAttempts)
	}
}

// TestMemoReplaysContextFree: the other side of the line. A failure that
// read no context is attempted once per run: the second visit of the
// block replays it, charging its one check again.
func TestMemoReplaysContextFree(t *testing.T) {
	const src = `
rule chk: FF(x) / x > 5 --> GG(x);
rule go: HH(x) --> KK(x);
block(b, {chk, go}, inf);
seq({b}, 2);
`
	q := term.F("TOP", term.F("FF", term.Num(1)), term.F("HH", term.Num(2)))
	e := newEngine(t, src)
	out, st := run(t, e, q)
	of, sf := run(t, WithoutMemo(e), q)
	if out.String() != of.String() || st.ConditionChecks != sf.ConditionChecks || st.Applications != sf.Applications || st.Rounds != sf.Rounds {
		t.Errorf("memo %s %+v, without %s %+v", out, st, of, sf)
	}
	// Without the memo chk@FF is attempted on each of the three block
	// visits (before go applies, after it, and in round 2); with it, once.
	// Its three checks are charged either way, beside go's one.
	if sf.MatchAttempts-st.MatchAttempts != 2 || st.ConditionChecks != 4 {
		t.Errorf("attempts %d with the memo, %d without; checks %d: want 2 attempts saved and 4 checks",
			st.MatchAttempts, sf.MatchAttempts, st.ConditionChecks)
	}
}

// TestArmedInjectorSeesEveryAttempt: with a fault injector armed the run
// keeps no memo, so every constraint of every repeated attempt reaches
// the injector and its hit sequence is the one a run without the memo
// makes; a fault on the last of those hits fires.
func TestArmedInjectorSeesEveryAttempt(t *testing.T) {
	const src = `
rule chk: FF(x) / CHK(x) --> GG(x);
rule go: HH(x) --> KK(x);
block(b, {chk, go}, inf);
seq({b}, 2);
`
	q := term.F("TOP", term.F("FF", term.Num(1)), term.F("HH", term.Num(2)))
	hits := func(noMemo bool, fault *guard.Fault) (int, error) {
		inj := guard.NewInjector()
		if fault != nil {
			inj.Set("CHK", *fault)
		}
		e := newEngine(t, src)
		e.Ext.RegisterConstraint("CHK", func(*Ctx, []*term.Term) (bool, error) { return false, nil })
		e = New(e.RS, e.Ext, e.Cat, inj)
		e.noMemo = noMemo
		_, _, err := e.RunCtx(context.Background(), q, guard.Limits{})
		return inj.Calls("CHK"), err
	}
	got, err := hits(false, nil)
	want, _ := hits(true, nil)
	if err != nil || got != want || want != 3 {
		t.Fatalf("CHK reached the armed injector %d times (err %v), without the memo %d; want 3", got, err, want)
	}
	if _, err := hits(false, &guard.Fault{OnCall: want, Mode: guard.FaultError}); err == nil {
		t.Errorf("a fault on CHK's call %d never fired", want)
	}
}

// TestMemoReplayNeedsTheBudget: a failure is replayed only where the
// block's budget covers what it spent, and remembered only if the budget
// outlasted it. v at FF tries x = 1 (a check that fails), then x = 2 (a
// check that passes, and EVALUATE vetoes): 2 checks. After go applies,
// the block has 1 check left, so v runs for real; with its budget spent,
// the accept at x = 2 is refused and x = 3 is checked too: 3 checks.
// Round 2 replays the 2-check failure. Replaying the overdrawn attempt,
// or remembering it, would charge 2 or 3 where the repeat charges 3 or 2.
func TestMemoReplayNeedsTheBudget(t *testing.T) {
	const src = `
rule v: FF(SET(x, w*)) / x > 1 --> a / EVALUATE(UNKNOWNFN(x), a);
rule go: HH(x) --> KK(x);
block(b, {v, go}, 4);
seq({b}, 2);
`
	q := term.F("TOP", term.F("FF", term.Set(term.Num(1), term.Num(2), term.Num(3))), term.F("HH", term.Num(1)))
	e := newEngine(t, src)
	out, st := run(t, e, q)
	of, sf := run(t, WithoutMemo(e), q)
	if out.String() != of.String() || st.ConditionChecks != sf.ConditionChecks || st.Applications != sf.Applications || st.Rounds != sf.Rounds {
		t.Errorf("memo %s %+v, without %s %+v", out, st, of, sf)
	}
	if sf.ConditionChecks != 2+1+3+2 || sf.MatchAttempts-st.MatchAttempts != 1 {
		t.Errorf("checks %d, want 8; attempts %d with the memo, %d without, want one replay",
			sf.ConditionChecks, st.MatchAttempts, sf.MatchAttempts)
	}
}

// TestMemoReplayHonoursCancel: a replay checks the run's context as the
// attempt's first condition check would. go's right-hand side cancels the
// run; the next thing the block does is replay v at FF, which must fail
// with the cancellation and charge the one check the repeat charges.
func TestMemoReplayHonoursCancel(t *testing.T) {
	const src = `
rule v: FF(x) / x > 5 --> GG(x);
rule go: HH(x) --> KK(CANCELB(x));
block(b, {v, go}, inf);
seq({b}, 2);
`
	q := term.F("TOP", term.F("FF", term.Num(1)), term.F("HH", term.Num(2)))
	for _, noMemo := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		e := newEngine(t, src)
		e.Ext.RegisterBuiltin("CANCELB", func(_ *Ctx, args []*term.Term) (*term.Term, error) {
			cancel()
			return args[0], nil
		})
		e.noMemo = noMemo
		_, st, err := e.RunCtx(ctx, q, guard.Limits{})
		cancel()
		if err == nil || st.ConditionChecks != 3 || st.Applications != 1 {
			t.Errorf("noMemo=%v: err %v, checks %d, applications %d; want the cancellation at v's second attempt, 3 checks, 1 application",
				noMemo, err, st.ConditionChecks, st.Applications)
		}
	}
}
