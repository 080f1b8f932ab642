package engine

// Guardrail tests for the execution engine: per-instance fixpoint
// iteration caps (regression for the shared-counter bug), cooperative
// cancellation of long fixpoints, the row-materialization budget, and
// panic isolation around ADT function calls.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/testdb"
	"lera/internal/value"
)

// chainDB returns a DB whose EDGE relation is a simple path
// 1 -> 2 -> ... -> n+1.
func chainDB(t *testing.T, n int) *DB {
	t.Helper()
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	db := New(cat)
	for i := 1; i <= n; i++ {
		if err := db.Insert("EDGE", []value.Value{value.Int(int64(i)), value.Int(int64(i + 1))}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// tcFix builds the transitive closure of EDGE as a fixpoint named name.
func tcFix(name string) *term.Term {
	seed := lera.Search(
		[]*term.Term{lera.Rel("EDGE")},
		lera.TrueQual(),
		[]*term.Term{lera.Attr(1, 1), lera.Attr(1, 2)},
	)
	rec := lera.Search(
		[]*term.Term{lera.Rel(name), lera.Rel("EDGE")},
		lera.Ands(lera.Cmp("=", lera.Attr(1, 2), lera.Attr(2, 1))),
		[]*term.Term{lera.Attr(1, 1), lera.Attr(2, 2)},
	)
	return lera.Fix(name, lera.Union(seed, rec), []string{"A", "B"})
}

// TestFixIterationCapPerInstance is the regression test for the shared
// fixpoint counter: two sequential recursive subterms each need ~n
// iterations; a cap of n+10 must hold per FIX instance, not across the
// query, and the shared Counters.FixIterations stays a statistic.
func TestFixIterationCapPerInstance(t *testing.T) {
	const n = 50
	for _, mode := range []FixMode{Naive, SemiNaive} {
		db := chainDB(t, n)
		SetFixMode(db, mode)
		db.Limits = guard.Limits{MaxFixIterations: n + 10}
		q := lera.Union(tcFix("TC"), tcFix("TC2"))
		r, err := db.EvalCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("mode %v: per-instance cap must admit both fixpoints: %v", mode, err)
		}
		if want := n * (n + 1) / 2; len(r.Rows) != want {
			t.Errorf("mode %v: closure rows = %d, want %d", mode, len(r.Rows), want)
		}
		// The stats counter aggregates across instances and therefore
		// exceeds the per-instance cap — proof it no longer feeds the check.
		if db.Count.FixIterations <= n+10 {
			t.Errorf("mode %v: FixIterations = %d, want > %d (shared stats)", mode, db.Count.FixIterations, n+10)
		}
	}
}

func TestFixIterationCapExceeded(t *testing.T) {
	for _, mode := range []FixMode{Naive, SemiNaive} {
		db := chainDB(t, 50)
		SetFixMode(db, mode)
		db.Limits = guard.Limits{MaxFixIterations: 5}
		_, err := db.EvalCtx(context.Background(), tcFix("TC"))
		if err == nil {
			t.Fatalf("mode %v: cap 5 must fail on a 50-chain closure", mode)
		}
		msg := err.Error()
		if !strings.Contains(msg, "TC") || !strings.Contains(msg, "cap 5") {
			t.Errorf("mode %v: error must name the fixpoint and the cap: %v", mode, err)
		}
	}
}

// TestFixIterationCapParity is the regression test for the cap
// off-by-one: naive erred at iters >= cap while semi-naive allowed
// iters > cap, so the same query under the same Limits could converge in
// one mode and err in the other. The shared semantics is "cap = max
// productive rounds": the transitive closure of an n-chain needs exactly
// n productive rounds, so cap n must converge and cap n-1 must err — in
// both modes, with identical results on success.
func TestFixIterationCapParity(t *testing.T) {
	const n = 20
	want := n * (n + 1) / 2
	for _, tc := range []struct {
		cap     int
		wantErr bool
	}{{n, false}, {n - 1, true}} {
		for _, mode := range []FixMode{Naive, SemiNaive} {
			db := chainDB(t, n)
			SetFixMode(db, mode)
			db.Limits = guard.Limits{MaxFixIterations: tc.cap}
			r, err := db.EvalCtx(context.Background(), tcFix("TC"))
			if tc.wantErr {
				if err == nil {
					t.Fatalf("mode %v cap %d: want iteration-cap error, got %d rows", mode, tc.cap, len(r.Rows))
				}
				if !strings.Contains(err.Error(), "cap") {
					t.Errorf("mode %v cap %d: error must mention the cap: %v", mode, tc.cap, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("mode %v cap %d: want convergence, got %v", mode, tc.cap, err)
			}
			if len(r.Rows) != want {
				t.Errorf("mode %v cap %d: closure rows = %d, want %d", mode, tc.cap, len(r.Rows), want)
			}
		}
	}
}

// TestCancelLongNaiveFixpoint is the smoke test that a context deadline
// interrupts a long-running naive fixpoint promptly.
func TestCancelLongNaiveFixpoint(t *testing.T) {
	db := chainDB(t, 600)
	SetFixMode(db, Naive)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := db.EvalCtx(ctx, tcFix("TC"))
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt interruption", elapsed)
	}
	if !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
}

// TestCancelLongSemiNaiveFixpoint is the semi-naive twin: round 0 (the
// base members) must observe cancellation too — a huge base member used
// to run to completion before the first context check.
func TestCancelLongSemiNaiveFixpoint(t *testing.T) {
	db := chainDB(t, 600)
	SetFixMode(db, SemiNaive)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := db.EvalCtx(ctx, tcFix("TC"))
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt interruption", elapsed)
	}
	if !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
}

func TestRowBudget(t *testing.T) {
	db := chainDB(t, 50)
	db.Limits = guard.Limits{MaxRows: 100}
	_, err := db.EvalCtx(context.Background(), tcFix("TC"))
	if !errors.Is(err, guard.ErrRowBudget) {
		t.Fatalf("got %v, want ErrRowBudget", err)
	}
	// Within budget the same query succeeds.
	db2 := chainDB(t, 5)
	db2.Limits = guard.Limits{MaxRows: 1000}
	if _, err := db2.EvalCtx(context.Background(), tcFix("TC")); err != nil {
		t.Fatalf("within budget: %v", err)
	}
}

func TestADTPanicIsolated(t *testing.T) {
	db := chainDB(t, 3)
	inj := guard.NewInjector()
	inj.Set("BOOMADT", guard.Fault{OnCall: 2, Mode: guard.FaultPanic})
	db.Cat.ADTs.Register("BOOMADT", 1, true, func(args []value.Value) (value.Value, error) {
		if err := inj.Hit(nil, "BOOMADT"); err != nil {
			return value.Null, err
		}
		return args[0], nil
	})
	q := lera.Search(
		[]*term.Term{lera.Rel("EDGE")},
		lera.TrueQual(),
		[]*term.Term{lera.Call("BOOMADT", lera.Attr(1, 1))},
	)
	_, err := db.EvalCtx(context.Background(), q)
	var ee *guard.ExternalError
	if !errors.As(err, &ee) {
		t.Fatalf("want ExternalError, got %v", err)
	}
	if ee.Kind != guard.ExtADT || ee.External != "BOOMADT" || ee.Panic != "injected panic (BOOMADT call 2)" {
		t.Errorf("fields = %+v", ee)
	}
	if got := inj.Calls("BOOMADT"); got != 2 {
		t.Errorf("fault fired on call %d, want 2 (deterministic)", got)
	}
}

// TestRowsChargedAreRowsEmitted: every operator charges the row budget
// exactly the rows it emits, so an evaluation's rows charged equal its
// Emitted counter — when it answers and when the row budget trips it,
// serially, on a pool and spilling. A query-log event reads its emitted
// field from the budget on that account (core.NewSlowEntry).
func TestRowsChargedAreRowsEmitted(t *testing.T) {
	forms := diffCorpus()
	for name, q := range FixedForms() {
		forms[name] = q
	}
	spill := t.TempDir()
	cfgs := []runCfg{
		{par: 1}, {par: 4},
		{par: 1, lim: guard.Limits{MaxRows: 3}}, {par: 4, lim: guard.Limits{MaxRows: 3}},
		{par: 2, lim: guard.Limits{MaxMemBytes: 1}, spillDir: spill},
	}
	for name, q := range forms {
		for _, c := range cfgs {
			db := loadedDB(t)
			run := runOn(db, q, c)
			if got, want := db.LastRowsCharged(), int64(db.Count.Emitted); got != want {
				t.Errorf("%s %s: %d rows charged, %d emitted (error %q)", name, c, got, want, run.Err)
			}
		}
	}
}
