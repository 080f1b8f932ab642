package core

// Session forking (the session-pool snapshot) and first-class fault
// injection (WithInjector): forks share catalog + data immutably with
// private execution state, and one injector instance reaches both the
// rewrite-side externals and the execution-side ADT calls without any
// test-only wiring.

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"lera/internal/guard"
	"lera/internal/obs"
	"lera/internal/rewrite"
	"lera/internal/term"
)

// TestForkBitIdenticalAndIsolated: a forked session answers exactly as
// its parent — same rows, same rewrite — while work counters accumulate
// privately per fork.
func TestForkBitIdenticalAndIsolated(t *testing.T) {
	parent := filmsSession(t)
	want, err := parent.Query(guardQuery)
	if err != nil {
		t.Fatal(err)
	}
	parentCount := parent.DB.Count

	fork, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	got, err := fork.Query(guardQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("fork rows = %d, want %d", len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		for j := range got.Rows[i] {
			if got.Rows[i][j].String() != want.Rows[i][j].String() {
				t.Fatalf("row %d differs: %v vs %v", i, got.Rows[i], want.Rows[i])
			}
		}
	}
	if fork.DB.Count != parentCount {
		t.Errorf("fork counters %+v differ from the parent's for the same query %+v", fork.DB.Count, parentCount)
	}
	if parent.DB.Count != parentCount {
		t.Errorf("running the fork mutated the parent's counters: %+v", parent.DB.Count)
	}
}

// TestForkCarriesCollectStats: a session pool sets stats collection, like
// every execution setting, once on the session it forks from, and every
// fork's reports carry the EXPLAIN ANALYZE operator tree.
func TestForkCarriesCollectStats(t *testing.T) {
	parent := filmsSession(t)
	parent.Obs = obs.NewObserver() // reports come from the observing path
	parent.DB.CollectStats = true
	parent.Limits = guard.Limits{MaxRows: 1000}
	parent.Parallelism = 3
	parent.SpillDir = t.TempDir()
	fork, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if !fork.DB.CollectStats {
		t.Fatal("Fork dropped CollectStats")
	}
	if fork.Limits != parent.Limits || fork.Parallelism != 3 || fork.SpillDir != parent.SpillDir {
		t.Fatalf("Fork dropped a setting: limits %+v, parallelism %d, spill dir %q",
			fork.Limits, fork.Parallelism, fork.SpillDir)
	}
	res, err := fork.Query(guardQuery)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || res.Report.Exec == nil {
		t.Error("a fork of a stats-collecting session produced no exec tree")
	}
}

// TestForkConcurrent runs many forks in parallel over the shared
// snapshot; with -race this is the session-pool safety proof.
func TestForkConcurrent(t *testing.T) {
	parent := filmsSession(t)
	want, err := parent.Query(guardQuery)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		fork, err := parent.Fork()
		if err != nil {
			t.Fatal(err)
		}
		fork.Parallelism = 2
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				res, err := fork.Query(guardQuery)
				if err != nil {
					t.Errorf("fork query: %v", err)
					return
				}
				if len(res.Rows) != len(want.Rows) {
					t.Errorf("fork rows = %d, want %d", len(res.Rows), len(want.Rows))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestWithInjectorReachesRewriteExternals: an injected constraint error
// degrades the rewrite with the INJECTED protocol code — no manual
// injector wrapping inside the constraint, the pipeline hits it.
func TestWithInjectorReachesRewriteExternals(t *testing.T) {
	inj := guard.NewInjector()
	s := filmsSession(t,
		WithRules(`
rule boomr: SEARCH(rl, f, p) / BOOMC(f) --> UNIONN(SET(SEARCH(rl, f, p)));
block(boomb, {boomr}, 1);
seq({boomb}, 1);
`),
		WithInjector(inj))
	rw, err := s.Rewriter()
	if err != nil {
		t.Fatal(err)
	}
	rw.Ext.RegisterConstraint("BOOMC", func(_ *rewrite.Ctx, _ []*term.Term) (bool, error) { return true, nil })
	inj.Set("BOOMC", guard.Fault{OnCall: 1, Mode: guard.FaultError})

	res, err := s.Query(guardQuery)
	if err != nil {
		t.Fatalf("injected rewrite fault must degrade, not fail: %v", err)
	}
	st := res.RewriteStats()
	if !st.Degraded {
		t.Fatalf("expected degradation, got %+v", st)
	}
	if st.DegradationCode != string(guard.CodeInjected) {
		t.Errorf("DegradationCode = %q, want INJECTED (reason %q)", st.DegradationCode, st.DegradationReason)
	}
	if !strings.Contains(st.DegradationReason, "BOOMC") {
		t.Errorf("reason must name the external: %q", st.DegradationReason)
	}
}

// TestWithInjectorReachesADTCalls: a fault armed on the MEMBER ADT
// function fires during execution and surfaces as a typed, INJECTED-coded
// error with the external named. (MEMBER over a non-ground column is only
// evaluable at execution time, so the fault cannot be absorbed by the
// rewrite phase's degradation.)
func TestWithInjectorReachesADTCalls(t *testing.T) {
	inj := guard.NewInjector()
	s := filmsSession(t, WithInjector(inj))
	s.Rewrite = false // pin the fault to the execution path
	inj.Set("MEMBER", guard.Fault{Mode: guard.FaultError})

	_, err := s.Query("SELECT Title FROM FILM WHERE MEMBER('Cartoon', Categories)")
	if err == nil {
		t.Fatal("injected ADT fault must surface as an execution error")
	}
	if !errors.Is(err, guard.ErrInjected) {
		t.Fatalf("got %v, want ErrInjected", err)
	}
	if guard.CodeOf(err) != guard.CodeInjected {
		t.Fatalf("CodeOf = %s, want INJECTED", guard.CodeOf(err))
	}
	var ext *guard.ExternalError
	if !errors.As(err, &ext) || !strings.EqualFold(ext.External, "member") {
		t.Fatalf("error must name the external: %v", err)
	}
	if inj.Calls("MEMBER") == 0 {
		t.Fatal("injector never hit")
	}

	// A fork shares the parent's injector through DB.Fork.
	fork, err := s.Fork()
	if err != nil {
		t.Fatal(err)
	}
	fork.Rewrite = false
	if _, err := fork.Query("SELECT Title FROM FILM WHERE MEMBER('Cartoon', Categories)"); !errors.Is(err, guard.ErrInjected) {
		t.Fatalf("fork: got %v, want ErrInjected", err)
	}
}

// TestWithInjectorPanicDegrades: an injected panic in a rewrite-side
// constraint is isolated and coded EXTERNAL_PANIC, proving the chaos
// path and the unit-test path share the panic-isolation machinery.
func TestWithInjectorPanicDegrades(t *testing.T) {
	inj := guard.NewInjector()
	s := filmsSession(t,
		WithRules(`
rule boomr: SEARCH(rl, f, p) / BOOMC(f) --> UNIONN(SET(SEARCH(rl, f, p)));
block(boomb, {boomr}, 1);
seq({boomb}, 1);
`),
		WithInjector(inj))
	rw, err := s.Rewriter()
	if err != nil {
		t.Fatal(err)
	}
	// The constraint itself is healthy; the injector fires the panic.
	rw.Ext.RegisterConstraint("BOOMC", func(_ *rewrite.Ctx, _ []*term.Term) (bool, error) { return true, nil })
	inj.Set("BOOMC", guard.Fault{OnCall: 1, Mode: guard.FaultPanic})

	res, err := s.Query(guardQuery)
	if err != nil {
		t.Fatalf("injected panic must degrade, not fail: %v", err)
	}
	st := res.RewriteStats()
	if !st.Degraded {
		t.Fatalf("expected degradation, got %+v", st)
	}
	if st.DegradationCode != string(guard.CodeExternalPanic) {
		t.Errorf("DegradationCode = %q, want EXTERNAL_PANIC (reason %q)", st.DegradationCode, st.DegradationReason)
	}
	if !strings.Contains(st.DegradationReason, "BOOMC") {
		t.Errorf("reason must name the external: %q", st.DegradationReason)
	}
}
