package core

// The compile-once contract (DESIGN.md S6): a Rewriter is immutable after
// New, shared by a session and all its forks, and every rewrite returns
// what it produced — plan, statistics and, with an error, the last
// committed term — and records its rule applications on the recorder its
// own context carries.

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lera/internal/esql"
	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/obs"
	"lera/internal/rewrite"
	"lera/internal/rules"
	"lera/internal/term"
)

// figureCorpus is the paper's Figure 3, 4 and 5 queries, translated.
func figureCorpus(t *testing.T, s *Session) []*term.Term {
	t.Helper()
	var out []*term.Term
	for _, src := range []string{esql.Figure3Query, esql.Figure4Query, esql.Figure5Query} {
		q, err := translated(s, src)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, q)
	}
	return out
}

// tracedRewrite runs one rewrite under a recorder of its own and returns
// the finished span tree beside the rewrite's results.
func tracedRewrite(rw *Rewriter, q *term.Term, lim guard.Limits) (*term.Term, *rewrite.Stats, *obs.Span, error) {
	rec := obs.NewRecorder("rewrite")
	plan, st, err := rw.RewriteCtx(obs.NewContext(context.Background(), rec), q, lim)
	return plan, st, rec.Finish(), err
}

// TestSharedRewriterConcurrent: 8 goroutines x the figure corpus x 50
// rounds through ONE rewriter, each rewrite traced by its own recorder;
// every plan, every Stats field and every trace must equal a serial
// run's. CI runs it under -race, where a single write to the Rewriter or
// its Engine during a rewrite fails it.
func TestSharedRewriterConcurrent(t *testing.T) {
	s := filmsSession(t)
	corpus := figureCorpus(t, s)
	rw, err := s.Rewriter()
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		plan  *term.Term
		st    rewrite.Stats
		trace string
	}
	want := make([]outcome, len(corpus))
	for i, q := range corpus {
		plan, st, root, err := tracedRewrite(rw, q, guard.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(ruleApplies(t, root)); n != st.Applications || n == 0 {
			t.Fatalf("query %d: %d rule.apply events for %d applications", i, n, st.Applications)
		}
		want[i] = outcome{plan, *st, obs.FormatTree(root, false)}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for i, q := range corpus {
					plan, st, root, err := tracedRewrite(rw, q, guard.Limits{})
					if err != nil {
						t.Errorf("goroutine %d round %d query %d: %v", g, round, i, err)
						return
					}
					if !term.Equal(plan, want[i].plan) {
						t.Errorf("goroutine %d round %d query %d: plan differs from the serial run's", g, round, i)
					}
					if !reflect.DeepEqual(*st, want[i].st) {
						t.Errorf("goroutine %d round %d query %d: stats %+v, serial %+v", g, round, i, *st, want[i].st)
					}
					if tree := obs.FormatTree(root, false); tree != want[i].trace {
						t.Errorf("goroutine %d round %d query %d: trace\n%s\nserial\n%s", g, round, i, tree, want[i].trace)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestForkSharesRewriter: a fork rewrites through its parent's compiled
// rule base — the same pointer — so forking lexes, parses and validates
// nothing (3 673 allocations a Fork before the rule base was shared).
func TestForkSharesRewriter(t *testing.T) {
	parent := filmsSession(t)
	fork, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	prw, _ := parent.Rewriter()
	frw, err := fork.Rewriter()
	if err != nil {
		t.Fatal(err)
	}
	if prw == nil || frw != prw {
		t.Fatalf("fork.Rewriter() = %p, parent's is %p", frw, prw)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := parent.Fork(); err != nil {
			t.Fatal(err)
		}
	}); n >= 100 {
		t.Errorf("Fork allocates %.0f times; it must not rebuild the rule base", n)
	}
	// A broken rule base still fails at fork time, not on the first query.
	if _, err := NewSession(WithRules("garbage")).Fork(); err == nil {
		t.Error("forking a session whose rule base does not parse must fail")
	}
}

// TestRewriteErrorReturnsLastCommitted: a rewrite that trips MaxSteps
// mid-way hands back the term as of its last committed application with
// the error, and that is exactly the plan the session degrades to.
func TestRewriteErrorReturnsLastCommitted(t *testing.T) {
	s := filmsSession(t)
	q := figureCorpus(t, s)[2] // Figure 5: seven applications
	rw, err := s.Rewriter()
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := rw.RewriteCtx(context.Background(), q, guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	lim := guard.Limits{MaxSteps: 3}
	last, st, root, err := tracedRewrite(rw, q, lim)
	if !errors.Is(err, guard.ErrStepBudget) {
		t.Fatalf("err = %v, want ErrStepBudget", err)
	}
	if n := len(ruleApplies(t, root)); st.Applications != 3 || n != 3 {
		t.Fatalf("stats = %+v and %d rule.apply events, want the 3 applications before the trip", st, n)
	}
	if last == nil || term.Equal(last, q) || term.Equal(last, full) {
		t.Fatalf("returned term must be the third intermediate, got %v", last)
	}
	// It is the term the fourth application then rewrites: the fourth
	// intermediate differs from it at that application's site and
	// nowhere else.
	last4, _, root4, _ := tracedRewrite(rw, q, guard.Limits{MaxSteps: 4})
	site := sitePathOf(t, ruleApplies(t, root4)[3])
	if term.Equal(term.At(last, site), term.At(last4, site)) || !term.Equal(term.ReplaceAt(last, site, term.At(last4, site)), last4) {
		t.Errorf("step 4 at %v did not rewrite the returned term %v into %v", site, last, last4)
	}
	s.Limits = lim
	res, err := s.Query(esql.Figure5Query)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Degraded || res.Stats.DegradationCode != string(guard.CodeStepBudget) {
		t.Fatalf("session stats = %+v, want a STEP_BUDGET degradation", res.Stats)
	}
	if !term.Equal(res.Rewritten, last) {
		t.Errorf("session degraded to %v, the rewriter returned %v", res.Rewritten, last)
	}
}

// TestAddConstraintTakesEffectOnNextQuery: the documented extension path
// Catalog.AddConstraint bumps the schema version, and the session's next
// query runs under a rule base that includes the constraint — no
// unrelated DDL needed — with the cached plan of the old rule base
// invalidated.
func TestAddConstraintTakesEffectOnNextQuery(t *testing.T) {
	s := filmsSession(t, WithPlanCache(8))
	const q = "SELECT Title FROM FILM WHERE MEMBER('Comedy', Categories)"
	before, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	s.Cat.AddConstraint(rules.MustParse(
		"rule ic_cat: F(x) / ISA(x, SetCategory) --> F(x) AND INCLUDE(x, SET('Comedy', 'Adventure', 'Science Fiction', 'Western')) / ;").Rules["ic_cat"])
	after, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if plan := lera.Format(after.Rewritten); !strings.Contains(plan, "include(") || strings.Contains(lera.Format(before.Rewritten), "include(") {
		t.Errorf("the constraints block must add the INCLUDE conjunct after AddConstraint and not before: %s", plan)
	}
	if len(after.Rows) != len(before.Rows) {
		t.Errorf("rows: %d before the constraint, %d after", len(before.Rows), len(after.Rows))
	}
	if after.Cache == nil || after.Cache.Hit || !after.Cache.Invalidated {
		t.Errorf("cache outcome = %+v, want the old plan invalidated", after.Cache)
	}
}
