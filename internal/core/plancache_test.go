package core

import (
	"fmt"
	"strings"
	"testing"

	"lera/internal/lera"
	"lera/internal/obs"
)

// TestPlanCacheDifferentialGolden is the plan cache's central guarantee:
// a cache-armed session answers every golden query bit-identically to an
// uncached one — same plan, same columns, same rows, same engine work —
// on both the cold (store) and warm (hit) run, at serial and parallel
// execution. The warm run must actually hit and skip the rewriter.
func TestPlanCacheDifferentialGolden(t *testing.T) {
	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			cold := goldenSession(t)
			warm := goldenSession(t, WithPlanCache(64))
			cold.Parallelism, warm.Parallelism = par, par
			cold.Obs, warm.Obs = obs.NewObserver(), obs.NewObserver()
			for _, c := range goldenCases {
				cr, err := cold.Query(c.query)
				if err != nil {
					t.Fatalf("cold %s: %v", c.query, err)
				}
				w1, err := warm.Query(c.query)
				if err != nil {
					t.Fatalf("warm(miss) %s: %v", c.query, err)
				}
				w2, err := warm.Query(c.query)
				if err != nil {
					t.Fatalf("warm(hit) %s: %v", c.query, err)
				}
				if w1.Cache == nil || w1.Cache.Hit {
					t.Errorf("%s: first cached run should be a miss, got %+v", c.query, w1.Cache)
				}
				if w2.Cache == nil || !w2.Cache.Hit {
					t.Errorf("%s: second cached run should hit, got %+v", c.query, w2.Cache)
				}
				for name, w := range map[string]*Result{"miss": w1, "hit": w2} {
					if got, want := lera.Format(w.Rewritten), lera.Format(cr.Rewritten); got != want {
						t.Errorf("%s (%s): plan diverged\n  cached: %s\n  cold:   %s", c.query, name, got, want)
					}
					if got, want := FormatResult(w), FormatResult(cr); got != want {
						t.Errorf("%s (%s): result diverged\n  cached: %s\n  cold:   %s", c.query, name, got, want)
					}
					if got, want := w.Report.ExecCounters, cr.Report.ExecCounters; got != want {
						// Engine work must match exactly: caching may only
						// remove rewrite work, never change execution.
						t.Errorf("%s (%s): counters diverged: %+v vs %+v", c.query, name, got, want)
					}
				}
				if st := w2.RewriteStats(); st.MatchAttempts != 0 || st.Applications != 0 {
					t.Errorf("%s: warm hit should skip the rewriter, stats %+v", c.query, st)
				}
			}
		})
	}
}

// TestPlanCacheHitsAcrossConstants: once a shape has been seen, every
// later query of that shape — whatever its constants — is a template hit
// that runs zero match attempts, on a recursive closure and on an ADT
// filter (the EXPERIMENTS.md E16 contract: one miss per shape). A
// templatization regression that silently stops sharing fails here.
func TestPlanCacheHitsAcrossConstants(t *testing.T) {
	for _, w := range []struct {
		name string
		s    *Session
		q    func(i int) string
	}{
		{"closure-point", graphBench(t, 60, WithPlanCache(64)),
			func(i int) string { return fmt.Sprintf("SELECT Src FROM TC WHERE Dst = %d", i%30+2) }},
		{"member-range", filmsBench(t, 500, WithPlanCache(64)),
			func(i int) string {
				return fmt.Sprintf("SELECT Title FROM FILM WHERE MEMBER('Adventure', Categories) AND Numf > %d", 450+i%50)
			}},
	} {
		if _, err := w.s.Query(w.q(0)); err != nil { // prime the template
			t.Fatalf("%s: %v", w.name, err)
		}
		for i := 1; i <= 50; i++ {
			res, err := w.s.Query(w.q(i))
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if res.Cache == nil || !res.Cache.Hit || res.RewriteStats().MatchAttempts != 0 {
				t.Fatalf("%s query %d: expected a plan-cache hit with no match attempts, got %+v, %d attempts",
					w.name, i, res.Cache, res.RewriteStats().MatchAttempts)
			}
		}
		if snap := w.s.Plans.Snapshot(); snap.Misses != 1 {
			t.Errorf("%s: %d misses, want 1 (one per shape)", w.name, snap.Misses)
		}
	}
}

// EXPLAIN ANALYZE of a cache hit reports the same execution tree as an
// uncached session's.
func TestPlanCacheExplainAnalyzeIdentical(t *testing.T) {
	cold := goldenSession(t)
	warm := goldenSession(t, WithPlanCache(64))
	for _, c := range goldenCases[:4] {
		if _, err := warm.Query(c.query); err != nil { // populate
			t.Fatal(err)
		}
		crs, err := cold.Exec("EXPLAIN ANALYZE " + c.query + ";")
		if err != nil {
			t.Fatal(err)
		}
		wrs, err := warm.Exec("EXPLAIN ANALYZE " + c.query + ";")
		if err != nil {
			t.Fatal(err)
		}
		cr, wr := crs[0], wrs[0]
		if wr.Cache == nil || !wr.Cache.Hit {
			t.Fatalf("%s: EXPLAIN ANALYZE after warm-up should hit, got %+v", c.query, wr.Cache)
		}
		if got, want := wr.Report.Exec.Format(false), cr.Report.Exec.Format(false); got != want {
			t.Errorf("%s: exec tree diverged\ncached:\n%s\ncold:\n%s", c.query, got, want)
		}
	}
}

// A fork shares the parent's cache: plans stored by the parent are hits
// in the fork, and vice versa.
func TestPlanCacheForkSharing(t *testing.T) {
	parent := filmsSession(t, WithPlanCache(64))
	const q = "SELECT Title FROM FILM WHERE Numf = 1"
	if r, err := parent.Query(q); err != nil || r.Cache.Hit {
		t.Fatalf("parent first run: %v, %+v", err, r.Cache)
	}
	fork, err := parent.Fork()
	if err != nil {
		t.Fatal(err)
	}
	r, err := fork.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cache == nil || !r.Cache.Hit {
		t.Fatalf("fork should hit the shared cache, got %+v", r.Cache)
	}
	const q2 = "SELECT Numf FROM FILM WHERE Numf = 2 OR Numf = 3"
	if _, err := fork.Query(q2); err != nil {
		t.Fatal(err)
	}
	if r, err := parent.Query(q2); err != nil || !r.Cache.Hit {
		t.Fatalf("parent should hit the fork's entry: %v, %+v", err, r.Cache)
	}
}

// Two sessions with different rule bases sharing one cache must never
// serve each other's plans: the environment key (the rule-base
// fingerprint, which covers block budgets and the dynamic-limit policy)
// keeps them apart. The probe query is one whose
// plan depends on the simplify block — with it, member('Cartoon', ...)
// folds to FALSE; without it, the predicate survives.
func TestPlanCacheRuleBaseIsolation(t *testing.T) {
	full := filmsSession(t, WithPlanCache(64))
	bare := filmsSession(t, WithPlanCache(64), WithBlockLimit("simplify", 0))
	bare.Plans = full.Plans // simulate a shared pool with divergent rule bases

	const q = "SELECT Title FROM FILM WHERE MEMBER('Cartoon', Categories)"
	fr, err := full.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := lera.Format(fr.Rewritten); !strings.Contains(got, "FALSE") {
		t.Fatalf("constraint session should fold to FALSE: %s", got)
	}
	br, err := bare.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if br.Cache.Hit {
		t.Fatalf("session with a different rule base must not hit the other's entry")
	}
	if got := lera.Format(br.Rewritten); strings.Contains(got, "FALSE") {
		t.Fatalf("bare session was served the constraint session's plan: %s", got)
	}
	// And each session still gets its own correct plan on repeat.
	br2, err := bare.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !br2.Cache.Hit || lera.Format(br2.Rewritten) != lera.Format(br.Rewritten) {
		t.Fatalf("bare session repeat: %+v, %s", br2.Cache, lera.Format(br2.Rewritten))
	}

	// The §7 dynamic-limit policy is part of the rule base as well: the
	// probe is simple enough that under it no block runs, so the predicate
	// survives, and the two sessions must not share that plan.
	dyn := filmsSession(t, WithPlanCache(64), WithDynamicLimits())
	dyn.Plans = full.Plans
	dk, err := dyn.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if dk.Cache.Hit || dk.Stats.Applications != 0 || strings.Contains(lera.Format(dk.Rewritten), "FALSE") {
		t.Fatalf("dynamic-limit session served the full session's plan: %+v, %s", dk.Cache, lera.Format(dk.Rewritten))
	}
	dk2, err := dyn.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !dk2.Cache.Hit || lera.Format(dk2.Rewritten) != lera.Format(dk.Rewritten) {
		t.Fatalf("dynamic-limit session repeat: %+v, %s", dk2.Cache, lera.Format(dk2.Rewritten))
	}
	if fr2, err := full.Query(q); err != nil || fr2.Cache.Hit || !strings.Contains(lera.Format(fr2.Rewritten), "FALSE") {
		t.Fatalf("full session was served the dynamic-limit session's plan: %v, %+v", err, fr2.Cache)
	}
}

// DDL bumps the catalog schema version, so cached plans derived under
// the old schema are invalidated — observably — and re-derived.
func TestPlanCacheSchemaInvalidation(t *testing.T) {
	s := filmsSession(t, WithPlanCache(64))
	const q = "SELECT Title FROM FILM WHERE Numf = 1"
	s.MustExec(q + ";")
	if r, _ := s.Query(q); !r.Cache.Hit {
		t.Fatal("second run should hit")
	}
	s.MustExec("TABLE SCRATCH (A : INT);")
	r, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cache.Hit || !r.Cache.Invalidated {
		t.Fatalf("post-DDL run should invalidate and miss, got %+v", r.Cache)
	}
	if st := s.Plans.Snapshot(); st.Invalidations == 0 {
		t.Fatalf("invalidation not counted: %+v", st)
	}
	if r, _ := s.Query(q); !r.Cache.Hit {
		t.Fatal("re-derived entry should hit again")
	}
}

// Value-dependent rewrites are the reason templates are validated at
// store time and optionally on hits. The range pair (Numf > 2, Numf <= b)
// rewrites the same for any b > 2 but folds to FALSE when b = 2 — a
// binding-dependent divergence the template cannot express.
func TestPlanCacheValidationCatchesDivergence(t *testing.T) {
	const warmup = "SELECT Title FROM FILM WHERE Numf > 2 AND Numf <= 3"
	const probe = "SELECT Title FROM FILM WHERE Numf > 2 AND Numf <= 2"

	// Without validation: the probe hits the template and gets the
	// unfolded plan — different shape, but provably the same rows.
	s := filmsSession(t, WithPlanCache(64))
	if _, err := s.Query(warmup); err != nil {
		t.Fatal(err)
	}
	cold := filmsSession(t)
	cr, err := cold.Query(probe)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Query(probe)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Cache.Hit {
		t.Fatalf("probe should hit the warmup's template, got %+v", r.Cache)
	}
	if got, want := FormatResult(r), FormatResult(cr); got != want {
		t.Fatalf("rows diverged on a value-dependent hit:\n%s\nvs\n%s", got, want)
	}

	// With validation on every hit: the divergence is detected, the entry
	// dropped, and the cold plan (the FALSE fold) served.
	v := filmsSession(t, WithPlanCache(64), WithPlanCacheValidation(1))
	if _, err := v.Query(warmup); err != nil {
		t.Fatal(err)
	}
	vr, err := v.Query(probe)
	if err != nil {
		t.Fatal(err)
	}
	oc := vr.Cache
	if oc == nil || !oc.Validated || !oc.ValidationFailed || oc.Hit {
		t.Fatalf("validated probe should fail validation, got %+v", oc)
	}
	if got, want := lera.Format(vr.Rewritten), lera.Format(cr.Rewritten); got != want {
		t.Fatalf("validation should serve the cold plan: %s vs %s", got, want)
	}
	if st := v.Plans.Snapshot(); st.ValidationFailures != 1 {
		t.Fatalf("validation failure not counted: %+v", st)
	}

	// A benign hit under validation agrees and stays a (validated) hit.
	if _, err := v.Query(warmup); err != nil {
		t.Fatal(err)
	}
	br, err := v.Query(warmup)
	if err != nil {
		t.Fatal(err)
	}
	if boc := br.Cache; boc == nil || !boc.Hit || !boc.Validated || boc.ValidationFailed {
		t.Fatalf("benign validated hit: %+v", br.Cache)
	}
}

// Shapes whose rewrite consumes lifted constants (constant folding,
// constraint-driven member elimination, range contradictions) are
// rejected at store time and fall back to exact-term entries — repeats
// of the same text still hit.
func TestPlanCacheRejectedShapesUseExactEntries(t *testing.T) {
	s := goldenSession(t, WithPlanCache(64))
	for _, q := range []string{
		"SELECT Title FROM FILM WHERE MEMBER('Cartoon', Categories)", // member -> FALSE
		"SELECT Title FROM FILM WHERE 2 + 3 = 5 AND Numf = 1",        // const fold
		"SELECT Title FROM FILM WHERE Numf > 2 AND Numf <= 2",        // contradiction
	} {
		r1, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !r1.Cache.Rejected && r1.Cache.NParams > 0 {
			t.Errorf("%s: expected template rejection, got %+v", q, r1.Cache)
		}
		r2, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !r2.Cache.Hit {
			t.Errorf("%s: exact-entry repeat should hit, got %+v", q, r2.Cache)
		}
		if lera.Format(r2.Rewritten) != lera.Format(r1.Rewritten) {
			t.Errorf("%s: exact-entry hit changed the plan", q)
		}
	}
}

func TestPrepareExecute(t *testing.T) {
	s := filmsSession(t, WithPlanCache(64))
	rs := s.MustExec("PREPARE byNum AS SELECT Title FROM FILM WHERE Numf = $1;")
	if rs[0].Kind != ResultDDL || !strings.Contains(rs[0].Message, "1 parameter") {
		t.Fatalf("prepare result: %+v", rs[0])
	}
	if got := s.Prepared()["BYNUM"]; got != 1 {
		t.Fatalf("Prepared() = %v", s.Prepared())
	}

	r1 := s.MustExec("EXECUTE byNum(1);")[0]
	if r1.Kind != ResultRows || len(r1.Rows) != 1 {
		t.Fatalf("EXECUTE byNum(1): %+v", r1)
	}
	// A different binding reuses the same template: hit on first sight.
	r2 := s.MustExec("EXECUTE byNum(2);")[0]
	if r2.Cache == nil || !r2.Cache.Hit {
		t.Fatalf("EXECUTE with a new binding should hit the template: %+v", r2.Cache)
	}
	if len(r2.Rows) != 1 || r2.Rows[0][0].String() == r1.Rows[0][0].String() {
		t.Fatalf("EXECUTE byNum(2) rows: %v vs %v", r2.Rows, r1.Rows)
	}
	// EXECUTE and the equivalent ad-hoc SELECT share one cache entry.
	r3, err := s.Query("SELECT Title FROM FILM WHERE Numf = 3")
	if err != nil {
		t.Fatal(err)
	}
	if !r3.Cache.Hit {
		t.Fatalf("ad-hoc SELECT should share the prepared template: %+v", r3.Cache)
	}

	// The differential check: EXECUTE equals the literal query exactly.
	cold := filmsSession(t)
	want, err := cold.Query("SELECT Title FROM FILM WHERE Numf = 2")
	if err != nil {
		t.Fatal(err)
	}
	if FormatResult(r2) != FormatResult(want) || lera.Format(r2.Rewritten) != lera.Format(want.Rewritten) {
		t.Fatalf("EXECUTE diverged from the literal query")
	}
}

func TestPrepareExecuteErrors(t *testing.T) {
	s := filmsSession(t)
	s.MustExec("PREPARE p AS SELECT Title FROM FILM WHERE Numf = $1;")
	for _, bad := range []struct{ src, want string }{
		{"PREPARE p AS SELECT Title FROM FILM WHERE Numf = $1;", "already exists"},
		{"PREPARE gap AS SELECT Title FROM FILM WHERE Numf = $2;", "uses $2 but not $1"},
		{"EXECUTE nosuch(1);", "no prepared statement"},
		{"EXECUTE p();", "expects 1 argument(s), got 0"},
		{"EXECUTE p(1, 2);", "expects 1 argument(s), got 2"},
		{"EXECUTE p(Numf);", "argument 1"},
		{"SELECT Title FROM FILM WHERE Numf = $1;", "unbound parameter $1"},
	} {
		if _, err := s.Exec(bad.src); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s: err = %v, want %q", bad.src, err, bad.want)
		}
	}
	// Prepared statements are session state: a fork gets a snapshot, and
	// later PREPAREs on the fork stay private.
	f, err := s.Fork()
	if err != nil {
		t.Fatal(err)
	}
	if f.Prepared()["P"] != 1 {
		t.Fatal("fork should inherit prepared statements")
	}
	f.MustExec("PREPARE only AS SELECT Numf FROM FILM WHERE Numf < $1;")
	if _, ok := s.Prepared()["ONLY"]; ok {
		t.Fatal("fork-side PREPARE leaked into the parent")
	}
}

// Plain EXPLAIN reports cache state without perturbing it.
func TestExplainPlanCacheReadOnly(t *testing.T) {
	s := filmsSession(t, WithPlanCache(64))
	const q = "SELECT Title FROM FILM WHERE Numf = 1"

	// Before any run: EXPLAIN shows a cold plan and stores nothing.
	rs := s.MustExec("EXPLAIN " + q + ";")
	if !strings.Contains(rs[0].Message, "plan: cold") {
		t.Fatalf("EXPLAIN before warm-up:\n%s", rs[0].Message)
	}
	if s.Plans.Snapshot().Entries != 0 {
		t.Fatal("plain EXPLAIN must not store entries")
	}

	s.MustExec(q + ";")
	before := s.Plans.Snapshot()
	rs = s.MustExec("EXPLAIN " + q + ";")
	if !strings.Contains(rs[0].Message, "plan: cached (template 0x") {
		t.Fatalf("EXPLAIN after warm-up:\n%s", rs[0].Message)
	}
	if after := s.Plans.Snapshot(); after != before {
		t.Fatalf("plain EXPLAIN moved counters: %+v -> %+v", before, after)
	}
}

// The cache layer composes with guard budgets: a degraded rewrite is
// answered from the fallback plan and never cached.
func TestPlanCacheNeverCachesDegradedPlans(t *testing.T) {
	s := goldenSession(t, WithPlanCache(64))
	s.Limits.MaxSteps = 1
	const q = "SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'Quinn'"
	r, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if st := r.RewriteStats(); !st.Degraded {
		t.Skipf("query did not degrade under MaxSteps=1 (stats %+v)", st)
	}
	if s.Plans.Snapshot().Entries != 0 {
		t.Fatal("degraded plan was cached")
	}
}
