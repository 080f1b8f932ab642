package lera

// Observability overhead: the layer's contract is that a session without
// an observer pays nothing (docs/OBSERVABILITY.md). The allocation gate
// below pins the disabled rewrite path to its pre-observability baseline;
// the benchmark family measures what each enablement level actually
// costs, which EXPERIMENTS.md archives.

import (
	"testing"
)

const figure3Bench = "SELECT Title, Categories, Salary(Refactor) FROM APPEARS_IN, FILM WHERE FILM.Numf = APPEARS_IN.Numf AND Name(Refactor) = 'Quinn' AND MEMBER('Adventure', Categories)"

// TestRewriteDisabledPathAllocs is the allocation regression gate: with
// instrumentation off (no recorder in the context), a full Figure 3
// rewrite must not allocate more than its measured baseline. The baseline
// is 322 allocs/op, measured once failed match attempts stopped allocating
// (docs/PERF.md "Match attempts without allocation"); the closure matcher
// before it, and the engine before the observability layer, took 1222.
func TestRewriteDisabledPathAllocs(t *testing.T) {
	s := paperSession(t)
	rw, err := s.Rewriter()
	if err != nil {
		t.Fatal(err)
	}
	q, err := translateBench(s, figure3Bench)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := rw.Rewrite(q); err != nil { // warm caches
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := rw.Rewrite(q); err != nil {
			t.Fatal(err)
		}
	})
	// 2% slack absorbs Go-runtime version noise without letting a real
	// per-site or per-attempt cost (hundreds of sites) slip through.
	const baseline = 322.0
	if allocs > baseline*1.02 {
		t.Fatalf("disabled-path rewrite allocates %.0f allocs/op, baseline %0.f — instrumentation is no longer free when off, or match attempts allocate again", allocs, baseline)
	}
}

// BenchmarkObservability measures the Figure 3 query end to end at each
// enablement level: no observer, metrics only, metrics + trace + exec
// stats, and EXPLAIN ANALYZE.
func BenchmarkObservability(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		s := paperSession(b)
		benchQuery(b, s, figure3Bench)
	})
	b.Run("metrics", func(b *testing.B) {
		s := paperSession(b)
		s.Obs = NewObserver()
		benchQuery(b, s, figure3Bench)
	})
	b.Run("trace", func(b *testing.B) {
		s := paperSession(b)
		s.Obs = NewObserver()
		s.Obs.Trace = true
		benchQuery(b, s, figure3Bench)
	})
	b.Run("explain-analyze", func(b *testing.B) {
		s := paperSession(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Exec("EXPLAIN ANALYZE " + figure3Bench + ";"); err != nil {
				b.Fatal(err)
			}
		}
	})
}
