package lera

// Observability overhead: the layer's contract is that a session without
// an observer pays nothing (docs/OBSERVABILITY.md). The allocation gate
// below pins the disabled rewrite path to its pre-observability baseline;
// the benchmark family measures what each enablement level actually
// costs, which EXPERIMENTS.md archives.

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"lera/internal/guard"
)

const figure3Bench = "SELECT Title, Categories, Salary(Refactor) FROM APPEARS_IN, FILM WHERE FILM.Numf = APPEARS_IN.Numf AND Name(Refactor) = 'Quinn' AND MEMBER('Adventure', Categories)"

// TestRewriteDisabledPathAllocs is the allocation regression gate: with
// instrumentation off (no recorder in the context), a full Figure 3
// rewrite must not allocate more than its measured baseline. The baseline
// is 121 allocs/op, measured once condition checks stopped building terms
// and runs reused pooled scratch (docs/PERF.md "Condition checks that
// build nothing"); it was 322 once failed match attempts stopped
// allocating (docs/PERF.md "Match attempts without allocation"), and the
// closure matcher before it, and the engine before the observability
// layer, took 1222.
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
	if _, _, err := rw.RewriteCtx(context.Background(), q, guard.Limits{}); err != nil { // warm caches
		t.Fatal(err)
	}
	allocs := medianAllocs(41, func() {
		if _, _, err := rw.RewriteCtx(context.Background(), q, guard.Limits{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("disabled-path rewrite: %.0f allocs/op", allocs)
	// 2% slack absorbs Go-runtime version noise without letting a real
	// per-site or per-attempt cost (hundreds of sites) slip through.
	const baseline = 121.0
	if allocs > baseline*1.02 {
		t.Fatalf("disabled-path rewrite allocates %.0f allocs/op, baseline %0.f — instrumentation is no longer free when off, or match attempts allocate again", allocs, baseline)
	}
}

// medianAllocs is testing.AllocsPerRun's count as the median of n single
// runs of f rather than their mean. A rewrite that finds its engine's pool
// of run scratch empty — after a GC cleared it, or at random under the
// race detector, which drops pooled values on purpose — regrows that
// scratch, and the refill is not the per-rewrite cost a gate pins; every
// other run of a deterministic f allocates the same.
func medianAllocs(n int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up, as AllocsPerRun does
	counts := make([]uint64, n)
	var ms runtime.MemStats
	for i := range counts {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		f()
		runtime.ReadMemStats(&ms)
		counts[i] = ms.Mallocs - before
	}
	slices.Sort(counts)
	return float64(counts[n/2])
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
