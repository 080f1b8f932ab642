package core

// The pipeline-level half of the parallel and batch differential gates:
// every golden query (the Figure 3–12 corpus plus the derived views) must
// render byte-identical results — rows, column order, counters, EXPLAIN
// ANALYZE stats — whether the engine runs serially or on a 4-worker pool,
// and at any row-batch size.

import (
	"fmt"
	"testing"

	"lera/internal/engine"
)

// runCorpus executes every golden query at the given parallelism and
// batch size (0 = engine.DefaultBatchSize) and returns the rendered result
// bytes, the counter deltas and the deterministic stats renderings, query
// by query.
func runCorpus(t *testing.T, parallelism, batchSize int) (rendered, stats []string, counts []engine.Counters) {
	t.Helper()
	s := goldenSession(t)
	s.Parallelism = parallelism
	s.BatchSize = batchSize
	s.CollectStats = true
	for _, c := range goldenCases {
		before := s.Count
		res, err := s.Query(c.query)
		if err != nil {
			t.Fatalf("parallelism %d, batch size %d: %s: %v", parallelism, batchSize, c.query, err)
		}
		rendered = append(rendered, FormatResult(res))
		stats = append(stats, s.LastExecStats().Format(false))
		d := s.Count
		d.Scanned -= before.Scanned
		d.JoinPairs -= before.JoinPairs
		d.Emitted -= before.Emitted
		d.PredEvals -= before.PredEvals
		d.FixIterations -= before.FixIterations
		counts = append(counts, d)
	}
	return rendered, stats, counts
}

func TestParallelSerialEquivalenceCorpus(t *testing.T) {
	serialOut, serialStats, serialCounts := runCorpus(t, 1, 0)
	for _, v := range []struct{ par, batch int }{{4, 0}, {1, 1}, {1, 1024}} {
		name := fmt.Sprintf("pool %d, batch %d", v.par, v.batch)
		out, stats, counts := runCorpus(t, v.par, v.batch)
		for i, c := range goldenCases {
			if serialOut[i] != out[i] {
				t.Errorf("%s: %s: rendered result differs\n--- serial ---\n%s\n--- %s ---\n%s", name, c.query, serialOut[i], name, out[i])
			}
			if serialStats[i] != stats[i] {
				t.Errorf("%s: %s: stats tree differs\n--- serial ---\n%s\n--- %s ---\n%s", name, c.query, serialStats[i], name, stats[i])
			}
			if serialCounts[i] != counts[i] {
				t.Errorf("%s: %s: counters differ: serial %+v, %s %+v", name, c.query, serialCounts[i], name, counts[i])
			}
		}
	}
}
