package rulecheck

import (
	"context"
	"testing"

	"lera/internal/guard"
	"lera/internal/testdb"
)

// TestEngineModesAgree is the random-corpus differential gate: on several
// seeded databases, the four engine variants (naive/semi-naive ×
// serial/parallel) and the reference evaluator must agree on every
// generated term — as multisets across fixpoint modes, bit-for-bit
// between serial/parallel runs and between the engine and the reference.
func TestEngineModesAgree(t *testing.T) {
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 7, 42} {
		ds, err := EngineDiff(context.Background(), cat, EngineDiffOptions{
			Seed:            seed,
			RowsPerRelation: 6,
			Parallelism:     4,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, d := range ds {
			t.Errorf("seed %d: %s", seed, d)
		}
	}
}

// TestEngineModesAgreeUnderLimits re-runs the gate with a guard budget in
// force: budget trips must be consistent between a mode's serial,
// parallel and reference runs, and whatever converges must still agree.
func TestEngineModesAgreeUnderLimits(t *testing.T) {
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := EngineDiff(context.Background(), cat, EngineDiffOptions{
		Seed:            3,
		RowsPerRelation: 6,
		Parallelism:     4,
		Limits:          guard.Limits{MaxRows: 200, MaxFixIterations: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		t.Errorf("%s", d)
	}
}

// TestEngineAgreesUnderSpill is the spill half of the differential gate
// (ISSUE 10 acceptance): with a one-byte memory grant and a spill
// directory armed, every join build, dedup pass and fixpoint seen-set in
// the spill-forced variants goes out of core, and the results must still
// be bit-identical to the unlimited-memory runs — at degenerate and
// whole-input batch sizes, serial and on a pool.
func TestEngineAgreesUnderSpill(t *testing.T) {
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, 1024} {
		ds, err := EngineDiff(context.Background(), cat, EngineDiffOptions{
			Seed:            5,
			RowsPerRelation: 6,
			Parallelism:     4,
			BatchSize:       bs,
			SpillDir:        t.TempDir(),
		})
		if err != nil {
			t.Fatalf("batch size %d: %v", bs, err)
		}
		for _, d := range ds {
			t.Errorf("batch size %d: %s", bs, d)
		}
	}
}

// TestEngineAgreesAcrossBatchSizes re-runs the gate at degenerate and
// large batch granularities: batch size must never change any output —
// size 1 degenerates to per-row batches, 2 exercises every partial-batch
// boundary, 1024 covers whole-input batches on this corpus.
func TestEngineAgreesAcrossBatchSizes(t *testing.T) {
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{1, 2, 1024} {
		ds, err := EngineDiff(context.Background(), cat, EngineDiffOptions{
			Seed:            11,
			RowsPerRelation: 5,
			Parallelism:     4,
			BatchSize:       bs,
		})
		if err != nil {
			t.Fatalf("batch size %d: %v", bs, err)
		}
		for _, d := range ds {
			t.Errorf("batch size %d: %s", bs, d)
		}
	}
}
