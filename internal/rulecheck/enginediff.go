package rulecheck

// Engine differential harness: the generated corpus is executed under
// every configuration the engine offers — naive and semi-naive fixpoint
// mode, serially and on a worker pool, in memory and (optionally)
// spill-forced — and by the semantics-only reference evaluator
// (engine.ReferenceEval), and the results are cross-checked. Mode pairs
// must agree as multisets (row order is not part of the fixpoint-mode
// contract); every other pair must agree bit-for-bit, rows in the same
// order:
//
//	reference ↔ serial, per mode      the engine computes what the operators mean
//	serial ↔ parallel, per mode       parallel evaluation is deterministic
//	in-memory ↔ spill, serial         out-of-core processing changes nothing
//	spill serial ↔ spill parallel     … at any pool size
//
// This is the random-corpus half of the engine's determinism gates
// (docs/PERF.md); the golden-corpus half, which also pins counters and
// EXPLAIN ANALYZE trees, lives in internal/engine and internal/core.

import (
	"context"
	"fmt"

	"lera/internal/catalog"
	"lera/internal/engine"
	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/term"
)

// EngineDiffOptions configures the engine differential harness. The zero
// value is usable: seed 1, 4 rows per relation, 4 workers, default batch
// size, no limits.
type EngineDiffOptions struct {
	// Seed drives the data and corpus generation (same contract as
	// DiffOptions.Seed).
	Seed uint64
	// RowsPerRelation is the generated database size.
	RowsPerRelation int
	// Parallelism is the pool size of the parallel variants (minimum 2 to
	// actually exercise worker goroutines).
	Parallelism int
	// BatchSize is the batch granularity of the engine variants
	// (0 = engine.DefaultBatchSize). Results must not depend on it — run
	// the harness at several values to prove that.
	BatchSize int
	// Limits is the guard budget applied to every evaluation.
	Limits guard.Limits
	// SpillDir, when set, adds four spill-forced variants: both fixpoint
	// modes, serial and parallel, re-run with Limits.MaxMemBytes =
	// SpillMaxMem and this spill directory armed, so join builds, dedup
	// passes and seen-sets all take the out-of-core path. Their outputs
	// must stay bit-identical to the unlimited-memory runs — the spill
	// half of the engine differential gate (docs/PERF.md, "Memory governor
	// & spill").
	SpillDir string
	// SpillMaxMem is the per-operator memory grant of the spill variants.
	// 0 means 1 byte: every governed structure spills immediately.
	SpillMaxMem int64
}

func (o EngineDiffOptions) withDefaults() EngineDiffOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RowsPerRelation <= 0 {
		o.RowsPerRelation = 4
	}
	if o.Parallelism < 2 {
		o.Parallelism = 4
	}
	return o
}

// engineVariant is one way of evaluating a term.
type engineVariant struct {
	name      string
	mode      engine.FixMode
	par       int
	reference bool // engine.ReferenceEval instead of the engine
	spill     bool // memory governor armed with a tiny grant + spill dir
}

// EngineDiff executes every corpus term under the four engine variants
// (eight when SpillDir arms the spill-forced runs) and the reference in
// both fixpoint modes, and reports divergence as RC104 diagnostics. The
// error return is reserved for setup failures and context cancellation.
func EngineDiff(ctx context.Context, cat *catalog.Catalog, opt EngineDiffOptions) ([]Diagnostic, error) {
	opt = opt.withDefaults()
	inst := Generate(cat, opt.Seed, opt.RowsPerRelation)
	corpus := Corpus(cat, inst, opt.Seed)
	variants := []engineVariant{
		{name: "naive/serial", mode: engine.Naive, par: 1},
		{name: "semi-naive/serial", mode: engine.SemiNaive, par: 1},
		{name: "naive/parallel", mode: engine.Naive, par: opt.Parallelism},
		{name: "semi-naive/parallel", mode: engine.SemiNaive, par: opt.Parallelism},
		{name: "reference/naive", mode: engine.Naive, reference: true},
		{name: "reference/semi-naive", mode: engine.SemiNaive, reference: true},
	}
	// Bit-exact pairs. Exactness composes: together these pin every
	// variant's successful output to the reference's, up to the
	// fixpoint-mode multiset tolerance.
	exactPairs := [][2]int{
		{4, 0}, {5, 1}, // reference vs serial
		{0, 2}, {1, 3}, // serial vs parallel
	}
	if opt.SpillDir != "" {
		variants = append(variants,
			engineVariant{name: "naive/serial/spill", mode: engine.Naive, par: 1, spill: true},
			engineVariant{name: "semi-naive/serial/spill", mode: engine.SemiNaive, par: 1, spill: true},
			engineVariant{name: "naive/parallel/spill", mode: engine.Naive, par: opt.Parallelism, spill: true},
			engineVariant{name: "semi-naive/parallel/spill", mode: engine.SemiNaive, par: opt.Parallelism, spill: true},
		)
		exactPairs = append(exactPairs,
			[2]int{0, 6}, [2]int{1, 7}, // serial: in-memory vs spill
			[2]int{6, 8}, [2]int{7, 9}, // spill: serial vs parallel
		)
	}
	spillMem := opt.SpillMaxMem
	if spillMem <= 0 {
		spillMem = 1
	}
	evals := make([]func(context.Context, *term.Term) (*engine.Relation, error), len(variants))
	for i, v := range variants {
		lims := opt.Limits
		if v.spill {
			lims.MaxMemBytes = spillMem
		}
		db, err := NewDB(cat, inst, lims)
		if err != nil {
			return nil, err
		}
		db.Mode = v.mode
		db.Parallelism = v.par
		db.BatchSize = opt.BatchSize
		if v.spill {
			db.SpillDir = opt.SpillDir
		}
		evals[i] = db.EvalCtx
		if v.reference {
			evals[i] = func(ctx context.Context, t *term.Term) (*engine.Relation, error) {
				return engine.ReferenceEval(ctx, db, t)
			}
		}
	}

	var ds []Diagnostic
	report := func(q Query, a, b engineVariant, detail string) {
		ds = append(ds, Diagnostic{Rule: "(engine)", Severity: SevError, Code: CodeEngineDivergence,
			Site: q.Name,
			Msg: fmt.Sprintf("seed-%d database: %s and %s diverge on %s: %s",
				opt.Seed, a.name, b.name, lera.Format(q.Term), detail)})
	}
	for _, q := range corpus {
		if err := ctx.Err(); err != nil {
			return ds, err
		}
		rels := make([]*engine.Relation, len(variants))
		errs := make([]error, len(variants))
		for i := range variants {
			rels[i], errs[i] = evalPhase(ctx, evals[i], opt.Limits, q.Term)
		}
		// Success parity holds across every exact pair: the cumulative row
		// account is order-independent, so a budget trips under the pool
		// (or in batches, or in the reference) iff it trips serially.
		for _, pair := range exactPairs {
			a, b := pair[0], pair[1]
			if (errs[a] == nil) != (errs[b] == nil) {
				report(q, variants[a], variants[b], fmt.Sprintf("%v vs %v", errs[a], errs[b]))
				continue
			}
			if errs[a] != nil {
				continue
			}
			if d := orderedDiff(rels[a], rels[b]); d != "" {
				report(q, variants[a], variants[b], d)
			}
		}
		// Cross-mode agreement as multisets. The modes do different
		// amounts of work, so under a tight budget one may legitimately
		// trip where the other converges — only compare when both
		// succeed; a semantic failure in exactly one mode still reports.
		if errs[0] != nil && errs[1] != nil {
			continue
		}
		if (errs[0] == nil) != (errs[1] == nil) {
			if !isBudget(errs[0]) && !isBudget(errs[1]) {
				report(q, variants[0], variants[1], fmt.Sprintf("%v vs %v", errs[0], errs[1]))
			}
			continue
		}
		if diff := compare(rels[0], rels[1]); diff != "" {
			report(q, variants[0], variants[1], diff)
		}
	}
	return ds, nil
}

// orderedDiff compares two relations row by row; empty string means
// identical, order included.
func orderedDiff(a, b *engine.Relation) string {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("%d vs %d rows", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if rowsKey(a.Rows[i]) != rowsKey(b.Rows[i]) {
			return fmt.Sprintf("row %d differs", i)
		}
	}
	return ""
}
