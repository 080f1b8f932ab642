package engine_test

// The engine's random-corpus differential: rulecheck's generated corpus is
// executed under every configuration the engine offers — naive and
// semi-naive fixpoint mode, serially and on a worker pool, in memory and
// (optionally) spill-forced — and by the semantics-only reference
// evaluator (ReferenceEval, reference_test.go), and the results are
// cross-checked. Mode pairs must agree as multisets (row order is not part
// of the fixpoint-mode contract); every other pair must agree bit-for-bit,
// rows in the same order:
//
//	reference ↔ serial, per mode      the engine computes what the operators mean
//	serial ↔ parallel, per mode       parallel evaluation is deterministic
//	in-memory ↔ spill, serial         out-of-core processing changes nothing
//	spill serial ↔ spill parallel     … at any pool size
//
// Beside the generated corpus run fixed FILTER and JOIN terms (fixedForms)
// that take the pre-filter, the hash join and the index read.
//
// This is the random-corpus half of the engine's determinism gates
// (docs/PERF.md); the golden-corpus half, which also pins counters and
// EXPLAIN ANALYZE trees, is golden_test.go and internal/core's corpus.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"

	"lera/internal/catalog"
	"lera/internal/engine"
	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/rulecheck"
	"lera/internal/term"
	"lera/internal/testdb"
)

// diffOptions configures one run of the differential.
type diffOptions struct {
	// seed drives the data and corpus generation (rulecheck.Generate,
	// rulecheck.Corpus).
	seed uint64
	// rowsPerRelation is the generated database size.
	rowsPerRelation int
	// parallelism is the pool size of the parallel variants.
	parallelism int
	// batchSize is the batch granularity of the engine variants (0 =
	// engine.DefaultBatchSize). Results must not depend on it.
	batchSize int
	// limits is the guard budget applied to every evaluation.
	limits guard.Limits
	// spillDir, when set, adds four spill-forced variants: both fixpoint
	// modes, serial and parallel, re-run with a one-byte memory grant and
	// this spill directory armed, so join builds, dedup passes and
	// seen-sets all take the out-of-core path. Their outputs must stay
	// bit-identical to the unlimited-memory runs (docs/PERF.md, "Memory
	// governor & spill").
	spillDir string
}

// engineVariant is one way of evaluating a term.
type engineVariant struct {
	name      string
	mode      engine.FixMode
	par       int
	reference bool // engine.ReferenceEval instead of the engine
	spill     bool // memory governor armed with a one-byte grant + spill dir
}

// engineDiff executes every corpus term under the four engine variants
// (eight when spillDir arms the spill-forced runs) and the reference in
// both fixpoint modes, and returns one line per divergence.
func engineDiff(t *testing.T, cat *catalog.Catalog, opt diffOptions) []string {
	t.Helper()
	inst := rulecheck.Generate(cat, opt.seed, opt.rowsPerRelation)
	corpus := append(rulecheck.Corpus(cat, inst, opt.seed), fixedForms()...)
	variants := []engineVariant{
		{name: "naive/serial", mode: engine.Naive, par: 1},
		{name: "semi-naive/serial", mode: engine.SemiNaive, par: 1},
		{name: "naive/parallel", mode: engine.Naive, par: opt.parallelism},
		{name: "semi-naive/parallel", mode: engine.SemiNaive, par: opt.parallelism},
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
	if opt.spillDir != "" {
		variants = append(variants,
			engineVariant{name: "naive/serial/spill", mode: engine.Naive, par: 1, spill: true},
			engineVariant{name: "semi-naive/serial/spill", mode: engine.SemiNaive, par: 1, spill: true},
			engineVariant{name: "naive/parallel/spill", mode: engine.Naive, par: opt.parallelism, spill: true},
			engineVariant{name: "semi-naive/parallel/spill", mode: engine.SemiNaive, par: opt.parallelism, spill: true},
		)
		exactPairs = append(exactPairs,
			[2]int{0, 6}, [2]int{1, 7}, // serial: in-memory vs spill
			[2]int{6, 8}, [2]int{7, 9}, // spill: serial vs parallel
		)
	}
	evals := make([]func(context.Context, *term.Term) (*engine.Relation, error), len(variants))
	for i, v := range variants {
		lims := opt.limits
		if v.spill {
			lims.MaxMemBytes = 1
		}
		db, err := rulecheck.NewDB(cat, inst, lims)
		if err != nil {
			t.Fatal(err)
		}
		engine.SetFixMode(db, v.mode)
		db.Parallelism = v.par
		db.BatchSize = opt.batchSize
		if v.spill {
			db.SpillDir = opt.spillDir
		}
		evals[i] = db.EvalCtx
		if v.reference {
			evals[i] = func(ctx context.Context, t *term.Term) (*engine.Relation, error) {
				return engine.ReferenceEval(ctx, db, t)
			}
		}
	}

	var out []string
	report := func(q rulecheck.Query, a, b engineVariant, detail string) {
		out = append(out, fmt.Sprintf("%s: seed-%d database: %s and %s diverge on %s: %s",
			q.Name, opt.seed, a.name, b.name, lera.Format(q.Term), detail))
	}
	for _, q := range corpus {
		rels := make([]*engine.Relation, len(variants))
		errs := make([]error, len(variants))
		for i := range variants {
			rels[i], errs[i] = evals[i](context.Background(), q.Term)
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
		if d := multisetDiff(rels[0], rels[1]); d != "" {
			report(q, variants[0], variants[1], d)
		}
	}
	return out
}

// fixedForms are engine.FixedForms as corpus entries, in name order: the
// FILTER and JOIN terms that reach the pre-filter, the hash join and the
// index read, which the generated corpus alone may not (ROADMAP F6).
func fixedForms() []rulecheck.Query {
	var out []rulecheck.Query
	for name, q := range engine.FixedForms() {
		out = append(out, rulecheck.Query{Name: "fixed/" + name, Term: q})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// isBudget reports whether an error is a guard budget trip rather than a
// semantic failure.
func isBudget(err error) bool {
	return errors.Is(err, guard.ErrDeadline) || errors.Is(err, guard.ErrStepBudget) ||
		errors.Is(err, guard.ErrTermSize) || errors.Is(err, guard.ErrRowBudget) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// orderedDiff compares two relations row by row; empty string means
// identical, order included.
func orderedDiff(a, b *engine.Relation) string {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("%d vs %d rows", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if engine.RowKey(a.Rows[i]) != engine.RowKey(b.Rows[i]) {
			return fmt.Sprintf("row %d differs", i)
		}
	}
	return ""
}

// multisetDiff compares two relations as multisets of rows; empty string
// means equal, otherwise the rows one has more often than the other.
func multisetDiff(a, b *engine.Relation) string {
	count := map[string]int{}
	for _, row := range a.Rows {
		count[engine.RowKey(row)]++
	}
	for _, row := range b.Rows {
		count[engine.RowKey(row)]--
	}
	var delta []string
	for k, n := range count {
		if n != 0 {
			delta = append(delta, fmt.Sprintf("%+d×%s", n, k))
		}
	}
	if len(delta) == 0 {
		return ""
	}
	sort.Strings(delta)
	return fmt.Sprintf("%d vs %d rows; first delta %s", len(a.Rows), len(b.Rows), delta[0])
}

// TestEngineModesAgree is the random-corpus differential gate: on several
// seeded databases, the four engine variants (naive/semi-naive ×
// serial/parallel) and the reference evaluator must agree on every
// generated term — as multisets across fixpoint modes, bit-for-bit
// between serial/parallel runs and between the engine and the reference.
func TestEngineModesAgree(t *testing.T) {
	cat := diffCatalog(t)
	for _, seed := range []uint64{1, 7, 42} {
		for _, d := range engineDiff(t, cat, diffOptions{seed: seed, rowsPerRelation: 6, parallelism: 4}) {
			t.Errorf("seed %d: %s", seed, d)
		}
	}
}

// TestEngineModesAgreeUnderLimits re-runs the gate with a guard budget in
// force: budget trips must be consistent between a mode's serial,
// parallel and reference runs, and whatever converges must still agree.
func TestEngineModesAgreeUnderLimits(t *testing.T) {
	for _, d := range engineDiff(t, diffCatalog(t), diffOptions{
		seed:            3,
		rowsPerRelation: 6,
		parallelism:     4,
		limits:          guard.Limits{MaxRows: 200, MaxFixIterations: 50},
	}) {
		t.Errorf("%s", d)
	}
}

// TestEngineAgreesUnderSpill is the spill half of the differential gate:
// with a one-byte memory grant and a spill directory armed, every join
// build, dedup pass and fixpoint seen-set in the spill-forced variants
// goes out of core, and the results must still be bit-identical to the
// unlimited-memory runs — at degenerate and whole-input batch sizes,
// serial and on a pool.
func TestEngineAgreesUnderSpill(t *testing.T) {
	cat := diffCatalog(t)
	for _, bs := range []int{1, 1024} {
		for _, d := range engineDiff(t, cat, diffOptions{
			seed:            5,
			rowsPerRelation: 6,
			parallelism:     4,
			batchSize:       bs,
			spillDir:        t.TempDir(),
		}) {
			t.Errorf("batch size %d: %s", bs, d)
		}
	}
}

// TestEngineAgreesAcrossBatchSizes re-runs the gate at degenerate and
// large batch granularities: batch size must never change any output —
// size 1 degenerates to per-row batches, 2 exercises every partial-batch
// boundary, 1024 covers whole-input batches on this corpus.
func TestEngineAgreesAcrossBatchSizes(t *testing.T) {
	cat := diffCatalog(t)
	for _, bs := range []int{1, 2, 1024} {
		for _, d := range engineDiff(t, cat, diffOptions{seed: 11, rowsPerRelation: 5, parallelism: 4, batchSize: bs}) {
			t.Errorf("batch size %d: %s", bs, d)
		}
	}
}

func diffCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	return cat
}
