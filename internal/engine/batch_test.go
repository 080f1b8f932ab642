package engine

// The engine's determinism gates (docs/PERF.md, "Batched execution &
// relation indexes"): rows, order included, equal the semantics-only
// reference evaluator's (ReferenceEval); every Counters field and the
// timing-free EXPLAIN ANALYZE tree equal the goldens captured from the
// parent commit's row evaluator (golden_test.go) at every batch size and
// every Parallelism setting — under guard budgets and fault injection
// too. Batch size 1 is the degenerate row-at-a-time leg.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/value"
)

// referenceRows evaluates q with the reference evaluator on db's data and
// returns the rows rendered like engineRun.Rows.
func referenceRows(t *testing.T, db *DB, q *term.Term, mode FixMode) []string {
	t.Helper()
	SetFixMode(db, mode)
	rel, err := ReferenceEval(context.Background(), db, q)
	if err != nil {
		t.Fatalf("reference failed: %v", err)
	}
	var rows []string
	for _, r := range rel.Rows {
		rows = append(rows, rowKey(r))
	}
	return rows
}

// diffRows compares a run's rows, order included, to the reference's.
func diffRows(ref []string, got engineRun) string {
	if got.Err != "" {
		return "engine failed where the reference succeeded: " + got.Err
	}
	if len(ref) != len(got.Rows) {
		return fmt.Sprintf("reference has %d rows, engine %d", len(ref), len(got.Rows))
	}
	for i := range ref {
		if ref[i] != got.Rows[i] {
			return fmt.Sprintf("row %d differs from the reference", i)
		}
	}
	return ""
}

// TestBatchEngineBitIdentity pins the contract: for every corpus query, in
// both fixpoint modes, at batch sizes 1, 2 and 1024 and Parallelism 1 and
// 4, rows equal the reference's and rows, counters and the whole OpStats
// tree equal the golden.
func TestBatchEngineBitIdentity(t *testing.T) {
	g := loadGolden(t)
	for name, q := range diffCorpus() {
		for _, mode := range []FixMode{SemiNaive, Naive} {
			ref := referenceRows(t, loadedDB(t), q, mode)
			want := golden(t, g, "corpus/"+name+"/"+modeName(mode))
			for _, bs := range []int{1, 2, 1024} {
				for _, par := range []int{1, 4} {
					c := runCfg{batch: bs, par: par, mode: mode}
					got := runEngine(t, q, c)
					if d := diffRuns(want, got); d != "" {
						t.Errorf("%s (%s) vs golden: %s", name, c, d)
					}
					if d := diffRows(ref, got); d != "" {
						t.Errorf("%s (%s): %s", name, c, d)
					}
				}
			}
		}
	}
}

// TestBatchEngineBitIdentityUnderLimits re-runs the gate with a row
// budget tight enough to trip several corpus queries: budget errors must
// fire with the golden's text and counters at every batch size, and
// whatever fits the budget must still match exactly. The reference
// honours the row budget too, so it must trip on exactly the same queries.
func TestBatchEngineBitIdentityUnderLimits(t *testing.T) {
	g := loadGolden(t)
	for name, q := range diffCorpus() {
		want := golden(t, g, "limits/"+name)
		db := loadedDB(t)
		db.Limits = tightLimits
		_, refErr := ReferenceEval(context.Background(), db, q)
		if (refErr != nil) != (want.Err != "") {
			t.Errorf("%s: reference error %v, golden error %q", name, refErr, want.Err)
		}
		for _, bs := range []int{1, 2, 1024} {
			c := runCfg{batch: bs, par: 1, lim: tightLimits}
			got := runEngine(t, q, c)
			if d := diffRuns(want, got); d != "" {
				t.Errorf("%s (%s) vs golden: %s", name, c, d)
			}
			if want.Err == "" {
				if d := diffRows(referenceRows(t, loadedDB(t), q, SemiNaive), got); d != "" {
					t.Errorf("%s (%s): %s", name, c, d)
				}
			}
		}
	}
}

// TestBatchEngineFaultParity arms deterministic ADT faults and checks the
// engine fails identically at every batch size: with an injector present
// its compiled comparisons hit it where the generic evaluator would, so
// every ADT hit — and therefore the fault call index, the error and the
// counters at the point of failure — matches the golden exactly.
func TestBatchEngineFaultParity(t *testing.T) {
	g := loadGolden(t)
	q := diffCorpus()["fig3-hash-join"]
	for _, call := range []int{1, 2} {
		want := golden(t, g, fmt.Sprintf("fault/member-call-%d", call))
		if want.Err == "" {
			t.Fatalf("call %d: golden records no fault", call)
		}
		for _, bs := range []int{1, 1024} {
			got := runEngine(t, q, runCfg{batch: bs, par: 1, fault: call})
			if d := diffRuns(want, got); d != "" {
				t.Errorf("call %d batch %d: %s", call, bs, d)
			}
		}
	}
}

// TestBatchEngineBitIdentityLargeFixpoint runs the Figure 5 closure over
// random graphs large enough to cross batch and parallel-chunk
// boundaries.
func TestBatchEngineBitIdentityLargeFixpoint(t *testing.T) {
	g := loadGolden(t)
	for seed := int64(1); seed <= 3; seed++ {
		for _, mode := range []FixMode{SemiNaive, Naive} {
			ref := referenceRows(t, graphDB(t, seed), fig5Fix(), mode)
			want := golden(t, g, fmt.Sprintf("large-fixpoint/seed-%d/%s", seed, modeName(mode)))
			for _, bs := range []int{1, 2, 1024} {
				for _, par := range []int{1, 4} {
					c := runCfg{batch: bs, par: par, mode: mode}
					got := runOn(graphDB(t, seed), fig5Fix(), c)
					if d := diffRuns(want, got); d != "" {
						t.Errorf("seed %d (%s) vs golden: %s", seed, c, d)
					}
					if d := diffRows(ref, got); d != "" {
						t.Errorf("seed %d (%s): %s", seed, c, d)
					}
				}
			}
		}
	}
}

// TestReferenceEvalIsIsolated: the reference ignores the memory governor
// and the spill directory (a one-byte grant with no spill directory fails
// the engine but not the reference), and leaves the caller's counters,
// spill totals and last stats tree untouched.
func TestReferenceEvalIsIsolated(t *testing.T) {
	q := diffCorpus()["fig3-hash-join"]
	db := loadedDB(t)
	db.CollectStats = true
	db.Limits = guard.Limits{MaxMemBytes: 1}
	db.SpillDir = t.TempDir()
	db.Parallelism = 4
	if _, err := db.EvalCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	count, spill, stats := db.Count, db.Spill, db.LastExecStats()
	if spill == (SpillStats{}) {
		t.Fatal("setup: the governed run did not spill")
	}

	rel, err := ReferenceEval(context.Background(), db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rel.Rows) == 0 {
		t.Fatal("reference returned no rows")
	}
	if db.Count != count || db.Spill != spill || db.LastExecStats() != stats {
		t.Errorf("ReferenceEval touched the caller: counters %+v→%+v, spill %+v→%+v, stats %p→%p",
			count, db.Count, spill, db.Spill, stats, db.LastExecStats())
	}
	dirEmpty(t, db.SpillDir, "after ReferenceEval")

	db.SpillDir = ""
	if _, err := db.EvalCtx(context.Background(), q); err == nil {
		t.Fatal("setup: engine ran over-grant without a spill directory")
	}
	if _, err := ReferenceEval(context.Background(), db, q); err != nil {
		t.Errorf("reference honoured MaxMemBytes: %v", err)
	}
}

// TestRowKeyEqMatchesRowKey pins the key-faithfulness of the hashed row
// equality: for a value set chosen to hit every edge (int/real collapse,
// signed zero, NaN payloads, tuple field-name concatenation, nested
// collections), valueKeyEq must coincide with Key-string equality and
// Hash must be constant on Key-equal values.
func TestRowKeyEqMatchesRowKey(t *testing.T) {
	nan := value.Real(nanValue())
	vals := []value.Value{
		value.Int(5), value.Real(5), value.Real(5.5), value.Int(-5),
		value.Real(0), value.Real(negZero()), value.Int(0),
		nan, value.Real(nanPayload()),
		value.Bool(true), value.Bool(false), value.Null,
		value.String("x"), value.String("y"), value.String(""),
		value.OID(1), value.OID(2),
		value.NewSet(value.Int(1), value.Int(2)),
		value.NewSet(value.Int(2), value.Int(1)),
		value.NewList(value.Int(1), value.Int(2)),
		value.NewTuple([]string{"a", "b"}, []value.Value{value.Int(1), value.Int(2)}),
		value.NewTuple([]string{"a,b"}, []value.Value{value.Int(1)}),
		value.NewTuple([]string{"a"}, []value.Value{value.Int(1)}),
		// Same arity, one Key: the pair whose names used to hash apart.
		value.NewTuple([]string{"a,b", "c"}, []value.Value{value.Int(1), value.Int(2)}),
		value.NewTuple([]string{"a", "b,c"}, []value.Value{value.Int(1), value.Int(2)}),
	}
	for i, a := range vals {
		for j, b := range vals {
			keyEq := a.Key() == b.Key()
			if got := valueKeyEq(&a, &b); got != keyEq {
				t.Errorf("valueKeyEq(%d:%s, %d:%s) = %v, Key equality %v", i, a, j, b, got, keyEq)
			}
			if keyEq && a.Hash() != b.Hash() {
				t.Errorf("Key-equal values hash differently: %s vs %s", a, b)
			}
		}
	}
}

func nanValue() float64 {
	z := 0.0
	return z / z
}

func negZero() float64 {
	z := 0.0
	return -z
}

// nanPayload builds a NaN with a different bit pattern than 0/0.
func nanPayload() float64 {
	n := nanValue()
	return -n
}

// TestRelationIndexLifecycle is the white-box half of the persistent
// index contract: lazily built on first keyed access, warm on the second,
// dropped by Load and Insert (declared and undeclared relations alike),
// and rebuilt — with reference-identical results — afterwards.
func TestRelationIndexLifecycle(t *testing.T) {
	db := loadedDB(t)
	q := diffCorpus()["fig3-hash-join"]
	key := []int{0}

	if got := db.idx.size(); got != 0 {
		t.Fatalf("fresh database has %d cached indexes", got)
	}
	if _, err := db.EvalCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	first := db.idx.lookup("FILM", key)
	if first == nil {
		t.Fatal("FILM build-side index not cached after first evaluation")
	}
	if _, err := db.EvalCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if again := db.idx.lookup("FILM", key); again != first {
		t.Error("second evaluation rebuilt a valid index instead of reusing it")
	}

	// Load drops the cached index; the next evaluation rebuilds against
	// the new rows.
	films := stored(db, "FILM")
	newRows := append([][]value.Value{}, films.Rows...)
	if err := db.Load("FILM", newRows); err != nil {
		t.Fatal(err)
	}
	if db.idx.lookup("FILM", key) != nil {
		t.Error("Load did not invalidate the FILM index")
	}
	if _, err := db.EvalCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	rebuilt := db.idx.lookup("FILM", key)
	if rebuilt == nil || rebuilt == first {
		t.Error("index not rebuilt after Load")
	}

	// Insert invalidates too — including the version/nrows fast path.
	extra := append([]value.Value(nil), newRows[0]...)
	extra[0] = value.Int(99)
	extra[1] = value.String("The Extra Film")
	if err := db.Insert("FILM", extra); err != nil {
		t.Fatal(err)
	}
	if db.idx.lookup("FILM", key) != nil {
		t.Error("Insert did not invalidate the FILM index")
	}

	// Post-invalidation results stay reference-identical.
	batch, err := db.EvalCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ReferenceEval(context.Background(), db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Rows) != len(want.Rows) {
		t.Fatalf("post-invalidation rows: %d vs reference %d", len(batch.Rows), len(want.Rows))
	}
	for i := range batch.Rows {
		if rowKey(batch.Rows[i]) != rowKey(want.Rows[i]) {
			t.Errorf("post-invalidation row %d differs", i)
		}
	}
}

// TestIndexInvalidationUndeclaredRelation pins the belt-and-braces path:
// relations the catalog does not declare never bump the data version, so
// Load/Insert must drop their indexes explicitly.
func TestIndexInvalidationUndeclaredRelation(t *testing.T) {
	db := loadedDB(t)
	rows := [][]value.Value{
		{value.Int(1), value.String("a")},
		{value.Int(2), value.String("b")},
	}
	if err := db.Load("ADHOC", rows); err != nil {
		t.Fatal(err)
	}
	v0 := db.Cat.DataVersion()
	q := lera.Search(
		[]*term.Term{lera.Rel("ADHOC"), lera.Rel("ADHOC")},
		lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1))),
		[]*term.Term{lera.Attr(1, 2), lera.Attr(2, 2)},
	)
	if _, err := db.EvalCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if db.idx.lookup("ADHOC", []int{0}) == nil {
		t.Fatal("ADHOC index not cached")
	}
	// Same row count, same data version: only the explicit invalidation
	// can catch this swap.
	if err := db.Load("ADHOC", [][]value.Value{
		{value.Int(1), value.String("A")},
		{value.Int(2), value.String("B")},
	}); err != nil {
		t.Fatal(err)
	}
	if db.Cat.DataVersion() != v0 {
		t.Fatalf("undeclared Load bumped the data version — this test needs a stale-version scenario")
	}
	if db.idx.lookup("ADHOC", []int{0}) != nil {
		t.Fatal("Load of undeclared relation did not invalidate its index")
	}
	r, err := db.EvalCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if s := row[0].S; s != "A" && s != "B" {
			t.Errorf("stale index row surfaced: %v", row)
		}
	}
}

// TestIndexSharedAcrossForks: forks probe the parent's warm indexes and
// contribute their own builds back to the shared set.
func TestIndexSharedAcrossForks(t *testing.T) {
	db := loadedDB(t)
	q := diffCorpus()["fig3-hash-join"]
	f := db.Fork()
	if _, err := f.EvalCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	e := db.idx.lookup("FILM", []int{0})
	if e == nil {
		t.Fatal("fork's index build not visible in parent set")
	}
	if _, err := db.EvalCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if db.idx.lookup("FILM", []int{0}) != e {
		t.Error("parent rebuilt an index the fork had already built")
	}
}

// TestWidthPreservation extends the PR 5 empty-arity fixes to the batched
// engine: declared widths survive empty results through every operator
// and short-circuit, in the engine and the reference alike, and EXPLAIN
// ANALYZE renders them.
func TestWidthPreservation(t *testing.T) {
	db := loadedDB(t)
	// Empty stored relation keeps its declared width.
	if err := db.Load("FILM", nil); err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name  string
		q     *term.Term
		width int
	}{
		{"static-false-search", lera.Search([]*term.Term{lera.Rel("APPEARS_IN")}, lera.Ands(term.FalseT()), []*term.Term{lera.Attr(1, 1), lera.Attr(1, 2)}), 2},
		{"empty-input-search", lera.Search([]*term.Term{lera.Rel("FILM"), lera.Rel("APPEARS_IN")}, lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1))), []*term.Term{lera.Attr(1, 2), lera.Attr(2, 2), lera.Attr(2, 1)}), 3},
		{"filter-empty", lera.Filter(lera.Rel("FILM"), lera.Ands(lera.Cmp("=", lera.Attr(1, 1), term.Num(1)))), 3},
		{"join-empty", lera.Join(lera.Rel("FILM"), lera.Rel("APPEARS_IN"), lera.TrueQual()), 5},
		// FILTER and JOIN project every column: a statically false one
		// learns its width from its inputs before it short-circuits.
		{"static-false-filter", lera.Filter(lera.Rel("APPEARS_IN"), lera.Ands(term.FalseT())), 2},
		{"static-false-join", lera.Join(lera.Rel("APPEARS_IN"), lera.Rel("APPEARS_IN"), lera.Ands(term.FalseT())), 4},
		{"union-empty", lera.Union(lera.Rel("FILM"), lera.Rel("FILM")), 3},
		{"inter-empty", lera.Inter(lera.Rel("FILM"), lera.Rel("FILM")), 3},
		{"diff-full", lera.Diff(lera.Rel("APPEARS_IN"), lera.Rel("APPEARS_IN")), 2},
		{"unnest-empty", term.F(lera.OpUnnest, lera.Rel("FILM"), term.Num(3)), 3},
	}
	evals := map[string]func(q *term.Term) (*Relation, error){
		"engine":    func(q *term.Term) (*Relation, error) { return db.EvalCtx(context.Background(), q) },
		"reference": func(q *term.Term) (*Relation, error) { return ReferenceEval(context.Background(), db, q) },
	}
	for who, eval := range evals {
		for _, c := range checks {
			r, err := eval(c.q)
			if err != nil {
				t.Fatalf("%s %s: %v", who, c.name, err)
			}
			if len(r.Rows) != 0 {
				t.Fatalf("%s %s: expected empty result, got %d rows", who, c.name, len(r.Rows))
			}
			if r.Arity() != c.width {
				t.Errorf("%s %s: Arity() = %d, want %d", who, c.name, r.Arity(), c.width)
			}
		}
	}
	// The declared width of an empty operator output surfaces in
	// EXPLAIN ANALYZE (stats.go renders width= only for empty
	// results).
	db.CollectStats = true
	if _, err := db.EvalCtx(context.Background(), checks[0].q); err != nil {
		t.Fatal(err)
	}
	if s := db.LastExecStats().Format(false); !strings.Contains(s, "width=2") {
		t.Errorf("stats missing declared width:\n%s", s)
	}
}

// TestBatchSizeInvariance: a handful of odd batch sizes on the join-heavy
// corpus entry, all bit-identical.
func TestBatchSizeInvariance(t *testing.T) {
	q := diffCorpus()["join-op"]
	ref := runEngine(t, q, runCfg{par: 1})
	if ref.Err != "" {
		t.Fatal(ref.Err)
	}
	for _, bs := range []int{1, 3, 7, 255, 256, 257} {
		got := runEngine(t, q, runCfg{batch: bs, par: 1})
		if d := diffRuns(ref, got); d != "" {
			t.Errorf("batch %d: %s", bs, d)
		}
	}
}
