package engine

// Tests for intra-query parallelism (parallel.go): the parallel engine
// must be bit-identical to the serial one — same rows in the same order,
// same counters, same stats tree — and the guard layer (row budget,
// cancellation) must keep firing promptly from worker goroutines. Run
// with -race these tests double as the data-race gate for the worker
// clones.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/testdb"
	"lera/internal/value"
)

// bigJoinQuery is a self-join of EDGE large enough to cross the
// parallelMinRows threshold: SEARCH(EDGE, EDGE; $1.2 = $2.1; $1.1, $2.2).
func bigJoinQuery() *term.Term {
	return lera.Search(
		[]*term.Term{lera.Rel("EDGE"), lera.Rel("EDGE")},
		lera.Ands(lera.Cmp("=", lera.Attr(1, 2), lera.Attr(2, 1))),
		[]*term.Term{lera.Attr(1, 1), lera.Attr(2, 2)},
	)
}

// unionQuery exercises the parallel-member path: a union of per-column
// projections of EDGE.
func unionQuery() *term.Term {
	m := func(i, j int) *term.Term {
		return lera.Search(
			[]*term.Term{lera.Rel("EDGE")},
			lera.TrueQual(),
			[]*term.Term{lera.Attr(1, i), lera.Attr(1, j)},
		)
	}
	return lera.Union(m(1, 2), m(2, 1), m(1, 1), m(2, 2))
}

// evalAt runs q on a fresh n-chain database at the given parallelism with
// stats collection on, returning rows, counters and the deterministic
// stats rendering.
func evalAt(t *testing.T, n, parallelism int, mode FixMode, q *term.Term) (*Relation, Counters, string) {
	t.Helper()
	db := chainDB(t, n)
	SetFixMode(db, mode)
	db.Parallelism = parallelism
	db.CollectStats = true
	r, err := db.EvalCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("parallelism %d: %v", parallelism, err)
	}
	return r, db.Count, db.LastExecStats().Format(false)
}

// TestParallelBitIdentical is the engine-level determinism gate: for
// representative queries covering the hash-join build/probe partitioning,
// union-member fan-out and both fixpoint modes, a 4-worker evaluation
// must produce the same rows in the same order, the same counters and
// the same stats tree as the serial path.
func TestParallelBitIdentical(t *testing.T) {
	cases := []struct {
		name string
		n    int
		mode FixMode
		q    *term.Term
	}{
		{"big-hash-join", 4000, SemiNaive, bigJoinQuery()},
		{"union-members", 300, SemiNaive, unionQuery()},
		{"fix-semi-naive", 80, SemiNaive, tcFix("TC")},
		{"fix-naive", 80, Naive, tcFix("TC")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serialR, serialC, serialS := evalAt(t, tc.n, 1, tc.mode, tc.q)
			parR, parC, parS := evalAt(t, tc.n, 4, tc.mode, tc.q)
			if len(serialR.Rows) != len(parR.Rows) {
				t.Fatalf("row count: serial %d, parallel %d", len(serialR.Rows), len(parR.Rows))
			}
			for i := range serialR.Rows {
				if rowKey(serialR.Rows[i]) != rowKey(parR.Rows[i]) {
					t.Fatalf("row %d differs: serial %v, parallel %v", i, serialR.Rows[i], parR.Rows[i])
				}
			}
			if serialC != parC {
				t.Errorf("counters: serial %+v, parallel %+v", serialC, parC)
			}
			if serialS != parS {
				t.Errorf("stats tree differs:\n--- serial ---\n%s--- parallel ---\n%s", serialS, parS)
			}
		})
	}
}

// TestParallelRowBudget: the shared atomic row account must trip
// ErrRowBudget under the pool just as it does serially.
func TestParallelRowBudget(t *testing.T) {
	db := chainDB(t, 50)
	db.Parallelism = 4
	db.Limits = guard.Limits{MaxRows: 100}
	_, err := db.EvalCtx(context.Background(), tcFix("TC"))
	if !errors.Is(err, guard.ErrRowBudget) {
		t.Fatalf("got %v, want ErrRowBudget", err)
	}
}

// TestParallelCancellation: a context deadline must interrupt a long
// fixpoint promptly even when rounds fan out to workers.
func TestParallelCancellation(t *testing.T) {
	db := chainDB(t, 600)
	db.Parallelism = 4
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := db.EvalCtx(ctx, tcFix("TC"))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt interruption", elapsed)
	}
	if !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("got %v, want ErrDeadline", err)
	}
}

// TestEmptyResultPreservesArity is the regression test for the
// empty-relation arity contract: an empty SEARCH result must still
// declare the projection arity (Relation.Width), and the stats tree must
// surface it instead of reporting a width-less operator.
func TestEmptyResultPreservesArity(t *testing.T) {
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	db := New(cat)
	if err := db.Load("EDGE", nil); err != nil {
		t.Fatal(err)
	}
	db.CollectStats = true

	// Empty input relation.
	q := lera.Search(
		[]*term.Term{lera.Rel("EDGE")},
		lera.TrueQual(),
		[]*term.Term{lera.Attr(1, 1), lera.Attr(1, 2)},
	)
	r, err := db.EvalCtx(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 0 || r.Arity() != 2 {
		t.Fatalf("empty-input search: rows=%d arity=%d, want 0 rows of declared arity 2", len(r.Rows), r.Arity())
	}
	if s := db.LastExecStats().Format(false); !strings.Contains(s, "width=2") {
		t.Errorf("stats must report the declared arity of the empty result:\n%s", s)
	}

	// Statically false qualification short-circuits before touching the
	// stored relation but must still declare the projection arity.
	qf := lera.Search(
		[]*term.Term{lera.Rel("EDGE")},
		lera.Ands(term.C(value.Bool(false))),
		[]*term.Term{lera.Attr(1, 1), lera.Attr(1, 2), lera.Attr(1, 1)},
	)
	rf, err := db.EvalCtx(context.Background(), qf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Rows) != 0 || rf.Arity() != 3 {
		t.Fatalf("false-qual search: rows=%d arity=%d, want 0 rows of declared arity 3", len(rf.Rows), rf.Arity())
	}
}
