package engine

// Intra-query parallelism: a per-evaluation worker pool that fans
// independent units of work — union members, semi-naive recursive members
// within a round and probe/filter/projection row chunks — across
// DB.Parallelism goroutines.
//
// The design invariant is determinism: every parallel site merges its
// results in task/partition index order, never completion order, so rows,
// Dedup inputs, Counters and the OpStats tree are bit-identical to the
// serial path at any pool size. Each task runs on a shallow worker clone
// of the DB that shares the read-only state (stored relations, catalog,
// object store) and the cumulative guard.Budget, but owns its Counters,
// amortized cancellation tick and stats frame — the row hot loops stay
// synchronization-free. On join, worker counters are added and worker
// stats children are spliced into the open frame in task order.
//
// Error semantics: the first failing task cancels the group's context so
// sibling workers stop promptly (this is how ErrRowBudget and deadline
// trips propagate); the reported error is the lowest-indexed one that is
// not a secondary group cancellation. A query errs under the pool iff it
// errs serially, but budget-error detail (counts in the message) and the
// counters accumulated on the error path may differ, since siblings that
// the serial loop would never have reached can have partially run.

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"lera/internal/guard"
	"lera/internal/term"
	"lera/internal/value"
)

// workerPool bounds the extra goroutines of one evaluation. The
// semaphore holds Workers()-1 tokens: every runTasks caller works through
// tasks itself, so nested parallel sites degrade gracefully to inline
// execution when the pool is saturated — there is no blocking acquire and
// therefore no starvation across nesting levels.
type workerPool struct {
	sem chan struct{}
}

// parallelMinRows is the chunked-loop threshold: row loops below it run
// serially, since the fan-out overhead would exceed the row work. The
// threshold never affects results — only whether the pool is used.
const parallelMinRows = 2048

// Workers returns the effective worker-pool size: DB.Parallelism when
// positive, else runtime.GOMAXPROCS(0). 1 selects the serial path.
func (db *DB) Workers() int {
	if db.Parallelism > 0 {
		return db.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// canParallel reports whether a site with n independent tasks should fan
// out: the evaluation must have a pool (EvalCtx sizes one when Workers()
// exceeds 1) and more than one task.
func (db *DB) canParallel(n int) bool {
	return n > 1 && db.g != nil && db.g.pool != nil
}

// worker returns a shallow evaluation clone for one parallel task: shared
// read-only database state and shared row budget/pool, private counters,
// tick and stats frame.
func (db *DB) worker(ctx context.Context) *DB {
	g := db.g
	w := db.Fork()
	// Workers share the evaluation's spill handle like the Budget, so all
	// their spill files land in (and unwind with) the same temp dir.
	wg := &evalGuard{ctx: ctx, lim: g.lim, rows: g.rows, pool: g.pool, spill: g.spill, progs: g.progs}
	if g.cur != nil {
		// A synthetic frame collects the task's stats children for the
		// in-order splice of mergeWorker.
		wg.cur = &OpStats{}
	}
	w.g = wg
	return w
}

// mergeWorker folds a finished worker clone back into db. Called in task
// index order: counter addition is exact, and stats children splice into
// the open frame with the usual MaxOpChildren bound, so the resulting
// tree equals the serial one.
func (db *DB) mergeWorker(w *DB) {
	db.Count.Add(w.Count)
	db.Spill.Add(w.Spill)
	g := db.g
	if g == nil || g.cur == nil || w.g == nil || w.g.cur == nil {
		return
	}
	for _, ch := range w.g.cur.Children {
		if len(g.cur.Children) >= MaxOpChildren {
			g.cur.Truncated++
		} else {
			g.cur.Children = append(g.cur.Children, ch)
		}
	}
	g.cur.Truncated += w.g.cur.Truncated
}

// runTasks evaluates n independent tasks and merges their worker state
// back in task order. With no pool (or a single task) it degenerates to
// the serial loop, including its early-abort-on-error behavior. With a
// pool, every task gets its own worker clone; the calling goroutine works
// alongside up to Workers()-1 helpers drawn non-blockingly from the
// shared semaphore.
func (db *DB) runTasks(n int, task func(w *DB, i int) error) error {
	if !db.canParallel(n) {
		for i := 0; i < n; i++ {
			if err := task(db, i); err != nil {
				return err
			}
		}
		return nil
	}
	g := db.g
	ctx, cancel := context.WithCancel(g.ctx)
	defer cancel()
	workers := make([]*DB, n)
	for i := range workers {
		workers[i] = db.worker(ctx)
	}
	errs := make([]error, n)
	var next atomic.Int64
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			// Once the group is canceled (a sibling failed, or the
			// caller's context fired), unstarted tasks record the
			// cancellation instead of running: the group then reports an
			// error, so their missing results are never consumed.
			if ctx.Err() != nil {
				errs[i] = guard.CheckCtx(ctx)
				continue
			}
			if err := task(workers[i], i); err != nil {
				errs[i] = err
				cancel() // stop siblings promptly
			}
		}
	}
	var wg sync.WaitGroup
	for spawned := 0; spawned < n-1; spawned++ {
		select {
		case g.pool.sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-g.pool.sem }()
				run()
			}()
			continue
		default:
		}
		break
	}
	run()
	wg.Wait()
	for _, w := range workers {
		db.mergeWorker(w)
	}
	// Report the lowest-indexed real error; a bare context.Canceled is
	// only chosen when every failure is one (i.e. the caller's own
	// context was canceled), since group cancellation after a primary
	// error also surfaces as Canceled in sibling tasks.
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, context.Canceled) {
			return err
		}
	}
	return first
}

// evalMembers evaluates independent member terms into out, which the
// caller owns and sizes to len(members), in member order, fanning out to
// the worker pool when available. The serial path is runTasks' own loop
// written out, so that a fixpoint round — which evaluates its members into
// the same slice every round — allocates no task closure.
func (db *DB) evalMembers(members []*term.Term, e env, out []*Relation) error {
	if !db.canParallel(len(members)) {
		for i, m := range members {
			r, err := db.eval(m, e)
			if err != nil {
				return err
			}
			out[i] = r
		}
		return nil
	}
	return db.runTasks(len(members), func(w *DB, i int) error {
		r, err := w.eval(members[i], e)
		out[i] = r
		return err
	})
}

// chunkRanges splits n items into at most p near-equal contiguous
// [start, end) ranges.
func chunkRanges(n, p int) [][2]int {
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	out := make([][2]int, 0, p)
	for i := 0; i < p; i++ {
		start, end := i*n/p, (i+1)*n/p
		if start < end {
			out = append(out, [2]int{start, end})
		}
	}
	return out
}

// mapChunks runs fn over contiguous chunks of items (rows, or the ordinal
// pairs of a join) on worker clones and concatenates the per-chunk outputs
// in chunk order — identical to fn(db, items) run serially, which is
// exactly what happens below the parallelMinRows threshold or without a
// pool.
func mapChunks[T any](db *DB, items []T, fn func(w *DB, chunk []T) ([][]value.Value, error)) ([][]value.Value, error) {
	if !db.canParallel(2) || len(items) < parallelMinRows {
		return fn(db, items)
	}
	cks := chunkRanges(len(items), db.Workers())
	outs := make([][][]value.Value, len(cks))
	err := db.runTasks(len(cks), func(w *DB, i int) error {
		o, err := fn(w, items[cks[i][0]:cks[i][1]])
		outs[i] = o
		return err
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	merged := make([][]value.Value, 0, total)
	for _, o := range outs {
		merged = append(merged, o...)
	}
	return merged, nil
}
