// Package engine evaluates LERA terms over an in-memory database: the
// measurement substrate standing in for the paper's EDS parallel server
// (see DESIGN.md §3). It implements every LERA operator — the compound
// search with hash-join planning, n-ary union/intersection, difference,
// nest/unnest, LET and the fixpoint operator with both naive and
// semi-naive iteration — plus the expression language of qualifications
// and projections, including object dereference (VALUE), tuple attribute
// projection with collection broadcast, and ADT function calls.
//
// The engine keeps work counters (tuples scanned, join pairs produced,
// tuples emitted, fixpoint iterations); the benchmark harness reports
// these machine-independent numbers alongside wall-clock timings.
package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"lera/internal/catalog"
	"lera/internal/guard"
	"lera/internal/term"
	"lera/internal/types"
	"lera/internal/value"
)

// Relation is an evaluated relation: a bag of rows. Width carries the
// declared arity for the empty case: operators that know their output
// width record it, so an empty result still answers Arity correctly
// instead of collapsing to 0 (which under-reported operator width in
// OpStats and EXPLAIN ANALYZE). Its rows are read-only and may share
// cells with a stored relation: a REL answers with the stored rows
// themselves, and a scan that projects a run of columns with slices of
// them, each at full capacity so that an append copies.
type Relation struct {
	Rows  [][]value.Value
	Width int
}

// Arity returns the width of the relation: the row width when rows exist,
// the declared Width otherwise.
func (r *Relation) Arity() int {
	if len(r.Rows) > 0 {
		return len(r.Rows[0])
	}
	return r.Width
}

// Counters aggregate engine work.
type Counters struct {
	Scanned       int // rows read from stored relations
	JoinPairs     int // rows produced by join steps (before final filter)
	Emitted       int // rows emitted by operators
	PredEvals     int // qualification conjuncts evaluated against rows
	FixIterations int // fixpoint rounds executed
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Scanned += other.Scanned
	c.JoinPairs += other.JoinPairs
	c.Emitted += other.Emitted
	c.PredEvals += other.PredEvals
	c.FixIterations += other.FixIterations
}

// knobs groups the evaluation settings a fork or a parallel worker
// inherits from its parent. Fork copies them by one struct assignment
// (and worker goes through Fork), so a setting added here can never be
// forgotten at a copy site.
type knobs struct {
	// naive evaluates every FIX the naive way — the whole body against the
	// full accumulated relation each round — where semi-naive evaluation
	// would drive the recursive members from the previous round's delta.
	// Only tests set it, to check the two strategies against each other;
	// fixNaive also serves FIX bodies that are not a UNIONN.
	naive bool
	// Limits is the guard budget enforced during evaluation: MaxRows caps
	// cumulative materialized rows per EvalCtx call, MaxFixIterations caps
	// each fixpoint instance, MaxMemBytes is the per-operator memory grant
	// (spill.go). The zero value means "defaults" (see internal/guard).
	Limits guard.Limits
	// Parallelism sizes the intra-query worker pool (parallel.go):
	// 0 = runtime.GOMAXPROCS(0), 1 = the serial path, n > 1 = n workers.
	// Results, counters and stats trees are bit-identical at every
	// setting — workers merge in deterministic task order (docs/PERF.md,
	// "Parallel execution").
	Parallelism int
	// BatchSize is the row-batch granularity: hot loops process rows in
	// batches of this size with one amortized cancellation tick per batch.
	// 0 means DefaultBatchSize. Results never depend on it.
	BatchSize int
	// SpillDir is the directory the memory governor moves over-grant
	// operator state into (spill.go): each EvalCtx creates a private temp
	// directory beneath it on first spill and removes it when the
	// evaluation ends. Empty means spilling is disabled — an operator
	// exceeding Limits.MaxMemBytes then fails with guard.ErrMemBudget.
	SpillDir string
	// Injector, when non-nil, is hit (by uppercase function name) before
	// every ADT-function invocation during evaluation — a compiled
	// comparison hits it where the generic evaluator would call the
	// comparison ADT — so chaos tests can fire deterministic faults inside
	// live executions (see guard/faultinject.go for the determinism
	// contract). Injected faults surface as typed ExternalErrors, like
	// real ADT failures.
	Injector *guard.Injector
	// CollectStats enables per-operator execution statistics (stats.go):
	// each EvalCtx builds an OpStats tree retrievable with LastExecStats.
	// Off, evaluation pays one nil check per operator and zero
	// allocations.
	CollectStats bool
}

// DB is an in-memory database instance: stored relations, the object
// store, and the catalog for schema information.
type DB struct {
	Cat     *catalog.Catalog
	Objects map[int64]value.Value
	knobs
	Count Counters
	// Spill accumulates the out-of-core counters across evaluations,
	// like Count. Kept outside Counters because Counters are part of the
	// bit-identity contract between spilled and in-memory runs.
	Spill SpillStats

	rels      map[string]*Relation
	idx       *indexSet  // persistent per-relation join indexes, shared across forks
	g         *evalGuard // per-EvalCtx guard state (nil outside a call)
	lastStats *OpStats   // stats tree of the last CollectStats run
	// lastRowsCharged is the row-budget total of the last EvalCtx call,
	// captured before the guard state is torn down so callers can report
	// budget consumption even for queries that stayed under their cap.
	lastRowsCharged int64
	// lastMemPeak is the tracked-memory high-water mark of the last
	// EvalCtx call (guard.Budget.MemPeak), captured like lastRowsCharged.
	lastMemPeak int64
}

// evalGuard is the per-evaluation guard state: the cancellation context,
// an amortizing tick counter for the row hot loops, the cumulative
// materialized-row account, the worker pool, the open FIX's compiled-SEARCH
// cache, and the open per-operator stats frame (nil unless CollectStats).
// The context, tick and stats frame are per-worker (each parallel worker
// clone owns an evalGuard); the row Budget and the pool are shared by every
// worker of the evaluation, so the row cap fires promptly from any of them.
type evalGuard struct {
	ctx  context.Context
	lim  guard.Limits
	tick int
	rows *guard.Budget
	pool *workerPool
	cur  *OpStats
	// spill is the per-evaluation spill-directory handle (spill.go),
	// shared by every worker clone like the Budget so all spill files of
	// one evaluation unwind together.
	spill *spillState
	// progs is the compiled-SEARCH cache of the innermost open FIX
	// (batchsearch.go); nil outside a fixpoint. Worker clones share it.
	progs *searchCache
}

// guardTickInterval amortizes context checks in the row hot path: the
// context is consulted once per this many ticks (power of two).
const guardTickInterval = 256

// tickRow is the amortized cancellation check, called once per row (or
// join pair) in the evaluation hot loops. It only touches the context
// every guardTickInterval calls so the fast path stays an increment and a
// mask.
func (db *DB) tickRow() error {
	g := db.g
	if g == nil {
		return nil
	}
	g.tick++
	if g.tick&(guardTickInterval-1) != 0 {
		return nil
	}
	return guard.CheckCtx(g.ctx)
}

// checkCtx is the unamortized cancellation check for coarse-grained points
// (fixpoint rounds).
func (db *DB) checkCtx() error {
	if db.g == nil {
		return nil
	}
	return guard.CheckCtx(db.g.ctx)
}

// chargeRows charges n freshly materialized rows against the shared row
// budget of the evaluation.
func (db *DB) chargeRows(n int) error {
	g := db.g
	if g == nil {
		return nil
	}
	if err := g.rows.ChargeRows(n, g.lim.MaxRows); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}

// New creates an empty database over a catalog.
func New(cat *catalog.Catalog) *DB {
	return &DB{Cat: cat, Objects: map[int64]value.Value{}, rels: map[string]*Relation{}, idx: newIndexSet()}
}

// Fork returns a database sharing this one's stored relations, object
// store and catalog by reference, with private counters, limits, stats
// and parallelism — the snapshot-sharing primitive behind a session pool:
// one loaded database serves many concurrent evaluators, each owning its
// mutable evaluation state. The shared storage is treated as immutable;
// forks serving concurrent readers must not Load/Insert/SetObject (the
// server enforces this by accepting only SELECTs). The knobs are copied
// as defaults the fork may override; the persistent relation indexes are
// shared, so a fork pool probes warm indexes instead of rebuilding per
// fork.
func (db *DB) Fork() *DB {
	return &DB{
		Cat:     db.Cat,
		Objects: db.Objects,
		knobs:   db.knobs,
		rels:    db.rels,
		idx:     db.idx,
	}
}

// Load stores rows under a relation name, validating arity and column
// domains (checkDomains) against the catalog when the relation is
// declared. A refused load stores no row.
func (db *DB) Load(name string, rows [][]value.Value) error {
	rel, declared := db.Cat.Relation(name)
	stored := &Relation{Rows: rows}
	if declared {
		for i, row := range rows {
			if len(row) != len(rel.Columns) {
				return fmt.Errorf("engine: %s row %d has %d values, schema has %d columns", name, i, len(row), len(rel.Columns))
			}
			if err := checkDomains(rel, row); err != nil {
				return fmt.Errorf("engine: %s row %d: %w", name, i, err)
			}
		}
		stored.Width = len(rel.Columns)
		db.Cat.BumpDataVersion()
	}
	key := strings.ToUpper(name)
	db.rels[key] = stored
	if db.idx != nil {
		// Drop cached indexes of this relation explicitly: the data-version
		// bump above covers declared relations, this covers the rest.
		db.idx.invalidate(key)
	}
	return nil
}

// Insert appends a single row, validated like a row of Load. A refused
// row stores nothing, not even an empty relation.
func (db *DB) Insert(name string, row []value.Value) error {
	rel, declared := db.Cat.Relation(name)
	if declared {
		if len(row) != len(rel.Columns) {
			return fmt.Errorf("engine: %s: %d values for %d columns", name, len(row), len(rel.Columns))
		}
		if err := checkDomains(rel, row); err != nil {
			return fmt.Errorf("engine: %s: %w", name, err)
		}
	}
	key := strings.ToUpper(name)
	r := db.rels[key]
	if r == nil {
		r = &Relation{}
		if declared {
			r.Width = len(rel.Columns)
		}
		db.rels[key] = r
	}
	r.Rows = append(r.Rows, row)
	if declared {
		db.Cat.BumpDataVersion()
	}
	if db.idx != nil {
		db.idx.invalidate(key)
	}
	return nil
}

// checkDomains refuses a value outside its column's declared type. The
// rewriter trusts the declared domain — member_enum_incons turns
// MEMBER('Cartoon', Categories) into FALSE, and the engine evaluates
// MEMBER over a collection column — so a row outside it would make a
// rewritten query answer differently from the query as written, or fail.
func checkDomains(rel *catalog.Relation, row []value.Value) error {
	for i, col := range rel.Columns {
		if err := checkDomain(col.Type, row[i]); err != nil {
			return fmt.Errorf("column %s: %w", col.Name, err)
		}
	}
	return nil
}

// checkDomain reports why v is not a value of t. NULL is a value of every
// type. Judged: a built-in scalar's kind (an INT is an int, a REAL or
// NUMERIC an int or a real, a CHAR a string, a BOOLEAN a bool), an
// enumeration's values, a collection's kind and, recursively, its
// elements, and that a tuple is a tuple and an object an OID. Not judged,
// so accepted: a tuple's fields, an object's state, ANY, and a type
// without a declaration (nil).
func checkDomain(t *types.Type, v value.Value) error {
	if t == nil || v.K == value.KNull {
		return nil
	}
	ok := true
	switch t.Kind {
	case types.Basic:
		switch t.Name {
		case "INT":
			ok = v.K == value.KInt
		case "REAL", "NUMERIC":
			ok = v.K == value.KInt || v.K == value.KReal
		case "CHAR":
			ok = v.K == value.KString
		case "BOOLEAN":
			ok = v.K == value.KBool
		}
	case types.Enum:
		if v.K == value.KString && !t.HasEnumValue(v.S) {
			return fmt.Errorf("%q is not a value of the enumeration %s", v.S, t.Name)
		}
		ok = v.K == value.KString
	case types.Collection:
		ok = v.K.IsCollection() && (t.CollKind == value.KNull || v.K == t.CollKind)
		for i := 0; ok && i < len(v.Elems); i++ {
			if err := checkDomain(t.Elem, v.Elems[i]); err != nil {
				return err
			}
		}
	case types.Tuple:
		ok = v.K == value.KTuple
		if t.IsObject {
			ok = v.K == value.KOID
		}
	}
	if !ok {
		return fmt.Errorf("%s %s is not a value of %s", v.K, v, t)
	}
	return nil
}

// SetObject stores an object value under an OID.
func (db *DB) SetObject(oid int64, v value.Value) { db.Objects[oid] = v }

// ResetCounters zeroes the work counters.
func (db *DB) ResetCounters() { db.Count = Counters{} }

// env binds FIX/LET names to evaluated relations during evaluation.
type env map[string]*Relation

func (e env) clone() env {
	ne := env{}
	for k, v := range e {
		ne[k] = v
	}
	return ne
}

// EvalCtx evaluates a relational LERA term under a cancellation context
// and the DB's Limits. Cancellation is checked amortized in the row hot
// loops (every guardTickInterval rows) and at every fixpoint round; the
// row budget is charged wherever an operator materializes its output.
func (db *DB) EvalCtx(ctx context.Context, t *term.Term) (*Relation, error) {
	prev := db.g
	db.g = &evalGuard{ctx: ctx, lim: db.Limits, rows: &guard.Budget{}, spill: &spillState{base: db.SpillDir}}
	if w := db.Workers(); w > 1 {
		db.g.pool = &workerPool{sem: make(chan struct{}, w-1)}
	}
	if db.CollectStats {
		root := &OpStats{Op: "eval", Incl: db.Count}
		db.g.cur = root
		db.lastStats = root
		defer func(start time.Time) {
			// Close the root the same way statsExit closes an operator.
			snap := root.Incl
			root.Incl = db.Count
			root.Incl.Scanned -= snap.Scanned
			root.Incl.JoinPairs -= snap.JoinPairs
			root.Incl.Emitted -= snap.Emitted
			root.Incl.PredEvals -= snap.PredEvals
			root.Incl.FixIterations -= snap.FixIterations
			root.Duration = time.Since(start)
		}(time.Now())
	}
	defer func() {
		db.lastRowsCharged = int64(db.g.rows.Rows())
		db.lastMemPeak = db.g.rows.MemPeak()
		// Spill files are evaluation-scoped scratch: this unwind runs on
		// success, error, cancellation and panic alike, which is what makes
		// "no temp files after drain" hold — the server's drain just waits
		// for in-flight evaluations to finish unwinding.
		db.g.spill.cleanup()
		db.g = prev
	}()
	return db.eval(t, env{})
}

// LastRowsCharged reports the rows charged against the budget by the
// most recent EvalCtx call — the shared Budget total, so parallel
// workers are all accounted for.
func (db *DB) LastRowsCharged() int64 { return db.lastRowsCharged }

// LastMemPeak reports the tracked-memory high-water mark of the most
// recent EvalCtx call, across all workers. Zero when the memory governor
// was off.
func (db *DB) LastMemPeak() int64 { return db.lastMemPeak }

// eval dispatches one operator evaluation, wrapping it in a per-operator
// stats frame when collection is on. The disabled path is the g.cur nil
// check and a direct call — no allocation, no time syscall.
func (db *DB) eval(t *term.Term, e env) (*Relation, error) {
	if g := db.g; g != nil && g.cur != nil && t.Kind == term.Fun {
		node, parent := db.statsEnter(t.Functor)
		start := time.Now()
		out, err := db.evalOp(t, e)
		db.statsExit(node, parent, start, out)
		return out, err
	}
	return db.evalOp(t, e)
}

// evalOpHook, when set, may claim a DB's data-moving operators: it
// reports false for a DB it leaves to the engine. It is nil in the
// product; the engine's tests set it to run the semantics-only reference
// evaluator (reference_test.go) on the forks they register.
var evalOpHook func(db *DB, t *term.Term, e env) (*Relation, bool, error)

// evalOp dispatches one operator. REL, LET and FIX are pure control flow
// (their recursive eval calls re-dispatch); the data-moving operators
// route to the batched implementations (batch.go, batchsearch.go).
func (db *DB) evalOp(t *term.Term, e env) (*Relation, error) {
	if t.Kind != term.Fun {
		return nil, fmt.Errorf("engine: cannot evaluate %s", t)
	}
	switch t.Functor {
	case "REL":
		name := strings.ToUpper(t.Args[0].Val.S)
		if name == strings.ToUpper(deltaName) {
			db.setStatsDetail("(delta)")
		} else {
			db.setStatsDetail(name)
		}
		if r, ok := e[name]; ok {
			return r, nil
		}
		if r, ok := db.rels[name]; ok {
			db.Count.Scanned += len(r.Rows)
			return r, nil
		}
		if v, ok := db.Cat.View(name); ok {
			return db.eval(v.Def, e)
		}
		return nil, fmt.Errorf("engine: unknown relation %q", name)

	case "LET":
		def, err := db.eval(t.Args[1], e)
		if err != nil {
			return nil, err
		}
		inner := e.clone()
		inner[strings.ToUpper(t.Args[0].Val.S)] = def
		return db.eval(t.Args[2], inner)

	case "FIX":
		return db.evalFix(t, e)
	}
	if evalOpHook != nil {
		if out, ok, err := evalOpHook(db, t, e); ok {
			return out, err
		}
	}
	return db.evalOpBatch(t, e)
}
