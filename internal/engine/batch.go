package engine

// The batched execution engine — the only engine in the product.
// Operators produce and consume row batches (DefaultBatchSize rows at a
// time) so the hot loops run tight over slices with one amortized guard
// tick, one counter update and one stats touch per batch instead of
// per-row function dispatch. Row identity uses 64-bit hashed keys with
// collision-checked buckets (hash.go) in place of rowKey strings, and
// SEARCH join build sides over stored relations come from
// the persistent index set (index.go, batchsearch.go). Selection and join
// have one evaluator: FILTER(r, q) is the SEARCH of r under q and JOIN(r,
// s, q) the SEARCH of r and s under q, each projecting every column
// (§3.1), so both take SEARCH's access paths and its work model —
// JoinPairs, PredEvals and the first error are a SEARCH's.
//
// The contract (docs/PERF.md, "Batched execution & relation indexes"):
// rows, order included, equal the semantics-only reference evaluator's
// (reference_test.go); every Counters field and the EXPLAIN ANALYZE OpStats
// tree are indistinguishable at every BatchSize, Parallelism and memory
// budget, under guard budgets and fault injection alike, and equal the
// goldens in testdata/engine_corpus.golden. Counters therefore keep a
// *logical* work model — e.g. REL accounts Scanned on every stored access
// even when a warm index means no physical rescan happens.

import (
	"fmt"

	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/value"
)

// DefaultBatchSize is the row-batch granularity of the batched engine
// when DB.BatchSize is zero.
const DefaultBatchSize = 1024

// batchSize returns the effective batch granularity.
func (db *DB) batchSize() int {
	if db.BatchSize > 0 {
		return db.BatchSize
	}
	return DefaultBatchSize
}

// tickRows is the batched form of tickRow: it advances the amortized
// cancellation tick by n rows at once and consults the context only when
// a guardTickInterval boundary is crossed — the same tick total as n
// tickRow calls, one branch per batch.
func (db *DB) tickRows(n int) error {
	g := db.g
	if g == nil || n <= 0 {
		return nil
	}
	before := g.tick
	g.tick += n
	if before/guardTickInterval == g.tick/guardTickInterval {
		return nil
	}
	return guard.CheckCtx(g.ctx)
}

// rowArena amortizes output-row allocation: rows are carved out of shared
// blocks with full-capacity slicing, so an append on a returned row can
// never alias the next one. Blocks grow geometrically to
// arenaMaxBlockValues from a first block of arenaMinBlockValues — or of
// the owner's estimate of the whole output (sizedArena), when that is
// smaller — so the thousands of tiny evaluations a fixpoint performs don't
// each zero a block they will never fill, while large scans still amortize
// to one allocation per ~8k values. One arena per worker chunk — never
// shared across goroutines. When db is set, block allocations are charged
// to the evaluation's tracked-memory account (arena rows live on as
// operator output, so the charge is never released within the evaluation
// — a safe overestimate for the peak gauge, and never part of any
// spill/fail decision).
type rowArena struct {
	buf  []value.Value
	next int // values in the next block; 0 = arenaMinBlockValues
	db   *DB
}

// Arena block growth bounds, in values (not rows).
const (
	arenaMinBlockValues = 64
	arenaMaxBlockValues = 8192
)

// sizedArena returns an arena whose first block holds est values when
// that is less than arenaMinBlockValues.
func sizedArena(db *DB, est int) rowArena {
	if est > arenaMinBlockValues {
		est = arenaMinBlockValues
	}
	return rowArena{db: db, next: est}
}

// alloc returns a zeroed row of n values from the arena.
func (a *rowArena) alloc(n int) []value.Value {
	if n == 0 {
		return nil
	}
	if len(a.buf)+n > cap(a.buf) {
		blk := a.next
		if blk == 0 {
			blk = arenaMinBlockValues
		}
		if blk > arenaMaxBlockValues {
			blk = arenaMaxBlockValues
		}
		if blk < n {
			blk = n
		}
		a.next = blk * 2
		a.buf = make([]value.Value, 0, blk)
		if a.db != nil {
			a.db.chargeMem(int64(blk) * valueSelfBytes)
		}
	}
	s := len(a.buf)
	a.buf = a.buf[:s+n]
	return a.buf[s : s+n : s+n]
}

// evalOpBatch dispatches the data-moving operators to their batched
// implementations; FILTER and JOIN are SEARCHes (searchParts).
func (db *DB) evalOpBatch(t *term.Term, e env) (*Relation, error) {
	switch t.Functor {
	case "SEARCH", "FILTER", "JOIN":
		return db.evalSearchBatch(t, e)
	case "UNIONN":
		return db.evalUnionBatch(t, e)
	case "INTERN":
		return db.evalInterBatch(t, e)
	case "DIFF":
		return db.evalDiffBatch(t, e)
	case "NEST":
		return db.evalNestBatch(t, e)
	case "UNNEST":
		return db.evalUnnestBatch(t, e)
	}
	return nil, fmt.Errorf("engine: unknown operator %s", t.Functor)
}

func (db *DB) evalUnionBatch(t *term.Term, e env) (*Relation, error) {
	rels := make([]*Relation, len(t.Args[0].Args))
	if err := db.evalMembers(t.Args[0].Args, e, rels); err != nil {
		return nil, err
	}
	out := &Relation{}
	total := 0
	for _, r := range rels {
		total += len(r.Rows)
	}
	rows := make([][]value.Value, 0, total)
	for _, r := range rels {
		if out.Width == 0 {
			out.Width = r.Arity()
		}
		rows = append(rows, r.Rows...)
	}
	var err error
	out.Rows, err = db.dedupRows(rows)
	if err != nil {
		return nil, err
	}
	db.Count.Emitted += len(out.Rows)
	if err := db.chargeRows(len(out.Rows)); err != nil {
		return nil, err
	}
	return out, nil
}

func (db *DB) evalInterBatch(t *term.Term, e env) (*Relation, error) {
	members := t.Args[0].Args
	if len(members) == 0 {
		return nil, fmt.Errorf("engine: empty intersection")
	}
	acc, err := db.eval(members[0], e)
	if err != nil {
		return nil, err
	}
	keys := db.newMemSet("intersection key-set")
	defer func() { keys.close() }()
	for _, row := range acc.Rows {
		if _, err := keys.add(row); err != nil {
			return nil, err
		}
	}
	for _, m := range members[1:] {
		r, err := db.eval(m, e)
		if err != nil {
			return nil, err
		}
		next := db.newMemSet("intersection key-set")
		for _, row := range r.Rows {
			ok, err := keys.has(row)
			if err != nil {
				next.close()
				return nil, err
			}
			if !ok {
				continue
			}
			if _, err := next.add(row); err != nil {
				next.close()
				return nil, err
			}
		}
		keys.close()
		keys = next
	}
	out := &Relation{Width: acc.Arity()}
	seen := db.newMemSet("intersection seen-set")
	defer seen.close()
	for _, row := range acc.Rows {
		ok, err := keys.has(row)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		added, err := seen.add(row)
		if err != nil {
			return nil, err
		}
		if added {
			out.Rows = append(out.Rows, row)
		}
	}
	db.Count.Emitted += len(out.Rows)
	if err := db.chargeRows(len(out.Rows)); err != nil {
		return nil, err
	}
	return out, nil
}

func (db *DB) evalDiffBatch(t *term.Term, e env) (*Relation, error) {
	left, err := db.eval(t.Args[0], e)
	if err != nil {
		return nil, err
	}
	right, err := db.eval(t.Args[1], e)
	if err != nil {
		return nil, err
	}
	drop := db.newMemSet("difference drop-set")
	defer drop.close()
	for _, row := range right.Rows {
		if _, err := drop.add(row); err != nil {
			return nil, err
		}
	}
	out := &Relation{Width: left.Arity()}
	seen := db.newMemSet("difference seen-set")
	defer seen.close()
	for _, row := range left.Rows {
		dropped, err := drop.has(row)
		if err != nil {
			return nil, err
		}
		if dropped {
			continue
		}
		added, err := seen.add(row)
		if err != nil {
			return nil, err
		}
		if added {
			out.Rows = append(out.Rows, row)
		}
	}
	db.Count.Emitted += len(out.Rows)
	if err := db.chargeRows(len(out.Rows)); err != nil {
		return nil, err
	}
	return out, nil
}

// nestIndices reads NEST's column list, 1-based integer constants, and
// returns it with its largest entry (0 for an empty list).
func nestIndices(t *term.Term) ([]int, int, error) {
	idx := make([]int, len(t.Args[1].Args))
	hi := 0
	for i, ix := range t.Args[1].Args {
		j, ok := lera.IntConst(ix)
		if !ok || j < 1 {
			return nil, 0, fmt.Errorf("engine: NEST index %s is not a column number", ix)
		}
		idx[i] = j
		hi = max(hi, j)
	}
	return idx, hi, nil
}

func (db *DB) evalNestBatch(t *term.Term, e env) (*Relation, error) {
	in, err := db.eval(t.Args[0], e)
	if err != nil {
		return nil, err
	}
	nestedIdx, maxIdx, err := nestIndices(t)
	if err != nil {
		return nil, err
	}
	nested := map[int]bool{}
	for _, j := range nestedIdx {
		nested[j] = true
	}
	// A multi-column NEST collects tuples whose field names depend only on
	// the column list: build them once and share them across every row.
	var names []string
	if len(nestedIdx) > 1 {
		names = make([]string, len(nestedIdx))
		for i, j := range nestedIdx {
			names[i] = fmt.Sprintf("a%d", j)
		}
	}
	type nestGroup struct {
		key   []value.Value
		elems []value.Value
	}
	var order []*nestGroup
	buckets := map[uint64][]*nestGroup{}
	var keyScratch []value.Value
	for _, row := range in.Rows {
		if maxIdx > len(row) {
			return nil, fmt.Errorf("engine: NEST index out of range for row of width %d", len(row))
		}
		keyScratch = keyScratch[:0]
		for j := 1; j <= len(row); j++ {
			if !nested[j] {
				keyScratch = append(keyScratch, row[j-1])
			}
		}
		var elem value.Value
		if len(nestedIdx) == 1 {
			elem = row[nestedIdx[0]-1]
		} else {
			vals := make([]value.Value, len(nestedIdx))
			for i, j := range nestedIdx {
				vals[i] = row[j-1]
			}
			elem = value.NewTupleNamed(names, vals)
		}
		h := hashRowFn(keyScratch)
		var g *nestGroup
		for _, cand := range buckets[h] {
			if rowKeyEq(cand.key, keyScratch) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &nestGroup{key: append([]value.Value(nil), keyScratch...)}
			buckets[h] = append(buckets[h], g)
			order = append(order, g)
		}
		g.elems = append(g.elems, elem)
	}
	out := &Relation{}
	if w := in.Arity(); w > 0 {
		out.Width = w - len(nestedIdx) + 1
	}
	for _, g := range order {
		out.Rows = append(out.Rows, append(append([]value.Value(nil), g.key...), value.NewSet(g.elems...)))
	}
	db.Count.Emitted += len(out.Rows)
	if err := db.chargeRows(len(out.Rows)); err != nil {
		return nil, err
	}
	return out, nil
}

func (db *DB) evalUnnestBatch(t *term.Term, e env) (*Relation, error) {
	in, err := db.eval(t.Args[0], e)
	if err != nil {
		return nil, err
	}
	j, ok := lera.IntConst(t.Args[1])
	if !ok {
		return nil, fmt.Errorf("engine: UNNEST index %s is not an integer", t.Args[1])
	}
	out := &Relation{Width: in.Arity()}
	bs := db.batchSize()
	rows := in.Rows
	for len(rows) > 0 {
		batch := rows
		if len(batch) > bs {
			batch = batch[:bs]
		}
		rows = rows[len(batch):]
		if err := db.tickRows(len(batch)); err != nil {
			return nil, err
		}
		for _, row := range batch {
			if j < 1 || j > len(row) {
				return nil, fmt.Errorf("engine: UNNEST index %d out of range", j)
			}
			coll := row[j-1]
			if !coll.K.IsCollection() {
				return nil, fmt.Errorf("engine: UNNEST column %d is %s, not a collection", j, coll.K)
			}
			for _, el := range coll.Elems {
				nrow := append([]value.Value(nil), row...)
				nrow[j-1] = el
				out.Rows = append(out.Rows, nrow)
			}
		}
	}
	out.Rows, err = db.dedupRows(out.Rows)
	if err != nil {
		return nil, err
	}
	db.Count.Emitted += len(out.Rows)
	if err := db.chargeRows(len(out.Rows)); err != nil {
		return nil, err
	}
	return out, nil
}
