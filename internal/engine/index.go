package engine

// Persistent per-relation hash indexes. The batched SEARCH joins through
// joinIndex structures (hash.go); when the indexed side is a stored
// relation — a REL term resolving to db.rels, not shadowed by a LET/FIX
// binding and not a view — the index is kept in a set shared by every fork
// of the database, so repeated evaluations (plan-cache hits, fixpoint
// rounds joining against a stored relation, a server fork pool running the
// same shapes) stop rebuilding the hash table per query. An index answers
// a probe with one run of rows and, beside each, its ordinal in the
// relation, so it serves either side of a join: as the build side a
// prefix row probes, and — when the stored relation is the unfiltered
// first relation of a SEARCH and the other input is smaller — as the side
// the other input's rows drive through (docs/PERF.md, "Delta-driven
// rounds"): a semi-naive round then costs its delta, not the relation.
//
// Lifecycle (docs/PERF.md "Batched execution & relation indexes"):
//   - built lazily on first keyed access to a (relation, key columns)
//     pair;
//   - validated on every acquire against the catalog's data version
//     (bumped by Load/Insert on declared relations) plus the stored row
//     count, and dropped explicitly by Load/Insert on the loaded name —
//     the belt-and-braces path that also covers relations the catalog
//     does not declare;
//   - shared across Fork() under an RWMutex: concurrent read-only forks
//     (the server pool) probe warm indexes without rebuilding, and a
//     racing first access builds twice with the last store winning.
//
// Beside the join indexes the set keeps, per (relation, column), one
// sorted column index (sortedIndex): the access path through which stage 1
// of a SEARCH reads only the rows its leading comparisons select
// (indexscan.go), and the fact that the column holds no two equal cells,
// through which a SEARCH projecting it skips its dedup pass
// (batchsearch.go). It has the same lifecycle, is kept apart from a join
// index on the same column, and like the join indexes is not charged to
// the memory grant.
//
// Counters are unaffected by index reuse: REL evaluation still accounts
// Scanned for every stored access, so a warm index changes wall-clock and
// allocations, never the logical work model.

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"lera/internal/value"
)

// storedIndex is one cached index (its key columns are idx.keyIdx) with
// its validity stamp.
type storedIndex struct {
	version uint64 // catalog data version at build time
	nrows   int    // stored row count at build time
	idx     *joinIndex
}

// indexSet is the shared, concurrency-safe index collection: per relation
// name, one index per key-column list ever joined on — a handful, found by
// a scan that allocates nothing (a semi-naive round acquires one per
// recursive member).
type indexSet struct {
	mu     sync.RWMutex
	m      map[string][]*storedIndex
	sorted map[sortedKey]*sortedIndex
}

// sortedKey names a sorted column index: a relation and a 0-based column.
type sortedKey struct {
	rel string
	col int
}

func newIndexSet() *indexSet {
	return &indexSet{m: map[string][]*storedIndex{}, sorted: map[sortedKey]*sortedIndex{}}
}

// findIndex returns the entry of list keyed on keyIdx, and its position.
func findIndex(list []*storedIndex, keyIdx []int) (*storedIndex, int) {
	for i, e := range list {
		if slices.Equal(e.idx.keyIdx, keyIdx) {
			return e, i
		}
	}
	return nil, -1
}

// acquire returns a warm index for (name, keyIdx) when one is cached and
// still valid, building and caching a fresh one otherwise.
func (s *indexSet) acquire(version uint64, name string, rows [][]value.Value, keyIdx []int) *joinIndex {
	if e := s.lookup(name, keyIdx); e != nil && e.version == version && e.nrows == len(rows) {
		return e.idx
	}
	fresh := &storedIndex{version: version, nrows: len(rows), idx: buildJoinIndex(rows, keyIdx)}
	s.mu.Lock()
	if _, i := findIndex(s.m[name], keyIdx); i >= 0 {
		s.m[name][i] = fresh
	} else {
		s.m[name] = append(s.m[name], fresh)
	}
	s.mu.Unlock()
	return fresh.idx
}

// invalidate drops every cached index of the named relation (the name is
// already uppercased by Load/Insert).
func (s *indexSet) invalidate(name string) {
	s.mu.Lock()
	delete(s.m, name)
	for k := range s.sorted {
		if k.rel == name {
			delete(s.sorted, k)
		}
	}
	s.mu.Unlock()
}

// acquireSorted returns a warm sorted index of column col of the named
// relation when one is cached and still valid, building and caching a
// fresh one otherwise — stamped and replaced exactly like a join index.
// colName names the column in the index's label ("" when undeclared).
func (s *indexSet) acquireSorted(version uint64, name string, rows [][]value.Value, col int, colName string) *sortedIndex {
	key := sortedKey{name, col}
	s.mu.RLock()
	ix := s.sorted[key]
	s.mu.RUnlock()
	if ix != nil && ix.version == version && len(ix.rows) == len(rows) {
		return ix
	}
	ix = buildSortedIndex(rows, col)
	ix.version, ix.label = version, name+"."+colName
	if colName == "" {
		ix.label = fmt.Sprintf("%s.%d", name, col+1)
	}
	s.mu.Lock()
	s.sorted[key] = ix
	s.mu.Unlock()
	return ix
}

// lookup returns the cached entry for (name, keyIdx) without validation.
func (s *indexSet) lookup(name string, keyIdx []int) *storedIndex {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, _ := findIndex(s.m[name], keyIdx)
	return e
}

// size returns the number of cached join indexes.
func (s *indexSet) size() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, list := range s.m {
		n += len(list)
	}
	return n
}

// sortedIndex orders a stored relation's rows by one column: ord holds the
// row ordinals sorted stably by value.CompareRef of the cell, so that the
// rows a comparison of the column against a constant selects are one span
// of ord, and a span of cells equal under CompareRef lists its ordinals in
// ascending order. It serves only a column whose order is total: every
// cell of one kind, KInt, KString, or KReal without NaN (a column or a
// constant holding NaN is left to the scan). kind records that kind; KNull
// marks a column that has none, and such an index holds no ordinals.
//
// distinct records that no two cells of a KInt or KString column are equal:
// no two neighbours in ord compare equal. For these kinds cells that
// CompareRef orders apart have different dedup keys (valueKeyEq), so a
// SEARCH projecting the column as is cannot emit a duplicate row
// (batchsearch.go). Reals and every other kind get no fact.
type sortedIndex struct {
	version  uint64 // catalog data version at build time
	label    string // relation.column, for EXPLAIN ANALYZE
	rows     [][]value.Value
	col      int
	kind     value.Kind
	ord      []int32
	distinct bool
}

func buildSortedIndex(rows [][]value.Value, col int) *sortedIndex {
	ix := &sortedIndex{rows: rows, col: col, kind: columnKind(rows, col)}
	if ix.kind == value.KNull {
		return ix
	}
	ix.ord = make([]int32, len(rows))
	for i := range ix.ord {
		ix.ord[i] = int32(i)
	}
	slices.SortStableFunc(ix.ord, func(a, b int32) int {
		return value.CompareRef(&rows[a][col], &rows[b][col])
	})
	if ix.kind == value.KInt || ix.kind == value.KString {
		ix.distinct = true
		for i := 1; i < len(ix.ord) && ix.distinct; i++ {
			ix.distinct = value.CompareRef(&rows[ix.ord[i-1]][col], &rows[ix.ord[i]][col]) != 0
		}
	}
	return ix
}

// columnKind returns the one kind of column col's cells when CompareRef
// orders them totally, KNull otherwise (or when a row is too short).
func columnKind(rows [][]value.Value, col int) value.Kind {
	if len(rows) == 0 || len(rows[0]) <= col {
		return value.KNull
	}
	k := rows[0][col].K
	if k != value.KInt && k != value.KString && k != value.KReal {
		return value.KNull
	}
	for _, row := range rows {
		if len(row) <= col || row[col].K != k || k == value.KReal && math.IsNaN(row[col].F()) {
			return value.KNull
		}
	}
	return k
}

// span returns the positions [lo, hi) of ord whose cells c satisfy
// CompareRef(c, v) ∈ mask (bit r+1 for outcome r). mask must be a
// contiguous set of outcomes, which those of =, <, <=, > and >= are: over
// ord the outcome never decreases, so each bound is one binary search.
func (ix *sortedIndex) span(mask uint8, v *value.Value) (lo, hi int) {
	switch {
	case mask&1 != 0:
	case mask&2 != 0:
		lo = ix.first(v, false)
	default:
		lo = ix.first(v, true)
	}
	switch {
	case mask&4 != 0:
		hi = len(ix.ord)
	case mask&2 != 0:
		hi = ix.first(v, true)
	default:
		hi = ix.first(v, false)
	}
	return lo, hi
}

// first returns the first position of ord whose cell is above v, or with
// strict false not below it.
func (ix *sortedIndex) first(v *value.Value, strict bool) int {
	lo, hi := 0, len(ix.ord)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c := value.CompareRef(&ix.rows[ix.ord[m]][ix.col], v); c > 0 || c == 0 && !strict {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}
