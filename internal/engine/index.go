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
// Counters are unaffected by index reuse: REL evaluation still accounts
// Scanned for every stored access, so a warm index changes wall-clock and
// allocations, never the logical work model.

import (
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
	mu sync.RWMutex
	m  map[string][]*storedIndex
}

func newIndexSet() *indexSet { return &indexSet{m: map[string][]*storedIndex{}} }

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
	s.mu.Unlock()
}

// lookup returns the cached entry for (name, keyIdx) without validation.
func (s *indexSet) lookup(name string, keyIdx []int) *storedIndex {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, _ := findIndex(s.m[name], keyIdx)
	return e
}

// size returns the number of cached indexes.
func (s *indexSet) size() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, list := range s.m {
		n += len(list)
	}
	return n
}
