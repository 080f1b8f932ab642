package engine

// Persistent per-relation hash indexes. The batched SEARCH builds its
// join build sides as joinIndex structures (hash.go); when the build side
// is a stored relation — a REL term resolving to db.rels, not shadowed by
// a LET/FIX binding and not a view — the index is kept in a set shared by
// every fork of the database, so repeated evaluations (plan-cache hits,
// fixpoint rounds joining against a stored relation, a server fork pool
// running the same shapes) stop rebuilding the hash table per query.
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
	"strconv"
	"strings"
	"sync"

	"lera/internal/value"
)

// storedIndex is one cached index with its validity stamp.
type storedIndex struct {
	version uint64 // catalog data version at build time
	nrows   int    // stored row count at build time
	idx     *joinIndex
}

// indexSet is the shared, concurrency-safe index collection.
type indexSet struct {
	mu sync.RWMutex
	m  map[string]*storedIndex
}

func newIndexSet() *indexSet { return &indexSet{m: map[string]*storedIndex{}} }

// indexSetKey names one (relation, key columns) index. The NUL separator
// cannot occur in a relation name, so names never alias.
func indexSetKey(name string, keyIdx []int) string {
	var sb strings.Builder
	sb.Grow(len(name) + 4*len(keyIdx))
	sb.WriteString(name)
	for _, k := range keyIdx {
		sb.WriteByte(0)
		sb.WriteString(strconv.Itoa(k))
	}
	return sb.String()
}

// acquire returns a warm index for (name, keyIdx) when one is cached and
// still valid, building and caching a fresh one otherwise.
func (s *indexSet) acquire(version uint64, name string, rows [][]value.Value, keyIdx []int) *joinIndex {
	k := indexSetKey(name, keyIdx)
	s.mu.RLock()
	e := s.m[k]
	s.mu.RUnlock()
	if e != nil && e.version == version && e.nrows == len(rows) {
		return e.idx
	}
	ix := buildJoinIndex(rows, keyIdx)
	s.mu.Lock()
	s.m[k] = &storedIndex{version: version, nrows: len(rows), idx: ix}
	s.mu.Unlock()
	return ix
}

// invalidate drops every cached index of the named relation (the name is
// already uppercased by Load/Insert).
func (s *indexSet) invalidate(name string) {
	s.mu.Lock()
	for k := range s.m {
		if k == name || strings.HasPrefix(k, name+"\x00") {
			delete(s.m, k)
		}
	}
	s.mu.Unlock()
}

// lookup returns the cached entry for (name, keyIdx) without validation —
// a white-box hook for the invalidation tests.
func (s *indexSet) lookup(name string, keyIdx []int) *storedIndex {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[indexSetKey(name, keyIdx)]
}

// size returns the number of cached indexes.
func (s *indexSet) size() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}
