// Package plancache is a bounded, concurrency-safe LRU of rewritten
// LERA plans. Entries are keyed by the memoized structural hash of the
// templatized query term and guarded by an environment string that
// folds in everything else the rewrite output depends on — the rule
// base fingerprint, the rewrite-relevant session knobs, and the catalog
// schema version (plus the data version when planning hints are on).
// A lookup whose environment no longer matches drops the entry and
// reports it as an invalidation, so rule-base or catalog changes can
// never serve a stale plan.
//
// Templates are structural only (constants live in the per-request
// binding vector, see template.go), so a shared cache never leaks rows
// or bindings between the sessions of a fork pool.
//
// The cache is defensive about templatization soundness: a template
// whose rewritten plan fails the store-time round-trip check
// (Substitute(rewrite(template)) must equal rewrite(query) on the
// triggering binding) is remembered in a bounded reject set, and such
// queries fall back to exact-term caching.
package plancache

import (
	"container/list"
	"fmt"
	"sync"

	"lera/internal/term"
)

// rejectedCap bounds the reject set; when full it is reset (the cost is
// re-deriving a rejection, never a wrong plan).
const rejectedCap = 4096

// Status classifies one cache lookup.
type Status int

const (
	// Miss: no entry for this template in the current environment.
	Miss Status = iota
	// Hit: the cached plan was returned.
	Hit
	// Stale: an entry existed but its environment no longer matches; it
	// was dropped and counted as an invalidation (the lookup is a miss).
	Stale
)

// Outcome is the per-query cache record surfaced on core.Result: what
// the cache did for one SELECT. The core layer publishes it to the
// lera_plancache_* metrics and EXPLAIN renders it.
type Outcome struct {
	Hit              bool   // plan served from cache
	Rejected         bool   // template failed validation; exact entry used
	Invalidated      bool   // a stale or failing entry was dropped
	Evicted          int    // entries evicted by this store
	Validated        bool   // hit was re-checked against a cold rewrite
	ValidationFailed bool   // the re-check disagreed (entry dropped)
	TemplateHash     uint64 // structural hash of the template
	NParams          int    // lifted constants in the binding vector
}

// Describe renders the outcome as "state (template 0x…, N params)",
// state being the word hit for a hit and miss otherwise; the clause also
// names an exact-key fallback and a validated hit. EXPLAIN's plan: line
// and edsql's cache line both print it.
func (o *Outcome) Describe(hit, miss string) string {
	state := miss
	if o.Hit {
		state = hit
	}
	s := fmt.Sprintf("%s (template 0x%016x, %d params", state, o.TemplateHash, o.NParams)
	if o.Rejected {
		s += ", exact-key fallback"
	}
	if o.Validated {
		s += ", validated"
	}
	return s + ")"
}

// Stats is a point-in-time snapshot of cache counters (see \cache).
type Stats struct {
	Hits               uint64
	Misses             uint64
	Evictions          uint64
	Invalidations      uint64
	ValidationFailures uint64
	Rejections         uint64
	Entries            int
	Capacity           int
}

type entry struct {
	key      uint64 // template structural hash
	template *term.Term
	plan     *term.Term
	nparams  int
	env      string
	hits     uint64
}

// Cache is the bounded LRU. The zero value is not usable; construct
// with New. All methods are safe for concurrent use.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	idx      map[uint64]*list.Element
	rejected map[uint64]struct{}
	stats    Stats
}

// New returns a cache bounded to capacity entries (minimum 1).
func New(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		idx:      make(map[uint64]*list.Element),
		rejected: make(map[uint64]struct{}),
	}
}

// Lookup finds the entry for tmpl in environment env. On Hit it returns
// the cached plan (immutable — safe to share), its parameter count and
// the entry's hit ordinal (1 for the first hit; the caller uses it for
// sampled re-validation). A hash collision with a different template is
// treated as a miss. An entry whose environment differs is dropped and
// reported Stale.
func (c *Cache) Lookup(tmpl *term.Term, env string) (plan *term.Term, nparams int, hitOrdinal uint64, st Status) {
	key := tmpl.Hash()
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[key]
	if !ok {
		c.stats.Misses++
		return nil, 0, 0, Miss
	}
	e := el.Value.(*entry)
	if e.env != env {
		c.removeLocked(el)
		c.stats.Invalidations++
		c.stats.Misses++
		return nil, 0, 0, Stale
	}
	if !term.Equal(e.template, tmpl) {
		c.stats.Misses++
		return nil, 0, 0, Miss
	}
	c.ll.MoveToFront(el)
	e.hits++
	c.stats.Hits++
	return e.plan, e.nparams, e.hits, Hit
}

// Peek is a read-only probe (plain EXPLAIN uses it): it reports what a
// Lookup would return without counting a hit or miss, moving the entry
// in LRU order, or dropping a stale entry.
func (c *Cache) Peek(tmpl *term.Term, env string) (plan *term.Term, nparams int, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, present := c.idx[tmpl.Hash()]
	if !present {
		return nil, 0, false
	}
	e := el.Value.(*entry)
	if e.env != env || !term.Equal(e.template, tmpl) {
		return nil, 0, false
	}
	return e.plan, e.nparams, true
}

// Store inserts (or replaces) the entry for tmpl and returns how many
// entries were evicted to stay within capacity.
func (c *Cache) Store(tmpl, plan *term.Term, nparams int, env string) (evicted int) {
	key := tmpl.Hash()
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[key]; ok {
		e := el.Value.(*entry)
		e.template, e.plan, e.nparams, e.env, e.hits = tmpl, plan, nparams, env, 0
		c.ll.MoveToFront(el)
		return 0
	}
	c.idx[key] = c.ll.PushFront(&entry{key: key, template: tmpl, plan: plan, nparams: nparams, env: env})
	for c.ll.Len() > c.capacity {
		c.removeLocked(c.ll.Back())
		c.stats.Evictions++
		evicted++
	}
	return evicted
}

// FailValidation drops the entry for tmpl after a sampled hit
// re-validation disagreed with a cold rewrite, counting both a
// validation failure and an invalidation.
func (c *Cache) FailValidation(tmpl *term.Term) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[tmpl.Hash()]; ok {
		c.removeLocked(el)
	}
	c.stats.ValidationFailures++
	c.stats.Invalidations++
}

// Reject marks a template hash as not safely templatizable; subsequent
// queries with this shape use exact-term entries instead.
func (c *Cache) Reject(key uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.rejected) >= rejectedCap {
		c.rejected = make(map[uint64]struct{})
	}
	c.rejected[key] = struct{}{}
	c.stats.Rejections++
}

// Rejected reports whether a template hash has been rejected.
func (c *Cache) Rejected(key uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.rejected[key]
	return ok
}

// Clear empties the cache and the reject set, returning how many plan
// entries were dropped. Counters are preserved (they are cumulative).
func (c *Cache) Clear() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.ll.Len()
	c.ll.Init()
	c.idx = make(map[uint64]*list.Element)
	c.rejected = make(map[uint64]struct{})
	return n
}

// Snapshot returns the cumulative counters plus current size/capacity.
func (c *Cache) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	s.Capacity = c.capacity
	return s
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.idx, e.key)
}
