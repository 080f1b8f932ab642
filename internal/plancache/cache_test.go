package plancache

import (
	"fmt"
	"sync"
	"testing"

	"lera/internal/term"
)

func tm(i int) *term.Term { return term.F("T", term.Num(int64(i))) }

func TestStoreLookupHit(t *testing.T) {
	c := New[string](4)
	tmpl, plan := tm(1), tm(100)
	if _, _, _, st := c.Lookup(tmpl, "e"); st != Miss {
		t.Fatalf("empty cache lookup = %v, want Miss", st)
	}
	c.Store(tmpl, plan, 2, "e")
	got, np, ord, st := c.Lookup(tmpl, "e")
	if st != Hit || !term.Equal(got, plan) || np != 2 || ord != 1 {
		t.Fatalf("lookup = %s, %d, %d, %v", got, np, ord, st)
	}
	if _, _, ord, _ := c.Lookup(tmpl, "e"); ord != 2 {
		t.Fatalf("second hit ordinal = %d, want 2", ord)
	}
	s := c.Snapshot()
	if s.Hits != 2 || s.Misses != 1 || s.Entries != 1 || s.Capacity != 4 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New[string](2)
	c.Store(tm(1), tm(101), 0, "e")
	c.Store(tm(2), tm(102), 0, "e")
	// Touch 1 so 2 becomes least-recently-used.
	if _, _, _, st := c.Lookup(tm(1), "e"); st != Hit {
		t.Fatal("expected hit on 1")
	}
	if ev := c.Store(tm(3), tm(103), 0, "e"); ev != 1 {
		t.Fatalf("evicted = %d, want 1", ev)
	}
	if _, _, _, st := c.Lookup(tm(2), "e"); st != Miss {
		t.Fatal("2 should have been evicted")
	}
	for _, i := range []int{1, 3} {
		if _, _, _, st := c.Lookup(tm(i), "e"); st != Hit {
			t.Fatalf("%d should have survived", i)
		}
	}
	if s := c.Snapshot(); s.Evictions != 1 {
		t.Fatalf("evictions = %d", s.Evictions)
	}
}

func TestStoreReplaceKeepsOneEntry(t *testing.T) {
	c := New[string](2)
	c.Store(tm(1), tm(101), 0, "e")
	if ev := c.Store(tm(1), tm(201), 1, "e2"); ev != 0 {
		t.Fatalf("replace evicted %d", ev)
	}
	if c.Snapshot().Entries != 1 {
		t.Fatalf("len = %d", c.Snapshot().Entries)
	}
	got, np, _, st := c.Lookup(tm(1), "e2")
	if st != Hit || !term.Equal(got, tm(201)) || np != 1 {
		t.Fatalf("replaced entry lookup = %s, %d, %v", got, np, st)
	}
}

func TestEnvMismatchInvalidates(t *testing.T) {
	c := New[string](4)
	c.Store(tm(1), tm(101), 0, "rules-v1")
	if _, _, _, st := c.Lookup(tm(1), "rules-v2"); st != Stale {
		t.Fatalf("lookup under new env = %v, want Stale", st)
	}
	// The stale entry is gone: the old environment misses too.
	if _, _, _, st := c.Lookup(tm(1), "rules-v1"); st != Miss {
		t.Fatal("stale entry should have been dropped")
	}
	s := c.Snapshot()
	if s.Invalidations != 1 || s.Misses != 2 || s.Entries != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPeekIsReadOnly(t *testing.T) {
	c := New[string](2)
	c.Store(tm(1), tm(101), 3, "e")
	c.Store(tm(2), tm(102), 0, "e")
	before := c.Snapshot()
	if plan, np, ok := c.Peek(tm(1), "e"); !ok || np != 3 || !term.Equal(plan, tm(101)) {
		t.Fatalf("peek = %v %d %v", plan, np, ok)
	}
	if _, _, ok := c.Peek(tm(1), "other-env"); ok {
		t.Fatal("peek must not match a different environment")
	}
	if _, _, ok := c.Peek(tm(9), "e"); ok {
		t.Fatal("peek of absent entry")
	}
	if after := c.Snapshot(); after != before {
		t.Fatalf("peek mutated counters: %+v -> %+v", before, after)
	}
	// Peek must not refresh LRU order: 1 is still the oldest entry.
	c.Store(tm(3), tm(103), 0, "e")
	if _, _, _, st := c.Lookup(tm(1), "e"); st != Miss {
		t.Fatal("peek refreshed LRU order; 1 should have been evicted")
	}
	// And a stale peek must not drop the entry.
	if c.Snapshot().Entries != 2 {
		t.Fatalf("len = %d", c.Snapshot().Entries)
	}
}

func TestRejectSet(t *testing.T) {
	c := New[string](2)
	if c.Rejected(42) {
		t.Fatal("fresh cache rejects nothing")
	}
	c.Reject(42)
	if !c.Rejected(42) {
		t.Fatal("rejected hash not remembered")
	}
	if s := c.Snapshot(); s.Rejections != 1 {
		t.Fatalf("rejections = %d", s.Rejections)
	}
	// The reject set is bounded: overflowing resets it rather than growing.
	for i := 0; i < rejectedCap+1; i++ {
		c.Reject(uint64(1000 + i))
	}
	if c.Rejected(42) {
		t.Fatal("reject set should have been reset at capacity")
	}
}

func TestFailValidation(t *testing.T) {
	c := New[string](4)
	c.Store(tm(1), tm(101), 0, "e")
	c.FailValidation(tm(1))
	if _, _, _, st := c.Lookup(tm(1), "e"); st != Miss {
		t.Fatal("failed entry should be gone")
	}
	s := c.Snapshot()
	if s.ValidationFailures != 1 || s.Invalidations != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestClearPreservesCounters(t *testing.T) {
	c := New[string](4)
	c.Store(tm(1), tm(101), 0, "e")
	c.Store(tm(2), tm(102), 0, "e")
	c.Lookup(tm(1), "e")
	c.Reject(7)
	if n := c.Clear(); n != 2 {
		t.Fatalf("cleared %d entries", n)
	}
	if c.Snapshot().Entries != 0 || c.Rejected(7) {
		t.Fatal("clear must drop entries and the reject set")
	}
	s := c.Snapshot()
	if s.Hits != 1 || s.Rejections != 1 {
		t.Fatalf("clear must preserve cumulative counters: %+v", s)
	}
}

func TestMinimumCapacity(t *testing.T) {
	c := New[string](0)
	c.Store(tm(1), tm(101), 0, "e")
	if _, _, _, st := c.Lookup(tm(1), "e"); st != Hit {
		t.Fatal("capacity 0 clamps to 1, entry should fit")
	}
}

// Hammer the cache from many goroutines; correctness is checked by the
// race detector plus the final entries-within-capacity invariant.
func TestConcurrentAccess(t *testing.T) {
	c := New[string](8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % 16
				env := fmt.Sprintf("e%d", i%2)
				if _, _, _, st := c.Lookup(tm(k), env); st != Hit {
					c.Store(tm(k), tm(100+k), 0, env)
				}
				c.Peek(tm(k), env)
				if i%50 == 0 {
					c.Reject(uint64(k))
					c.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Snapshot().Entries > 8 {
		t.Fatalf("len %d exceeds capacity", c.Snapshot().Entries)
	}
}
