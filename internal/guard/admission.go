package guard

// Admission control: a Gate bounds the number of queries in flight and
// the number allowed to wait for a slot. Work beyond both bounds is shed
// immediately with the typed ErrOverloaded — bounded queueing instead of
// unbounded backlog is what keeps an overloaded server's tail latency
// finite and its memory flat. The Gate is also the drain point: once
// draining, every Acquire fails fast with ErrDraining and Drain blocks
// until the in-flight count reaches zero (or its context expires), which
// is exactly the "stop accepting, finish what you started" half of a
// graceful shutdown.

import (
	"context"
	"sync"
)

// Gate is a bounded admission gate. The zero value is not usable; build
// one with NewGate. Safe for concurrent use.
type Gate struct {
	mu       sync.Mutex
	idle     *sync.Cond // signalled when inFlight drops or drain starts
	slots    chan struct{}
	maxQueue int
	queued   int
	inFlight int
	draining bool
	drainCh  chan struct{} // closed when draining starts
}

// NewGate builds a gate admitting at most maxInFlight concurrent holders
// with at most maxQueue callers waiting for a slot. maxInFlight < 1 is
// treated as 1; maxQueue < 0 as 0 (no waiting: every acquire beyond the
// in-flight bound sheds).
func NewGate(maxInFlight, maxQueue int) *Gate {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	g := &Gate{
		slots:    make(chan struct{}, maxInFlight),
		maxQueue: maxQueue,
		drainCh:  make(chan struct{}),
	}
	g.idle = sync.NewCond(&g.mu)
	return g
}

// Acquire claims an execution slot, waiting in the bounded queue when all
// slots are busy. It returns a release function that must be called
// exactly once when the work finishes. Typed failures:
//
//   - ErrOverloaded — all slots busy and the wait queue is full; the
//     caller was shed without waiting.
//   - ErrDraining — the gate is draining; no new work is admitted.
//   - the context's error (via CheckCtx: ErrDeadline for an expired
//     deadline) — the caller gave up while queued.
func (g *Gate) Acquire(ctx context.Context) (release func(), err error) {
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		return nil, ErrDraining
	}
	// Fast path: a free slot, no waiting.
	select {
	case g.slots <- struct{}{}:
		g.inFlight++
		g.mu.Unlock()
		return g.releaseFunc(), nil
	default:
	}
	if g.queued >= g.maxQueue {
		g.mu.Unlock()
		return nil, ErrOverloaded
	}
	g.queued++
	g.mu.Unlock()

	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case g.slots <- struct{}{}:
		g.mu.Lock()
		g.queued--
		// A drain that started while we were queued wins: the slot is
		// returned and the caller is refused, so Drain never waits on
		// work that was admitted after it began.
		if g.draining {
			<-g.slots
			g.mu.Unlock()
			return nil, ErrDraining
		}
		g.inFlight++
		g.mu.Unlock()
		return g.releaseFunc(), nil
	case <-g.drainCh:
		g.mu.Lock()
		g.queued--
		g.mu.Unlock()
		return nil, ErrDraining
	case <-done:
		g.mu.Lock()
		g.queued--
		g.mu.Unlock()
		return nil, CheckCtx(ctx)
	}
}

// releaseFunc returns the one-shot slot release. Callers hold no lock.
// The holder is uncounted before its slot frees, so a waiter that takes
// the slot is never counted beside it: InFlight stays within the bound.
// The receive cannot block — the holder's own token is in the channel.
func (g *Gate) releaseFunc() func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.inFlight--
			<-g.slots
			g.idle.Broadcast()
			g.mu.Unlock()
		})
	}
}

// InFlight reports the number of currently admitted holders.
func (g *Gate) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inFlight
}

// Queued reports the number of callers waiting for a slot.
func (g *Gate) Queued() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.queued
}

// Drain switches the gate into drain mode — every subsequent or queued
// Acquire fails with ErrDraining — and blocks until all in-flight work
// has released or ctx is done. It returns nil when the gate emptied and
// the (typed) context error when the drain deadline fired first; the
// number still in flight at return is InFlight(). Drain is idempotent.
func (g *Gate) Drain(ctx context.Context) error {
	g.mu.Lock()
	if !g.draining {
		g.draining = true
		close(g.drainCh)
	}
	g.mu.Unlock()

	// Wake the cond waiter when the context dies: Cond has no native
	// context support, so a helper goroutine broadcasts on expiry.
	stop := make(chan struct{})
	defer close(stop)
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				g.mu.Lock()
				g.idle.Broadcast()
				g.mu.Unlock()
			case <-stop:
			}
		}()
	}

	g.mu.Lock()
	defer g.mu.Unlock()
	for g.inFlight > 0 {
		if err := CheckCtx(ctx); err != nil {
			return err
		}
		g.idle.Wait()
	}
	return nil
}
