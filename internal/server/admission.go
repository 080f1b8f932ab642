package server

// Admission control is the session pool itself: a query runs on one of
// the pool's N forked sessions, so checking one out is being admitted,
// and the pool bounds the queries in flight by N with no second counter
// beside it. When no session is idle a caller waits in a bounded queue;
// beyond it the caller is shed at once with the typed ErrOverloaded —
// bounded queueing instead of unbounded backlog keeps an overloaded
// server's tail latency finite and its memory flat. The pool is also the
// drain point: once draining, every checkout fails fast with ErrDraining
// and drain blocks until every session is back (or its context ends),
// the "stop accepting, finish what you started" half of a graceful
// shutdown.

import (
	"context"
	"sync"

	"lera/internal/core"
	"lera/internal/guard"
)

// pool holds the server's idle sessions. The zero value is not usable;
// build one with newPool. Safe for concurrent use.
type pool struct {
	idle     chan *core.Session
	back     chan struct{} // a token after each checkin: wakes drain
	maxQueue int

	mu       sync.Mutex // guards queued and draining
	queued   int
	draining bool
	drainCh  chan struct{} // closed when draining starts
}

// newPool builds an empty pool of n sessions with at most maxQueue
// callers waiting for one (maxQueue < 0: none). The caller checks its n
// sessions in before serving.
func newPool(n, maxQueue int) *pool {
	return &pool{
		idle:     make(chan *core.Session, n),
		back:     make(chan struct{}, 1),
		maxQueue: max(maxQueue, 0),
		drainCh:  make(chan struct{}),
	}
}

// checkout hands out an idle session, waiting in the bounded queue when
// none is. Every checkout that succeeds must be matched by exactly one
// checkin. Typed failures:
//
//   - ErrOverloaded — no session idle and the queue is full; the caller
//     was shed without waiting.
//   - ErrDraining — the pool is draining, also for a caller that was
//     queued when the drain started.
//   - the context's error (via CheckCtx: ErrDeadline for an expired
//     deadline) — the caller gave up while queued.
func (p *pool) checkout(ctx context.Context) (*core.Session, error) {
	p.mu.Lock()
	if p.draining {
		p.mu.Unlock()
		return nil, guard.ErrDraining
	}
	select {
	case s := <-p.idle:
		p.mu.Unlock()
		return s, nil
	default:
	}
	if p.queued >= p.maxQueue {
		p.mu.Unlock()
		return nil, guard.ErrOverloaded
	}
	p.queued++
	p.mu.Unlock()

	var s *core.Session
	var err error
	select {
	case s = <-p.idle:
	case <-p.drainCh:
		err = guard.ErrDraining
	case <-ctx.Done():
		err = guard.CheckCtx(ctx)
	}
	p.mu.Lock()
	p.queued--
	draining := p.draining
	p.mu.Unlock()
	// A drain that started while we were queued wins: the session goes
	// back and the caller is refused, so drain never waits on work
	// admitted after it began.
	if s != nil && draining {
		p.checkin(s)
		return nil, guard.ErrDraining
	}
	return s, err
}

// checkin returns a checked-out session, or the fork that replaces it.
// One checkin per checkout keeps at most n sessions in the channel, so
// the send never blocks.
func (p *pool) checkin(s *core.Session) {
	p.idle <- s
	select {
	case p.back <- struct{}{}:
	default: // a token is already pending; drain re-counts on waking
	}
}

// inFlight reports the sessions checked out: the queries admitted.
func (p *pool) inFlight() int { return cap(p.idle) - len(p.idle) }

// queuedCallers reports the callers waiting for a session.
func (p *pool) queuedCallers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued
}

// drain switches the pool into drain mode — every later or queued
// checkout fails with ErrDraining — and blocks until every session is
// back or ctx is done. It returns nil when the pool is whole and the
// typed context error when ctx ended first; the sessions still out at
// return are inFlight(). drain may be called again (the server does, to
// wait out a grace period), but not by two goroutines at once: each
// checkin leaves one token for one waiter.
func (p *pool) drain(ctx context.Context) error {
	p.mu.Lock()
	if !p.draining {
		p.draining = true
		close(p.drainCh)
	}
	p.mu.Unlock()
	for p.inFlight() > 0 {
		select {
		case <-p.back:
		case <-ctx.Done():
			return guard.CheckCtx(ctx)
		}
	}
	return nil
}
