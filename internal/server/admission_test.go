package server

// Admission tests of the session pool: bounded queueing, typed shedding,
// drain semantics, and exact in-flight accounting.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"lera/internal/core"
	"lera/internal/guard"
)

// testPool builds a pool of n placeholder sessions: admission never looks
// inside one.
func testPool(n, maxQueue int) *pool {
	p := newPool(n, maxQueue)
	for i := 0; i < n; i++ {
		p.checkin(new(core.Session))
	}
	return p
}

func TestPoolFastPathAndShed(t *testing.T) {
	p := testPool(2, 1)
	ctx := context.Background()

	s1, err := p.checkout(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.checkout(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("two checkouts share one session")
	}
	if got := p.inFlight(); got != 2 {
		t.Fatalf("inFlight = %d, want 2", got)
	}

	// A third caller queues (capacity 1); a fourth must shed typed.
	queued := make(chan error, 1)
	go func() {
		s, err := p.checkout(ctx)
		if err == nil {
			defer p.checkin(s)
		}
		queued <- err
	}()
	waitFor(t, func() bool { return p.queuedCallers() == 1 }, "the third caller never queued")

	if _, err := p.checkout(ctx); !errors.Is(err, guard.ErrOverloaded) {
		t.Fatalf("over-queue checkout: got %v, want ErrOverloaded", err)
	}

	p.checkin(s1) // the queued caller takes it
	if err := <-queued; err != nil {
		t.Fatalf("queued checkout after a checkin: %v", err)
	}
	p.checkin(s2)
	waitFor(t, func() bool { return p.inFlight() == 0 }, "sessions never came back")
}

func TestPoolQueuedCallerContextExpiry(t *testing.T) {
	p := testPool(1, 4)
	s, err := p.checkout(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer p.checkin(s)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := p.checkout(ctx); !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("queued caller with expired deadline: got %v, want ErrDeadline", err)
	}
	if got := p.queuedCallers(); got != 0 {
		t.Fatalf("queued after expiry = %d, want 0", got)
	}
}

func TestPoolDrain(t *testing.T) {
	p := testPool(1, 4)
	s, err := p.checkout(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// A queued caller must be refused when the drain starts.
	queued := make(chan error, 1)
	go func() {
		_, err := p.checkout(context.Background())
		queued <- err
	}()
	waitFor(t, func() bool { return p.queuedCallers() == 1 }, "the caller never queued")

	drained := make(chan error, 1)
	go func() { drained <- p.drain(context.Background()) }()
	waitFor(t, func() bool {
		p.mu.Lock()
		defer p.mu.Unlock()
		return p.draining
	}, "the drain never started")

	if err := <-queued; !errors.Is(err, guard.ErrDraining) {
		t.Fatalf("queued checkout during drain: got %v, want ErrDraining", err)
	}
	if _, err := p.checkout(context.Background()); !errors.Is(err, guard.ErrDraining) {
		t.Fatalf("new checkout during drain: got %v, want ErrDraining", err)
	}

	select {
	case err := <-drained:
		t.Fatalf("drain returned %v with a session still out", err)
	case <-time.After(30 * time.Millisecond):
	}
	p.checkin(s)
	if err := <-drained; err != nil {
		t.Fatalf("drain after the checkin: %v", err)
	}
	if got := p.inFlight(); got != 0 {
		t.Fatalf("inFlight after drain = %d, want 0", got)
	}
	// Idempotent.
	if err := p.drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

func TestPoolDrainDeadline(t *testing.T) {
	p := testPool(1, -1)
	s, err := p.checkout(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer p.checkin(s)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.drain(ctx); !errors.Is(err, guard.ErrDeadline) {
		t.Fatalf("drain past deadline with stuck work: got %v, want ErrDeadline", err)
	}
	if got := p.inFlight(); got != 1 {
		t.Fatalf("inFlight after failed drain = %d, want 1 (the stuck holder)", got)
	}
}

// TestPoolConcurrentAccounting hammers the pool from many goroutines and
// checks the invariant the server relies on: checkouts never exceed the
// pool, shed work is typed, and everything balances to zero. Run under
// -race in CI.
func TestPoolConcurrentAccounting(t *testing.T) {
	const sessions, queue, callers = 4, 8, 64
	p := testPool(sessions, queue)
	var mu sync.Mutex
	var admitted, shed int
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := p.checkout(context.Background())
			if err != nil {
				if !errors.Is(err, guard.ErrOverloaded) {
					t.Errorf("unexpected checkout error: %v", err)
				}
				mu.Lock()
				shed++
				mu.Unlock()
				return
			}
			if in := p.inFlight(); in > sessions {
				t.Errorf("inFlight %d exceeds the pool of %d", in, sessions)
			}
			time.Sleep(time.Millisecond)
			p.checkin(s)
			mu.Lock()
			admitted++
			mu.Unlock()
		}()
	}
	wg.Wait()
	if admitted+shed != callers {
		t.Fatalf("admitted %d + shed %d != %d callers", admitted, shed, callers)
	}
	if admitted == 0 {
		t.Fatal("nothing was admitted")
	}
	if p.inFlight() != 0 || p.queuedCallers() != 0 || len(p.idle) != sessions {
		t.Fatalf("pool not whole: inflight=%d queued=%d idle=%d", p.inFlight(), p.queuedCallers(), len(p.idle))
	}
}
