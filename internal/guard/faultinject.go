package guard

// Deterministic fault injection for externals and servers. A hit site —
// the head of a constraint/method/builtin/ADT function (wired pipeline-
// wide by core.WithInjector), or leraserver's per-request "server.request"
// hook — reports each call by name; the injector counts calls per name
// and fires the armed fault — panic, error, or stall — so every
// degradation path is exercised deterministically rather than asserted.
//
// The determinism contract:
//
//   - Whether a fault fires depends only on the per-name call count: the
//     OnCall'th call (or every Every'th call) fires, every other call is
//     a counted no-op. No randomness, no clocks, no goroutine identity.
//   - Counting is per name and strictly sequential under the injector's
//     lock: N calls to Hit("X") are observed as calls 1..N in arrival
//     order. Under concurrency the *assignment* of indices to callers
//     follows arrival order at the lock; a test that needs call K to be
//     a specific request must serialize those requests.
//   - The same injector instance may be shared by every consumer of a
//     pipeline (rewrite constraints/methods/builtins, engine ADT calls,
//     server request hooks): names are a flat namespace, so arming
//     "MEMBER" trips the rewriter's and the executor's MEMBER alike.
//   - nil = nothing armed, nothing counted: Hit on a nil *Injector is a
//     no-op, and a pipeline with no injector pays nothing per call. An
//     injector exists only where something can fire (leraserver creates
//     one only under -chaos), so a served query with chaos off runs the
//     engine's compiled comparisons with no lock between sessions.
//
// This is the one path chaos testing and unit tests share: leraserver's
// chaos mode arms the very same Fault values on the very same injector
// type that the guard/core/engine unit tests use.

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// FaultMode selects what an armed fault does when it fires.
type FaultMode int

// Fault modes. The zero mode fires as a no-op (the call is still
// counted).
const (
	_ FaultMode = iota
	// FaultPanic: panic with "injected panic (<name> call <n>)".
	FaultPanic
	// FaultError: return an error wrapping ErrInjected that names the
	// external and the call.
	FaultError
	// FaultStall: block for Stall, or until the supplied context is done,
	// whichever comes first; a cancelled context returns its (typed)
	// error, an elapsed stall returns nil.
	FaultStall
)

// Fault is one armed fault.
type Fault struct {
	// OnCall is the 1-based call index the fault fires on; 0 fires on
	// every call (unless Every narrows it).
	OnCall int
	// Every, when positive, fires the fault on every Every'th call
	// (call indices Every, 2*Every, ...). It composes with OnCall = 0
	// only; a non-zero OnCall takes precedence. This is the chaos-mode
	// knob: "every 7th request errors" is Every: 7.
	Every int
	Mode  FaultMode
	// Stall is the FaultStall duration.
	Stall time.Duration
}

// Injector counts calls per external name and fires armed faults. Safe
// for concurrent use.
type Injector struct {
	mu     sync.Mutex
	calls  map[string]int
	faults map[string]Fault
}

// NewInjector returns an empty injector: all hits are counted no-ops
// until faults are armed with Set.
func NewInjector() *Injector {
	return &Injector{calls: map[string]int{}, faults: map[string]Fault{}}
}

// Set arms a fault for the named external, replacing any previous one.
func (in *Injector) Set(name string, f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults[name] = f
}

// Calls reports how many times the named external has hit the injector.
func (in *Injector) Calls(name string) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls[name]
}

// Hit records one call to the named external and fires its armed fault if
// the call index matches. ctx may be nil; it is only consulted by
// FaultStall. A nil injector fires nothing and counts nothing.
func (in *Injector) Hit(ctx context.Context, name string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	in.calls[name]++
	n := in.calls[name]
	f, armed := in.faults[name]
	in.mu.Unlock()
	if !armed {
		return nil
	}
	switch {
	case f.OnCall != 0:
		if n != f.OnCall {
			return nil
		}
	case f.Every > 0:
		if n%f.Every != 0 {
			return nil
		}
	}
	switch f.Mode {
	case FaultPanic:
		panic(fmt.Sprintf("injected panic (%s call %d)", name, n))
	case FaultError:
		return fmt.Errorf("%w (%s call %d)", ErrInjected, name, n)
	case FaultStall:
		timer := time.NewTimer(f.Stall)
		defer timer.Stop()
		if ctx == nil {
			<-timer.C
			return nil
		}
		select {
		case <-ctx.Done():
			return CheckCtx(ctx)
		case <-timer.C:
			return nil
		}
	}
	return nil
}
