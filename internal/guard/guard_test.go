package guard

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestLimitsFixIterations(t *testing.T) {
	if got := (Limits{}).FixIterations(); got != DefaultMaxFixIterations {
		t.Fatalf("zero Limits: got %d, want default %d", got, DefaultMaxFixIterations)
	}
	if got := (Limits{MaxFixIterations: 7}).FixIterations(); got != 7 {
		t.Fatalf("explicit cap: got %d, want 7", got)
	}
}

func TestCheckCtx(t *testing.T) {
	if err := CheckCtx(nil); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	if err := CheckCtx(context.Background()); err != nil {
		t.Fatalf("live ctx: %v", err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := CheckCtx(canceled); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled ctx: got %v, want context.Canceled", err)
	}

	expired, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	<-expired.Done()
	err := CheckCtx(expired)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("expired ctx: got %v, want ErrDeadline", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx should still match context.DeadlineExceeded, got %v", err)
	}
}

func TestSentinelsAreDistinct(t *testing.T) {
	sentinels := []error{ErrDeadline, ErrStepBudget, ErrTermSize, ErrRowBudget}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if (i == j) != errors.Is(a, b) {
				t.Fatalf("sentinel identity broken: %v vs %v", a, b)
			}
		}
	}
}

func TestExternalErrorMessageAndAs(t *testing.T) {
	var err error = NewExternalPanic(ExtConstraint, "myrule", "BOOM", "[0 1]", "kaboom")
	var ee *ExternalError
	if !errors.As(err, &ee) {
		t.Fatalf("errors.As failed on %T", err)
	}
	if ee.Kind != ExtConstraint || ee.Rule != "myrule" || ee.External != "BOOM" || ee.Site != "[0 1]" {
		t.Fatalf("fields lost: %+v", ee)
	}
	msg := err.Error()
	for _, want := range []string{"constraint", "BOOM", "panicked", "myrule", "[0 1]", "kaboom"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("message %q missing %q", msg, want)
		}
	}

	wrapped := &ExternalError{Kind: ExtADT, External: "zoneOf", Err: errors.New("bad zone")}
	if !strings.Contains(wrapped.Error(), "failed") || !strings.Contains(wrapped.Error(), "bad zone") {
		t.Fatalf("error-wrapping message: %q", wrapped.Error())
	}
	if !errors.Is(wrapped, wrapped.Err) {
		t.Fatalf("Unwrap should expose the underlying error")
	}
}

func TestInjectorDeterminism(t *testing.T) {
	in := NewInjector()
	in.Set("f", Fault{OnCall: 3, Mode: FaultError})
	for i := 1; i <= 5; i++ {
		err := in.Hit(nil, "f")
		if (i == 3) != (err != nil) {
			t.Fatalf("call %d: err=%v, want error exactly on call 3", i, err)
		}
	}
	if got := in.Calls("f"); got != 5 {
		t.Fatalf("Calls: got %d, want 5", got)
	}
	// OnCall 0 fires every time.
	in.Set("g", Fault{Mode: FaultError})
	for i := 1; i <= 2; i++ {
		err := in.Hit(nil, "g")
		if want := fmt.Sprintf("guard: injected fault (g call %d)", i); err == nil || err.Error() != want || !errors.Is(err, ErrInjected) {
			t.Fatalf("OnCall=0 should fire every call: got %v, want %q wrapping ErrInjected", err, want)
		}
	}
	// A nil injector is the chaos-off pipeline: nothing armed, nothing
	// counted, never a nil dereference.
	var none *Injector
	if err := none.Hit(nil, "f"); err != nil {
		t.Fatalf("nil injector fired: %v", err)
	}
}

func TestInjectorPanic(t *testing.T) {
	in := NewInjector()
	in.Set("p", Fault{OnCall: 1, Mode: FaultPanic})
	defer func() {
		if r := recover(); r != "injected panic (p call 1)" {
			t.Fatalf("recovered %v, want injected panic (p call 1)", r)
		}
	}()
	_ = in.Hit(nil, "p")
	t.Fatalf("Hit should have panicked")
}

func TestInjectorStall(t *testing.T) {
	in := NewInjector()
	in.Set("s", Fault{Mode: FaultStall, Stall: 10 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := in.Hit(ctx, "s")
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stall was not interrupted by ctx (took %v)", elapsed)
	}
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("interrupted stall: got %v, want ErrDeadline", err)
	}

	// An elapsed stall returns nil.
	in.Set("q", Fault{Mode: FaultStall, Stall: time.Millisecond})
	if err := in.Hit(context.Background(), "q"); err != nil {
		t.Fatalf("elapsed stall: %v", err)
	}
}
