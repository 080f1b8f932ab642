package guard

// The CodeOf classification the protocol layers rely on, and the
// injector's firing schedule.

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

func TestCodeOf(t *testing.T) {
	cases := []struct {
		err  error
		want Code
	}{
		{nil, CodeOK},
		{ErrOverloaded, CodeOverloaded},
		{fmt.Errorf("gate: %w", ErrDraining), CodeDraining},
		{fmt.Errorf("%w (X call 3)", ErrInjected), CodeInjected},
		{fmt.Errorf("%w: detail", ErrDeadline), CodeDeadline},
		{context.DeadlineExceeded, CodeDeadline},
		{fmt.Errorf("%w: 12 steps", ErrStepBudget), CodeStepBudget},
		{fmt.Errorf("%w: 900 nodes", ErrTermSize), CodeTermSize},
		{fmt.Errorf("engine: %w: 100 rows", ErrRowBudget), CodeRowBudget},
		{context.Canceled, CodeCanceled},
		{fmt.Errorf("%w: 1:8: unexpected token", ErrParse), CodeParse},
		{NewExternalPanic(ExtConstraint, "r", "F", "[0]", "boom"), CodeExternalPanic},
		{&ExternalError{Kind: ExtADT, External: "F", Err: errors.New("bad")}, CodeExternalError},
		// An external wrapping an injected fault keeps the INJECTED code.
		{&ExternalError{Kind: ExtMethod, External: "M", Err: fmt.Errorf("%w (M call 1)", ErrInjected)}, CodeInjected},
		{errors.New("mystery"), CodeInternal},
	}
	for _, tc := range cases {
		if got := CodeOf(tc.err); got != tc.want {
			t.Errorf("CodeOf(%v) = %s, want %s", tc.err, got, tc.want)
		}
	}
}

func TestInjectorEvery(t *testing.T) {
	in := NewInjector()
	in.Set("e", Fault{Every: 3, Mode: FaultError})
	var fired []int
	for i := 1; i <= 10; i++ {
		if err := in.Hit(nil, "e"); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("call %d: got %v, want ErrInjected", i, err)
			}
			fired = append(fired, i)
		}
	}
	if fmt.Sprint(fired) != "[3 6 9]" {
		t.Fatalf("Every=3 fired on %v, want [3 6 9]", fired)
	}
	// OnCall takes precedence over Every.
	in.Set("o", Fault{OnCall: 2, Every: 1, Mode: FaultError})
	fired = nil
	for i := 1; i <= 4; i++ {
		if err := in.Hit(nil, "o"); err != nil {
			fired = append(fired, i)
		}
	}
	if fmt.Sprint(fired) != "[2]" {
		t.Fatalf("OnCall=2 fired on %v, want [2]", fired)
	}
}
