package guard

// Protocol error codes: the stable, operator-facing names of the guard
// vocabulary. Every typed failure the pipeline can produce — budget
// trips, cancellation, external faults, admission-control shedding —
// maps to exactly one short uppercase code, and every front end
// (leraserver responses, edsql notices, benchrunner JSON, loadgen
// reports) prints the same names, so a `ROW_BUDGET` seen in a server
// log means precisely what a `ROW_BUDGET` in a shell notice means.
//
// Codes are append-only: new failure classes get new names; existing
// names never change meaning. CodeOf is total — an error it cannot
// classify is INTERNAL, never an empty string.

import (
	"context"
	"errors"
)

// Code is a stable protocol error code.
type Code string

// The code vocabulary. OK is the success code; DEGRADED is not a code —
// degradation is a successful answer from the fallback plan whose
// *cause* is reported via CodeOf (see rewrite.Stats.DegradationCode).
const (
	CodeOK Code = "OK"
	// Budget trips (docs/GUARDRAILS.md).
	CodeDeadline   Code = "DEADLINE"
	CodeStepBudget Code = "STEP_BUDGET"
	CodeTermSize   Code = "TERM_SIZE"
	CodeRowBudget  Code = "ROW_BUDGET"
	CodeMemBudget  Code = "MEM_BUDGET"
	// Caller cancellation (not a budget: the client went away).
	CodeCanceled Code = "CANCELED"
	// Implementor-code failures (panic isolated / error wrapped).
	CodeExternalPanic Code = "EXTERNAL_PANIC"
	CodeExternalError Code = "EXTERNAL_ERROR"
	// Deterministic chaos faults (guard.Injector).
	CodeInjected Code = "INJECTED"
	// Admission control (leraserver).
	CodeOverloaded Code = "OVERLOADED"
	CodeDraining   Code = "DRAINING"
	// Request-shaping failures reported by front ends.
	CodeParse Code = "PARSE"
	// Anything not covered above.
	CodeInternal Code = "INTERNAL"
	// A statement that parses but is invalid against the catalog.
	CodeInvalid Code = "INVALID"
)

// ErrParse marks a text that is not ESQL: every error the esql package
// returns wraps it, and its text is the head of theirs.
var ErrParse = errors.New("esql")

// ErrInvalid marks a statement that parses but is invalid against the
// catalog: an unknown relation or column, a name declared twice, an
// unknown prepared statement. Invalid wraps an error in it.
var ErrInvalid = errors.New("guard: invalid statement")

// Invalid returns err marked with ErrInvalid and its text unchanged, or
// err itself when it is nil or already has a code of its own.
func Invalid(err error) error {
	if CodeOf(err) != CodeInternal {
		return err
	}
	return invalidError{err}
}

type invalidError struct{ error }

func (e invalidError) Unwrap() []error { return []error{ErrInvalid, e.error} }

// Admission-control errors (the server's session pool returns them).
// Typed so that shed work is distinguishable from failed work everywhere
// errors.Is reaches.
var (
	// ErrOverloaded: the request was shed at admission — the in-flight
	// limit was reached and the bounded accept queue was full. The
	// request did not run; retrying after backoff is safe.
	ErrOverloaded = errors.New("guard: overloaded, request shed")
	// ErrDraining: the server is draining for shutdown and admits no new
	// work. The request did not run.
	ErrDraining = errors.New("guard: draining, not accepting new work")
	// ErrInjected: a deterministic chaos fault fired (Injector,
	// FaultError default). Distinguishable from real external errors so
	// chaos runs can prove every injected fault surfaced as a typed
	// outcome.
	ErrInjected = errors.New("guard: injected fault")
)

// CodeOf classifies an error into the protocol code vocabulary. nil maps
// to CodeOK; an unrecognized error maps to CodeInternal. Order matters:
// the sentinels are checked before the ExternalError envelope so an
// injected or budget-typed error keeps its specific code even when an
// external wrapped it.
func CodeOf(err error) Code {
	if err == nil {
		return CodeOK
	}
	switch {
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, ErrDraining):
		return CodeDraining
	case errors.Is(err, ErrInjected):
		return CodeInjected
	case errors.Is(err, ErrDeadline), errors.Is(err, context.DeadlineExceeded):
		return CodeDeadline
	case errors.Is(err, ErrStepBudget):
		return CodeStepBudget
	case errors.Is(err, ErrTermSize):
		return CodeTermSize
	case errors.Is(err, ErrRowBudget):
		return CodeRowBudget
	case errors.Is(err, ErrMemBudget):
		return CodeMemBudget
	case errors.Is(err, context.Canceled):
		return CodeCanceled
	case errors.Is(err, ErrParse):
		return CodeParse
	case errors.Is(err, ErrInvalid):
		return CodeInvalid
	}
	var ext *ExternalError
	if errors.As(err, &ext) {
		if ext.Panic != nil {
			return CodeExternalPanic
		}
		return CodeExternalError
	}
	return CodeInternal
}
