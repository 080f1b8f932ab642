// Package guard is the query guardrail layer: resource limits, typed
// budget errors, and panic isolation for the rewrite/execute pipeline.
//
// The paper's extensibility claim — implementors add rules and externals
// without touching the engine — only holds if the engine survives whatever
// they add: non-terminating rule sets, term-size blowups, and panicking
// external code. This package supplies the vocabulary the pipeline uses to
// defend itself: a Limits budget enforced with errors distinguishable via
// errors.Is/As, an ExternalError that wraps a recovered panic with enough
// context to name the offending rule and external, and a deterministic
// fault injector (faultinject.go) so every degradation path is exercised
// by tests rather than asserted.
//
// guard is a leaf package: it imports only the standard library, so every
// layer (rewrite, engine, core, cmd) can depend on it freely.
package guard

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Typed budget errors. Wrapped errors carry detail (counts, caps); callers
// classify with errors.Is.
var (
	// ErrDeadline: the wall-clock budget expired (context deadline).
	ErrDeadline = errors.New("guard: deadline exceeded")
	// ErrStepBudget: the global rule-application step cap was reached
	// during rewriting.
	ErrStepBudget = errors.New("guard: rewrite step budget exhausted")
	// ErrTermSize: a rewrite grew the query term past the size cap.
	ErrTermSize = errors.New("guard: term size limit exceeded")
	// ErrRowBudget: execution materialized more rows than allowed.
	ErrRowBudget = errors.New("guard: row budget exceeded")
	// ErrMemBudget: an execution operator needed more memory than
	// MaxMemBytes grants and no spill directory was available to move
	// its state out of core.
	ErrMemBudget = errors.New("guard: memory budget exceeded")
)

// DefaultMaxFixIterations bounds fixpoint rounds when Limits leaves
// MaxFixIterations zero (guards against non-monotone bodies).
const DefaultMaxFixIterations = 1_000_000

// Limits is the per-query resource budget. The zero value means
// "no limits" (except the fixpoint cap, which always defaults).
type Limits struct {
	// Timeout is the wall-clock budget applied to each pipeline phase
	// (rewrite, execute) separately, so a rewrite that burns its budget
	// can still degrade to a plan the execution phase has time to run.
	// 0 means no deadline.
	Timeout time.Duration
	// MaxSteps caps successful rule applications across all blocks of one
	// rewrite. 0 means unlimited.
	MaxSteps int
	// MaxTermSize caps the node count of the query term during rewriting.
	// 0 means unlimited.
	MaxTermSize int
	// MaxRows caps the cumulative number of rows materialized by
	// relational operators during execution. 0 means unlimited.
	MaxRows int
	// MaxFixIterations caps iterations of each fixpoint instance
	// (per FIX subterm, not shared across them). 0 means
	// DefaultMaxFixIterations.
	MaxFixIterations int
	// MaxMemBytes is the per-operator memory grant of the batched
	// engine's memory governor (work_mem-style, docs/PERF.md "Memory
	// governor & spill"): the estimated resident bytes any single
	// memory-hungry operator structure — a join build, a dedup or
	// fixpoint seen-set — may hold before it must switch to its
	// out-of-core strategy. Without a spill directory the switch is
	// impossible and the operator fails with ErrMemBudget instead.
	// 0 means unlimited.
	MaxMemBytes int64
}

// ConfigError reports a configured limit or knob that is negative. Every
// such setting's zero value already means "unlimited" (or "default"), and
// the enforcement sites test "> 0", so a negative value from a tenant
// file or a flag would silently switch the guardrail off. server.New,
// server.ParseTenants and the binaries' flag checks return it, so a bad
// configuration fails at start-up instead.
type ConfigError struct {
	Tenant string // the tenant the limit belongs to; "" for a process-wide setting
	Field  string
	Value  int64
}

func (e *ConfigError) Error() string {
	where := ""
	if e.Tenant != "" {
		where = fmt.Sprintf("tenant %q: ", e.Tenant)
	}
	return fmt.Sprintf("guard: config: %s%s = %d is negative (0 means unlimited or default)", where, e.Field, e.Value)
}

// NonNegative returns a *ConfigError naming field when v is negative.
func NonNegative(tenant, field string, v int64) error {
	if v < 0 {
		return &ConfigError{Tenant: tenant, Field: field, Value: v}
	}
	return nil
}

// Validate rejects negative limits, blaming tenant ("" for none).
func (l Limits) Validate(tenant string) error {
	return errors.Join(
		NonNegative(tenant, "Timeout", int64(l.Timeout)),
		NonNegative(tenant, "MaxSteps", int64(l.MaxSteps)),
		NonNegative(tenant, "MaxTermSize", int64(l.MaxTermSize)),
		NonNegative(tenant, "MaxRows", int64(l.MaxRows)),
		NonNegative(tenant, "MaxFixIterations", int64(l.MaxFixIterations)),
		NonNegative(tenant, "MaxMemBytes", l.MaxMemBytes),
	)
}

// FixIterations returns the effective per-instance fixpoint iteration cap.
func (l Limits) FixIterations() int {
	if l.MaxFixIterations > 0 {
		return l.MaxFixIterations
	}
	return DefaultMaxFixIterations
}

// Budget is the shared resource account of one query evaluation: the
// cumulative row count and the tracked-memory account. Every worker of a
// parallel query charges the same Budget, so the row cap trips promptly
// no matter which worker materializes the row that crosses it; the
// serial path pays one uncontended atomic add per operator output.
type Budget struct {
	rows atomic.Int64
	// mem is the current tracked resident bytes (engine structures the
	// memory governor accounts: arenas, join builds, seen-sets) and
	// memPeak its high-water mark. Unlike rows, the shared memory
	// account never errors by itself — the spill/fail decision is made
	// operator-locally against Limits.MaxMemBytes so it stays
	// deterministic at every pool size; the shared account exists so one
	// peak number covers all workers (reports, the peak-memory gauge).
	mem     atomic.Int64
	memPeak atomic.Int64
}

// ChargeRows adds n freshly materialized rows to the account and reports
// ErrRowBudget once the cumulative total exceeds max (0 = unlimited).
func (b *Budget) ChargeRows(n, max int) error {
	total := b.rows.Add(int64(n))
	if max > 0 && total > int64(max) {
		return fmt.Errorf("%w: %d rows materialized (cap %d)", ErrRowBudget, total, max)
	}
	return nil
}

// Rows returns the rows charged so far.
func (b *Budget) Rows() int { return int(b.rows.Load()) }

// ChargeMem adds n tracked bytes to the shared memory account and
// advances the peak. Pair with ReleaseMem when the structure is dropped
// (or shrinks, e.g. after migrating to disk).
func (b *Budget) ChargeMem(n int64) {
	if n == 0 {
		return
	}
	cur := b.mem.Add(n)
	for {
		p := b.memPeak.Load()
		if cur <= p || b.memPeak.CompareAndSwap(p, cur) {
			return
		}
	}
}

// ReleaseMem returns n tracked bytes to the account.
func (b *Budget) ReleaseMem(n int64) {
	if n != 0 {
		b.mem.Add(-n)
	}
}

// MemPeak returns the high-water mark of tracked bytes.
func (b *Budget) MemPeak() int64 { return b.memPeak.Load() }

// Consumption is a per-query snapshot of budget use against its limits:
// how many rows the engine materialized and how many rewrite steps the
// rule engine applied, next to the caps that bounded them (0 = the cap
// was unlimited). It rides on Result.Budget, and a slow-query report
// renders it from the query-log event's fields, so an operator can see how
// close a query came to tripping — not just whether it tripped.
type Consumption struct {
	RowsUsed   int64 `json:"rows_used"`
	RowsLimit  int64 `json:"rows_limit,omitempty"`
	StepsUsed  int64 `json:"steps_used"`
	StepsLimit int64 `json:"steps_limit,omitempty"`
	// MemPeakBytes is the high-water mark of the engine's tracked
	// memory (Budget.MemPeak) and MemLimit the per-operator grant it
	// ran under. Both zero when the memory governor was off, so the
	// rendered form only grows a mem clause for governed queries.
	MemPeakBytes int64 `json:"mem_peak_bytes,omitempty"`
	MemLimit     int64 `json:"mem_limit,omitempty"`
}

// String renders the consumption compactly for notices: "rows 120/1000,
// steps 4/500" (plus ", mem 8192/65536" once the memory governor is on)
// with "unlimited" for uncapped budgets.
func (c Consumption) String() string {
	lim := func(n int64) string {
		if n <= 0 {
			return "unlimited"
		}
		return fmt.Sprintf("%d", n)
	}
	s := fmt.Sprintf("rows %d/%s, steps %d/%s", c.RowsUsed, lim(c.RowsLimit), c.StepsUsed, lim(c.StepsLimit))
	if c.MemPeakBytes > 0 || c.MemLimit > 0 {
		s += fmt.Sprintf(", mem %d/%s", c.MemPeakBytes, lim(c.MemLimit))
	}
	return s
}

// CheckCtx translates context cancellation into the guard vocabulary: a
// deadline expiry reports ErrDeadline (still matching
// context.DeadlineExceeded via errors.Is), a plain cancellation passes
// through as context.Canceled. A nil or live context returns nil.
func CheckCtx(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	err := ctx.Err()
	if err == nil {
		return nil
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrDeadline, err)
	}
	return err
}

// ExternalKind names the kind of external whose invocation failed.
type ExternalKind string

// External kinds.
const (
	ExtConstraint ExternalKind = "constraint"
	ExtMethod     ExternalKind = "method"
	ExtBuiltin    ExternalKind = "builtin"
	ExtADT        ExternalKind = "adt function"
)

// ExternalError reports a failure inside implementor-supplied code — a
// rule constraint, method, right-hand-side builtin, or ADT function —
// converted from a panic (Panic non-nil) or wrapped from a returned error
// (Err non-nil). Rule and Site are empty when the external was not invoked
// from a rewrite rule (e.g. an ADT call during execution).
type ExternalError struct {
	Kind     ExternalKind
	Rule     string // rule that invoked the external, if any
	External string // name of the external function
	Site     string // match-site path within the query term, if any
	Panic    any    // recovered panic value, nil when Err is set
	Err      error  // underlying error, nil when Panic is set
}

// NewExternalPanic converts a recovered panic value into an ExternalError.
func NewExternalPanic(kind ExternalKind, rule, external, site string, p any) *ExternalError {
	return &ExternalError{Kind: kind, Rule: rule, External: external, Site: site, Panic: p}
}

// Error implements error.
func (e *ExternalError) Error() string {
	verb := "failed"
	detail := ""
	if e.Panic != nil {
		verb = "panicked"
		detail = fmt.Sprintf(": %v", e.Panic)
	} else if e.Err != nil {
		detail = fmt.Sprintf(": %v", e.Err)
	}
	where := ""
	if e.Rule != "" {
		where = fmt.Sprintf(" in rule %s", e.Rule)
	}
	if e.Site != "" {
		where += fmt.Sprintf(" at %s", e.Site)
	}
	return fmt.Sprintf("guard: %s %s %s%s%s", e.Kind, e.External, verb, where, detail)
}

// Unwrap exposes the underlying error (nil for panics).
func (e *ExternalError) Unwrap() error { return e.Err }
