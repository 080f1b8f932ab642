// Package lera is a from-scratch reproduction of "A Rule-Based Query
// Rewriter in an Extensible DBMS" (Finance & Gardarin, ICDE 1991): the
// ESQL query language front end, the LERA extended relational algebra, a
// term-rewriting rule language with constraints and method calls, the
// block/sequence control strategy of the paper's Section 4.2, the
// syntactic and semantic rule libraries of Sections 5-6 (operation
// merging, permutation, Alexander fixpoint reduction, integrity-constraint
// addition, predicate simplification), and an in-memory execution engine
// that measures the effect of each rewrite.
//
// The public API re-exports the assembled system:
//
//	s := lera.NewSession()
//	s.MustExec(`TABLE T (a : INT, b : CHAR); INSERT INTO T VALUES (1, 'x');`)
//	res, err := s.Query("SELECT b FROM T WHERE a = 1")
//
// Database implementors extend the optimizer without touching the engine:
// new rules via WithRules, integrity constraints via WithConstraints, and
// new ADT functions through the session catalog's ADT registry — the
// paper's central extensibility claim.
package lera

import (
	"time"

	"lera/internal/catalog"
	"lera/internal/core"
	"lera/internal/engine"
	"lera/internal/guard"
	lalg "lera/internal/lera"
	"lera/internal/obs"
	"lera/internal/plancache"
	"lera/internal/rewrite"
	"lera/internal/rulecheck"
	"lera/internal/term"
	"lera/internal/value"
)

// Session is the full pipeline: ESQL text in, declarations, stored rows
// and executed (rewritten) query results out.
type Session = core.Session

// Result is the outcome of one executed statement.
type Result = core.Result

// Result kinds.
const (
	ResultDDL     = core.ResultDDL
	ResultInsert  = core.ResultInsert
	ResultRows    = core.ResultRows
	ResultExplain = core.ResultExplain
)

// Rewriter is the assembled rule-based rewriter.
type Rewriter = core.Rewriter

// Option configures a Rewriter or Session.
type Option = core.Option

// Catalog is the schema catalog (types, relations, views, constraints).
type Catalog = catalog.Catalog

// DB is the in-memory execution engine.
type DB = engine.DB

// Value is a runtime ESQL value.
type Value = value.Value

// Term is the uniform term representation shared by queries and rules.
type Term = term.Term

// Stats aggregates rewrite work (condition checks, applications, rounds).
type Stats = rewrite.Stats

// Limits is the per-query guard budget: wall-clock timeout (applied to
// the rewrite and execute phases separately), rule-application cap, term
// growth cap, materialized-row cap and fixpoint-iteration cap. The zero
// value means no limits. Set Session.Limits to enforce it; see
// docs/GUARDRAILS.md.
type Limits = guard.Limits

// ExternalError wraps a panic raised by an extension hook — a rule
// constraint, method, builtin or ADT function — carrying the rule name,
// external name and match site. Retrieve it with errors.As.
type ExternalError = guard.ExternalError

// Guard sentinel errors, distinguishable with errors.Is.
var (
	// ErrDeadline marks a Limits.Timeout expiry (rewrite or execution).
	ErrDeadline = guard.ErrDeadline
	// ErrStepBudget marks the Limits.MaxSteps rule-application cap.
	ErrStepBudget = guard.ErrStepBudget
	// ErrTermSize marks the Limits.MaxTermSize term-growth cap.
	ErrTermSize = guard.ErrTermSize
	// ErrRowBudget marks the Limits.MaxRows materialization cap.
	ErrRowBudget = guard.ErrRowBudget
	// ErrOverloaded marks a typed admission-control shed (server layer).
	ErrOverloaded = guard.ErrOverloaded
	// ErrDraining marks a request refused by a draining server.
	ErrDraining = guard.ErrDraining
	// ErrInjected marks a deterministic chaos fault (Injector).
	ErrInjected = guard.ErrInjected
)

// Code is the stable protocol error-code vocabulary shared by the server
// protocols, edsql and benchrunner (docs/SERVER.md). Classify any
// pipeline error with CodeOf.
type Code = guard.Code

// Protocol error codes.
const (
	CodeOK            = guard.CodeOK
	CodeParse         = guard.CodeParse
	CodeDeadline      = guard.CodeDeadline
	CodeStepBudget    = guard.CodeStepBudget
	CodeTermSize      = guard.CodeTermSize
	CodeRowBudget     = guard.CodeRowBudget
	CodeCanceled      = guard.CodeCanceled
	CodeExternalError = guard.CodeExternalError
	CodeExternalPanic = guard.CodeExternalPanic
	CodeInjected      = guard.CodeInjected
	CodeOverloaded    = guard.CodeOverloaded
	CodeDraining      = guard.CodeDraining
	CodeInternal      = guard.CodeInternal
)

// CodeOf classifies an error from any pipeline layer into its protocol
// code (CodeInternal when unrecognized; nil maps to CodeOK).
func CodeOf(err error) Code { return guard.CodeOf(err) }

// Injector is the deterministic fault injector for chaos testing: faults
// fire on per-name call counts only, never on time or scheduling (see
// internal/guard/faultinject.go for the determinism contract). Thread one
// through a session with WithInjector.
type Injector = guard.Injector

// Fault is one armed fault: mode (error, panic or context-aware stall)
// plus its firing schedule (OnCall = the N'th call, Every = every N'th,
// neither = every call).
type Fault = guard.Fault

// Fault modes.
const (
	FaultError = guard.FaultError
	FaultPanic = guard.FaultPanic
	FaultStall = guard.FaultStall
)

// NewInjector returns an empty injector: all hits are counted no-ops
// until faults are armed.
func NewInjector() *Injector { return guard.NewInjector() }

// NewSession creates a session with an empty catalog and database.
func NewSession(opts ...Option) *Session { return core.NewSession(opts...) }

// NewRewriter builds a rewriter over an existing catalog.
func NewRewriter(cat *Catalog, opts ...Option) (*Rewriter, error) { return core.New(cat, opts...) }

// NewCatalog creates an empty catalog with the built-in types and the
// Figure 1 ADT function library.
func NewCatalog() *Catalog { return catalog.New() }

// Rewriter options (see the paper's §4.2 and §7).
var (
	// WithDynamicLimits scales block budgets by query complexity, with
	// zero budgets for key-lookup-simple queries (§7).
	WithDynamicLimits = core.WithDynamicLimits
	// WithRules adds implementor-written rules in the rule language.
	WithRules = core.WithRules
	// WithConstraints adds Figure 10-style integrity constraints.
	WithConstraints = core.WithConstraints
	// WithSequence replaces the master block sequence.
	WithSequence = core.WithSequence
	// WithBlockLimit overrides one block's budget; a zero limit turns the
	// block off (§7).
	WithBlockLimit = core.WithBlockLimit
	// WithPlanning enables the §7 planning-hint extension: join operands
	// reorder by estimated cardinality, smallest first.
	WithPlanning = core.WithPlanning
	// WithRuleCheck statically verifies the assembled rule base at
	// construction time: error-level findings refuse the rule base,
	// advisory findings are kept on Rewriter.CheckDiagnostics. See
	// docs/RULES.md ("Validating your rules").
	WithRuleCheck = core.WithRuleCheck
	// WithInjector threads a fault injector through the whole pipeline —
	// rewrite-side constraints, methods and builtins, and execution-side
	// ADT calls — for deterministic chaos testing (docs/SERVER.md).
	WithInjector = core.WithInjector
	// WithPlanCache arms a bounded LRU of rewritten plans keyed by
	// templatized term hash + rule-base fingerprint + session knobs, so
	// repeated query shapes skip the rewriter (docs/PLANCACHE.md).
	WithPlanCache = core.WithPlanCache
	// WithPlanCacheValidation re-validates every n'th cache hit against
	// a cold rewrite, invalidating entries that disagree.
	WithPlanCacheValidation = core.WithPlanCacheValidation
)

// PlanCache is the bounded plan-cache LRU (see internal/plancache and
// docs/PLANCACHE.md); reach a session's via Session.Plans.
type PlanCache = plancache.Cache

// PlanCacheOutcome is the per-query cache record on Result.Cache.
type PlanCacheOutcome = plancache.Outcome

// PlanCacheStats is a point-in-time snapshot of plan-cache counters.
type PlanCacheStats = plancache.Stats

// Diagnostic is one finding of the rule-base verifier (internal/rulecheck):
// a static lint result or a differential-testing counterexample. Obtain
// them from Session.CheckRules, Rewriter.CheckRules or the rulecheck CLI.
type Diagnostic = rulecheck.Diagnostic

// DiagnosticSeverity ranks verifier findings.
type DiagnosticSeverity = rulecheck.Severity

// Verifier finding severities.
const (
	SevInfo  = rulecheck.SevInfo
	SevWarn  = rulecheck.SevWarn
	SevError = rulecheck.SevError
)

// HasCheckErrors reports whether any verifier finding is error-level.
func HasCheckErrors(ds []Diagnostic) bool { return rulecheck.HasErrors(ds) }

// --- observability (internal/obs, docs/OBSERVABILITY.md) ---

// Observer is the session-level observability sink: a metrics registry
// plus a per-query tracing switch. Attach one with Session.Obs; nil
// disables the layer at zero cost.
type Observer = obs.Observer

// MetricsRegistry holds named counters, gauges and bounded histograms,
// exposable as expvar JSON or Prometheus text (Registry.Handler).
type MetricsRegistry = obs.Registry

// Span is one timed region of an observed query's trace.
type Span = obs.Span

// QueryReport is the per-query observability record on Result.Report:
// phase timings, the span trace and per-operator execution statistics.
type QueryReport = core.QueryReport

// PhaseTimings are the per-phase wall-clock durations of one query.
type PhaseTimings = core.PhaseTimings

// OpStats is one node of the engine's per-operator execution statistics
// tree (Result.Report.Exec).
type OpStats = engine.OpStats

// Counters are the engine's flat work counters (rows scanned, join
// pairs, rows emitted, predicate evaluations, fixpoint iterations).
type Counters = engine.Counters

// NewObserver returns an observer with a fresh metrics registry and
// tracing off.
func NewObserver() *Observer { return obs.NewObserver() }

// Consumption is the per-query guard-budget snapshot on Result.Budget:
// rows materialized and rewrite steps applied against their caps.
type Consumption = guard.Consumption

// SlowLog is the fixed-size slow-query capture ring (docs/OBSERVABILITY.md
// "Slow-query ring"): queries that crossed a latency threshold or ended
// degraded/budget-tripped keep their full QueryReport for later reading.
type SlowLog = core.SlowLog

// SlowEntry is one captured slow query.
type SlowEntry = core.SlowEntry

// NewSlowLog builds a slow-query ring of the given capacity (<= 0
// disables: returns nil, and a nil ring no-ops) and latency threshold
// (0 = 500ms default).
func NewSlowLog(size int, threshold time.Duration) *SlowLog {
	return core.NewSlowLog(size, threshold)
}

// NewSlowEntry assembles the slow-log entry of one finished query from
// its outcome (r is nil for a query that never executed).
func NewSlowEntry(t time.Time, tenant, query, code string, elapsed time.Duration, r *Result, err error) SlowEntry {
	return core.NewSlowEntry(t, tenant, query, code, elapsed, r, err)
}

// FormatSlowEntry renders one captured slow query the way EXPLAIN
// ANALYZE renders a live one.
func FormatSlowEntry(e SlowEntry) string { return core.FormatSlowEntry(e) }

// QueryEvent is one wide structured query-log event (docs/OBSERVABILITY.md
// "Structured query log").
type QueryEvent = obs.QueryEvent

// QueryLog fans query events into a bounded, sampled sink; NewQueryLog
// and WriterSink build one (servers wire it with -query-log).
type QueryLog = obs.QueryLog

// WriterSink writes query-log events as JSON lines.
type WriterSink = obs.WriterSink

// NewQueryLog starts a query log draining into sink (see obs.NewQueryLog).
func NewQueryLog(sink obs.Sink, buffer, sample int) *QueryLog {
	return obs.NewQueryLog(sink, buffer, sample)
}

// RegisterBuildInfo exposes a lera_build_info{commit,go_version} gauge
// on a registry.
func RegisterBuildInfo(reg *MetricsRegistry, commit, goVersion string) {
	obs.RegisterBuildInfo(reg, commit, goVersion)
}

// FormatTrace renders a span tree as an indented outline; withTimings
// false yields a deterministic form suitable for regression comparison.
func FormatTrace(root *Span, withTimings bool) string { return obs.FormatTree(root, withTimings) }

// Format renders a LERA term in the paper's concrete syntax, e.g.
// search((APPEARS_IN, FILM), [1.1=2.1 ∧ ...], (2.2, 2.3, salary(1.2))).
func Format(t *Term) string { return lalg.Format(t) }

// FormatResult renders a query result as an aligned text table.
func FormatResult(r *Result) string { return core.FormatResult(r) }

// OperatorCount counts relational operator nodes in a LERA term — the
// program-size metric of §5.1's merging claim.
func OperatorCount(t *Term) int { return lalg.OperatorCount(t) }

// SearchCount counts SEARCH nodes.
func SearchCount(t *Term) int { return lalg.SearchCount(t) }
