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
	"lera/internal/guard"
	lalg "lera/internal/lera"
	"lera/internal/obs"
	"lera/internal/plancache"
	"lera/internal/rulecheck"
	"lera/internal/term"
)

// Session is the full pipeline: ESQL text in, declarations, stored rows
// and executed (rewritten) query results out.
type Session = core.Session

// Result is the outcome of one executed statement.
type Result = core.Result

// ResultRows is the kind of a Result that carries a query's rows.
const ResultRows = core.ResultRows

// Rewriter is the assembled rule-based rewriter.
type Rewriter = core.Rewriter

// Option configures a Rewriter or Session.
type Option = core.Option

// Catalog is the schema catalog (types, relations, views, constraints).
type Catalog = catalog.Catalog

// Term is the uniform term representation shared by queries and rules.
type Term = term.Term

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

// ErrRowBudget marks the Limits.MaxRows materialization cap; test for it
// with errors.Is.
var ErrRowBudget = guard.ErrRowBudget

// Code is the stable protocol error-code vocabulary shared by the server
// protocols, edsql and benchrunner (docs/SERVER.md). Classify any
// pipeline error with CodeOf.
type Code = guard.Code

// CodeOf classifies an error from any pipeline layer into its protocol
// code (INTERNAL when unrecognized; nil maps to OK).
func CodeOf(err error) Code { return guard.CodeOf(err) }

// NewSession creates a session with an empty catalog and database.
func NewSession(opts ...Option) *Session { return core.NewSession(opts...) }

// NewRewriter builds a rewriter over an existing catalog.
func NewRewriter(cat *Catalog, opts ...Option) (*Rewriter, error) { return core.New(cat, opts...) }

// Rewriter options (see the paper's §4.2 and §7).
var (
	// WithRules adds implementor-written rules in the rule language.
	WithRules = core.WithRules
	// WithConstraints adds Figure 10-style integrity constraints.
	WithConstraints = core.WithConstraints
	// WithBlockLimit sets one block's budget in the assembled rule base; a
	// zero limit turns the block off (§7).
	WithBlockLimit = core.WithBlockLimit
	// WithRuleCheck statically verifies the assembled rule base at
	// construction time: error-level findings refuse the rule base,
	// advisory findings are kept on Rewriter.CheckDiagnostics. See
	// docs/RULES.md ("Validating your rules").
	WithRuleCheck = core.WithRuleCheck
	// WithPlanCache arms a bounded LRU of rewritten plans keyed by the
	// query's template under the rule-base fingerprint, the guard budget
	// shape and the catalog's schema version, so repeated query shapes skip
	// the rewriter (docs/PLANCACHE.md).
	WithPlanCache = core.WithPlanCache
	// WithPlanCacheValidation re-validates every n'th cache hit against
	// a cold rewrite, invalidating entries that disagree.
	WithPlanCacheValidation = core.WithPlanCacheValidation
)

// PlanCacheOutcome is the per-query cache record on Result.Cache.
type PlanCacheOutcome = plancache.Outcome

// Severities of the rule-base verifier's findings (internal/rulecheck),
// which Session.CheckRules, Rewriter.CheckRules and the rulecheck CLI
// report.
const (
	SevWarn  = rulecheck.SevWarn
	SevError = rulecheck.SevError
)

// --- observability (internal/obs, docs/OBSERVABILITY.md) ---

// Observer is the session-level observability sink: a metrics registry
// plus a per-query tracing switch. Attach one with Session.Obs; nil
// disables the layer at zero cost.
type Observer = obs.Observer

// Span is one timed region of an observed query's trace.
type Span = obs.Span

// NewObserver returns an observer with a fresh metrics registry and
// tracing off.
func NewObserver() *Observer { return obs.NewObserver() }

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
