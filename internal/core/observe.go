package core

// Session-level observability (docs/OBSERVABILITY.md): per-query phase
// timings, the span/event trace and metric updates. Everything here is
// gated on Session.Obs — a session without an observer runs the exact
// pre-observability code path.

import (
	"time"

	"lera/internal/engine"
	"lera/internal/obs"
)

// PhaseTimings are the wall-clock durations of the pipeline phases for
// one query. Parse is only attributed on the QueryCtx path (batch parsing
// in ExecCtx covers many statements at once and is recorded in the
// lera_parse_seconds histogram instead).
type PhaseTimings struct {
	Parse     time.Duration `json:"parseNs"`
	Translate time.Duration `json:"translateNs"`
	Rewrite   time.Duration `json:"rewriteNs"`
	Execute   time.Duration `json:"executeNs"`
}

// QueryReport is the per-query observability record, attached to
// Result.Report whenever the session has an observer (and always for
// EXPLAIN ANALYZE). Trace and Exec are populated only when tracing /
// statistics collection were on for the query.
type QueryReport struct {
	Phases PhaseTimings
	// Trace is the completed span tree: parse -> translate ->
	// rewrite.round/rewrite.block -> execute (nil unless traced). The
	// operators under execute are in Exec, not in the span tree.
	Trace *obs.Span
	// Exec is the engine's per-operator statistics tree (nil unless
	// collected). The root is the synthetic "eval" node.
	Exec *engine.OpStats
	// ExecCounters is the engine work-counter delta for this query alone
	// (the flat totals, present whenever the report is).
	ExecCounters engine.Counters
	// Spill is the out-of-core activity delta for this query alone: spill
	// partitions written, bytes spilled, records read back. All zero
	// unless the memory governor moved an operator out of core
	// (docs/PERF.md, "Memory governor & spill").
	Spill engine.SpillStats
}

// Metric names (see docs/OBSERVABILITY.md for the full inventory).
const (
	mQueries       = "lera_queries_total"
	mStatements    = "lera_statements_total"
	mErrors        = "lera_query_errors_total"
	mDegraded      = "lera_rewrite_degraded_total"
	mChecks        = "lera_rewrite_condition_checks_total"
	mAttempts      = "lera_rewrite_match_attempts_total"
	mApplications  = "lera_rule_applications_total"
	mScanned       = "lera_exec_rows_scanned_total"
	mJoinPairs     = "lera_exec_join_pairs_total"
	mEmitted       = "lera_exec_rows_emitted_total"
	mPredEvals     = "lera_exec_pred_evals_total"
	mFixIters      = "lera_exec_fixpoint_iterations_total"
	mSpillParts    = "lera_engine_spill_partitions_total"
	mSpillBytes    = "lera_engine_spill_bytes_total"
	mSpillReads    = "lera_engine_spill_reads_total"
	mMemPeak       = "lera_engine_mem_peak_bytes"
	mCatRelations  = "lera_catalog_relations"
	mCatViews      = "lera_catalog_views"
	mPlanHits      = "lera_plancache_hits_total"
	mPlanMisses    = "lera_plancache_misses_total"
	mPlanEvictions = "lera_plancache_evictions_total"
	mPlanInvalid   = "lera_plancache_invalidations_total"
	mPlanValFail   = "lera_plancache_validation_failures_total"
	hPlanHitSecs   = "lera_plancache_hit_seconds"
	hParseSeconds  = "lera_parse_seconds"
	hTransSeconds  = "lera_translate_seconds"
	hRewSeconds    = "lera_rewrite_seconds"
	hExecSeconds   = "lera_execute_seconds"
	hQueryRows     = "lera_query_rows"
	hRewriteChecks = "lera_rewrite_checks"
)

// obsParse records one parse phase (batch or single-query).
func (s *Session) obsParse(d time.Duration, err error) {
	if s.Obs == nil {
		return
	}
	s.Obs.Metrics.Histogram(hParseSeconds, "ESQL parse wall time per Parse call.", obs.DefaultDurationBuckets).Observe(d.Seconds())
	if err != nil {
		s.obsError()
	}
}

// obsError counts one query or statement that returned an error.
func (s *Session) obsError() {
	if s.Obs != nil {
		s.Obs.Metrics.Counter(mErrors, "Queries and statements that returned an error.").Inc()
	}
}

// obsStatement counts one executed statement.
func (s *Session) obsStatement() {
	if s.Obs == nil {
		return
	}
	s.Obs.Metrics.Counter(mStatements, "ESQL statements executed (DDL, INSERT and queries).").Inc()
}

// obsCatalog refreshes the catalog-size gauges after a DDL statement.
func (s *Session) obsCatalog() {
	if s.Obs == nil {
		return
	}
	m := s.Obs.Metrics
	m.Gauge(mCatRelations, "Relations currently declared in the catalog.").Set(int64(len(s.Cat.RelationNames())))
	m.Gauge(mCatViews, "Views currently declared in the catalog.").Set(int64(len(s.Cat.ViewNames())))
}

// obsQueryDone folds one finished SELECT into the metrics registry.
func (s *Session) obsQueryDone(res *Result, execErr error) {
	if s.Obs == nil {
		return
	}
	m := s.Obs.Metrics
	m.Counter(mQueries, "SELECT queries executed.").Inc()
	if execErr != nil {
		s.obsError()
	}
	if res == nil {
		return
	}
	st := res.RewriteStats()
	m.Counter(mChecks, "Rewrite condition checks, the §4.2 budget currency.").Add(int64(st.ConditionChecks))
	m.Counter(mAttempts, "Backtracking-matcher invocations (what the rule index shrinks).").Add(int64(st.MatchAttempts))
	m.Counter(mApplications, "Committed rule applications.").Add(int64(st.Applications))
	m.Histogram(hRewriteChecks, "Condition checks per query.", obs.DefaultCountBuckets).Observe(float64(st.ConditionChecks))
	if st.Degraded {
		m.Counter(mDegraded, "Queries answered from the guard fallback plan.").Inc()
	}
	if oc := res.Cache; oc != nil {
		// The ledger invariant (docs/PLANCACHE.md): every SELECT that
		// reaches the rewrite phase of a cache-armed session counts
		// exactly one hit or miss, so hits+misses equals
		// lera_queries_total minus translate failures.
		if oc.Hit {
			m.Counter(mPlanHits, "Queries whose plan was served from the plan cache.").Inc()
			if res.Report != nil {
				m.Histogram(hPlanHitSecs, "Rewrite-phase wall time on plan-cache hits.", obs.DefaultDurationBuckets).Observe(res.Report.Phases.Rewrite.Seconds())
			}
		} else {
			m.Counter(mPlanMisses, "Queries that required a cold rewrite.").Inc()
		}
		if oc.Evicted > 0 {
			m.Counter(mPlanEvictions, "Plan-cache entries evicted by capacity.").Add(int64(oc.Evicted))
		}
		if oc.Invalidated {
			m.Counter(mPlanInvalid, "Plan-cache entries dropped as stale (rule-base, knob or catalog change) or failing validation.").Inc()
		}
		if oc.ValidationFailed {
			m.Counter(mPlanValFail, "Sampled hit validations that disagreed with a cold rewrite.").Inc()
		}
	}
	m.Histogram(hQueryRows, "Rows returned per query.", obs.DefaultCountBuckets).Observe(float64(len(res.Rows)))
	if rep := res.Report; rep != nil {
		c := rep.ExecCounters
		m.Counter(mScanned, "Rows read from stored relations.").Add(int64(c.Scanned))
		m.Counter(mJoinPairs, "Rows produced by join steps before filtering.").Add(int64(c.JoinPairs))
		m.Counter(mEmitted, "Rows emitted by relational operators.").Add(int64(c.Emitted))
		m.Counter(mPredEvals, "Qualification conjuncts evaluated against rows.").Add(int64(c.PredEvals))
		m.Counter(mFixIters, "Fixpoint rounds executed.").Add(int64(c.FixIterations))
		if sp := rep.Spill; sp.Partitions > 0 || sp.Bytes > 0 || sp.Reads > 0 {
			m.Counter(mSpillParts, "Spill partitions written by the memory governor.").Add(sp.Partitions)
			m.Counter(mSpillBytes, "Bytes spilled by the memory governor.").Add(sp.Bytes)
			m.Counter(mSpillReads, "Spill records read back during out-of-core processing.").Add(sp.Reads)
		}
		if mp := res.Budget.MemPeakBytes; mp > 0 {
			// A gauge of the largest tracked-memory peak seen, so operators
			// can tell how close governed queries run to their grant.
			g := m.Gauge(mMemPeak, "High-water mark of engine tracked memory over observed queries.")
			if mp > g.Value() {
				g.Set(mp)
			}
		}
		m.Histogram(hTransSeconds, "Translate wall time per query.", obs.DefaultDurationBuckets).Observe(rep.Phases.Translate.Seconds())
		m.Histogram(hRewSeconds, "Rewrite wall time per query.", obs.DefaultDurationBuckets).Observe(rep.Phases.Rewrite.Seconds())
		m.Histogram(hExecSeconds, "Execute wall time per query.", obs.DefaultDurationBuckets).Observe(rep.Phases.Execute.Seconds())
	}
}

// counterDelta returns the engine work done between two Counters
// snapshots, attributing the flat totals to a single query.
func counterDelta(before, after engine.Counters) engine.Counters {
	return engine.Counters{
		Scanned:       after.Scanned - before.Scanned,
		JoinPairs:     after.JoinPairs - before.JoinPairs,
		Emitted:       after.Emitted - before.Emitted,
		PredEvals:     after.PredEvals - before.PredEvals,
		FixIterations: after.FixIterations - before.FixIterations,
	}
}

// spillDelta returns the out-of-core activity between two SpillStats
// snapshots.
func spillDelta(before, after engine.SpillStats) engine.SpillStats {
	return engine.SpillStats{
		Partitions: after.Partitions - before.Partitions,
		Bytes:      after.Bytes - before.Bytes,
		Reads:      after.Reads - before.Reads,
	}
}
