package core

// EXPLAIN [ANALYZE] — the human-facing surface of the observability
// layer (docs/OBSERVABILITY.md). Plain EXPLAIN translates and rewrites
// the query with tracing forced on, so the per-block rewrite spans and
// rule-application events show, but does not execute it. EXPLAIN ANALYZE
// runs the full pipeline with per-operator statistics collection and
// reports measured timings, row counts and per-round fixpoint deltas.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"lera/internal/esql"
	"lera/internal/lera"
	"lera/internal/obs"
	"lera/internal/rewrite"
	"lera/internal/translate"
)

// ExplainCtx executes one EXPLAIN [ANALYZE] statement. The rendered
// report is on Result.Message; the structured form on Result.Report.
func (s *Session) ExplainCtx(ctx context.Context, ex *esql.Explain) (*Result, error) {
	if ex.Analyze {
		res, err := s.execSelect(ctx, ex.Sel, true)
		if err != nil {
			return res, err
		}
		res.Kind = ResultExplain
		res.Message = renderExplain(res, true)
		return res, nil
	}

	// Plain EXPLAIN: translate + rewrite under a dedicated recorder,
	// skip execution entirely.
	rec := obs.NewRecorder("query")
	ctx = obs.NewContext(ctx, rec)
	rep := &QueryReport{}

	tSpan := rec.Begin("translate")
	t0 := time.Now()
	q, err := translate.Select(s.Cat, ex.Sel)
	rec.End(tSpan)
	rep.Phases.Translate = time.Since(t0)
	if err != nil {
		// A plain EXPLAIN executes nothing, so it is never a query in
		// lera_queries_total, failed or not; only the error is counted.
		s.obsError()
		return nil, err
	}
	res := &Result{Kind: ResultExplain, Initial: q, Rewritten: q, Report: rep}
	if s.Rewrite {
		rSpan := rec.Begin("rewrite")
		t0 = time.Now()
		// Plain EXPLAIN is read-only against the plan cache: it reports
		// whether the query would hit (and shows the cached plan when it
		// would) without counting, reordering or storing anything.
		if cached, oc := s.peekPlanCache(q); oc != nil && oc.Hit {
			res.Rewritten, res.Stats, res.Cache = cached, &rewrite.Stats{}, oc
		} else {
			res.Rewritten, res.Stats = s.rewriteGuarded(ctx, q)
			res.Cache = oc
		}
		rec.End(rSpan)
		rep.Phases.Rewrite = time.Since(t0)
		st := res.RewriteStats()
		rSpan.SetAttrs(
			obs.Int("checks", st.ConditionChecks),
			obs.Int("applications", st.Applications),
			obs.Int("rounds", st.Rounds))
	}
	rep.Trace = rec.Finish()
	res.Message = renderExplain(res, false)
	return res, nil
}

// renderExplain builds the textual EXPLAIN report. With analyze false the
// output carries no durations, so it is deterministic for a fixed catalog
// and rule base.
func renderExplain(res *Result, analyze bool) string {
	var sb strings.Builder
	sb.WriteString("plan (translated):\n")
	writeIndented(&sb, lera.Format(res.Initial))
	sb.WriteString("plan (rewritten):\n")
	writeIndented(&sb, lera.Format(res.Rewritten))
	st := res.RewriteStats()
	fmt.Fprintf(&sb, "rewrite: applications=%d condition_checks=%d match_attempts=%d rounds=%d\n",
		st.Applications, st.ConditionChecks, st.MatchAttempts, st.Rounds)
	if st.Degraded {
		fmt.Fprintf(&sb, "rewrite degraded: %s\n", st.DegradationReason)
	}
	if oc := res.Cache; oc != nil {
		fmt.Fprintf(&sb, "plan: %s\n", oc.Describe("cached", "cold"))
	}
	writeReport(&sb, res.Report, analyze)
	if analyze {
		fmt.Fprintf(&sb, "result: %d rows", len(res.Rows))
	}
	return strings.TrimRight(sb.String(), "\n")
}

// writeReport appends a query report's execution, trace and timings
// blocks — what EXPLAIN ANALYZE and a slow-ring entry both print. With
// analyze false the blocks carry no durations and the timings line is
// left out. A nil report writes nothing.
func writeReport(sb *strings.Builder, rep *QueryReport, analyze bool) {
	if rep == nil {
		return
	}
	if rep.Exec != nil {
		sb.WriteString("execution:\n")
		for _, c := range rep.Exec.Children {
			writeIndented(sb, c.Format(analyze))
		}
	}
	if rep.Trace != nil {
		sb.WriteString("trace:\n")
		writeIndented(sb, obs.FormatTree(rep.Trace, analyze))
	}
	if analyze {
		fmt.Fprintf(sb, "timings: parse=%s translate=%s rewrite=%s execute=%s\n",
			rep.Phases.Parse.Round(time.Microsecond),
			rep.Phases.Translate.Round(time.Microsecond),
			rep.Phases.Rewrite.Round(time.Microsecond),
			rep.Phases.Execute.Round(time.Microsecond))
	}
}

// writeIndented appends text line by line, each indented two spaces.
func writeIndented(sb *strings.Builder, text string) {
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		sb.WriteString("  ")
		sb.WriteString(line)
		sb.WriteByte('\n')
	}
}
