package core

// The plan cache's text key (docs/PLANCACHE.md "Text key"): a query text
// that reached an entry through the term path is learned on that entry —
// its translated term, template, bindings and columns — and the same text
// again is served from the entry without being parsed, translated,
// templatized or typed. A text is learned at its first hit on the term
// path that was not validated, so a text seen once costs one map lookup.
// A text whose template was rejected is learned on the exact entry the
// term path keys it by. What is served is what the term path derived from
// that very text, so the text path is the term path's answer by
// construction; a sampled validation takes the term path and checks the
// learned text against it.

import (
	"context"
	"slices"
	"time"

	"lera/internal/obs"
	"lera/internal/plancache"
	"lera/internal/rewrite"
	"lera/internal/term"
	"lera/internal/value"
)

// queryText is what QueryCtx and the term path tell each other about a
// query's text: the learned text the term path is to check, and the
// template, bindings and rejection of a hit that was not validated, which
// the text is learned with.
type queryText struct {
	known    *plancache.Text
	template *term.Term
	params   []value.Value
	rejected bool
}

// lookupText is the plan cache's answer for text src: its learned text
// and the plan that serves it, counted as a hit; or the learned text
// alone, when the term path must check it; or nothing.
func (s *Session) lookupText(src string) (*plancache.Text, *term.Term) {
	if s.Plans == nil || !s.Rewrite {
		return nil, nil
	}
	rw, err := s.Rewriter()
	if err != nil {
		return nil, nil
	}
	return s.Plans.LookupText(src, s.planEnv(rw), s.cfg.planCacheVal)
}

// serveText answers learned text t from its entry's plan: Initial and the
// columns are the text's, Rewritten is the plan with the text's bindings
// substituted. On a text hit the parse phase was the lookup, translate is
// nothing and rewrite the substitution.
func (s *Session) serveText(ctx context.Context, t *plancache.Text, plan *term.Term, parse time.Duration) (*Result, error) {
	rec := obs.FromContext(ctx)
	var rep *QueryReport
	if s.Obs != nil {
		rep = &QueryReport{Phases: PhaseTimings{Parse: parse}}
	}
	rSpan := rec.Begin("rewrite")
	t0 := time.Now()
	// A plan the rewriter left as it was binds to Initial itself: terms
	// are immutable, and the substitution would equal it.
	bound := t.Initial
	var err error
	if !term.Equal(plan, t.Key()) {
		bound, err = plancache.Substitute(plan, t.Params)
	}
	rec.End(rSpan)
	if rep != nil {
		rep.Phases.Rewrite = time.Since(t0)
	}
	if err != nil {
		s.obsQueryDone(nil, err)
		return nil, err
	}
	if rec.Enabled() {
		rSpan.SetAttrs(obs.Int("checks", 0), obs.Int("applications", 0), obs.Int("rounds", 0), obs.Str("plan", "cached"))
	}
	res := &Result{
		Kind:      ResultRows,
		Columns:   t.Columns[:len(t.Columns):len(t.Columns)],
		Initial:   t.Initial,
		Rewritten: bound,
		Stats:     &rewrite.Stats{},
		Report:    rep,
		Cache:     &plancache.Outcome{Hit: true, TextHit: true, Rejected: t.Rejected, TemplateHash: t.Key().Hash(), NParams: len(t.Params)},
	}
	return s.execute(ctx, res, false)
}

// learnText learns text src, which the term path just served as res
// from the hit qt reports.
func (s *Session) learnText(src string, qt *queryText, res *Result) {
	rw, err := s.Rewriter()
	if err != nil {
		return
	}
	s.Plans.LearnText(&plancache.Text{
		Src:      src,
		Initial:  res.Initial,
		Template: qt.template,
		Params:   qt.params,
		Columns:  slices.Clone(res.Columns),
		Rejected: qt.rejected,
	}, s.planEnv(rw))
}

// checkText is the term path's check of learned text t, which it served
// as res instead of the text path: on a hit, the text's translated term
// and columns must be the ones it derived. A disagreement is counted on
// the outcome and drops the text.
func (s *Session) checkText(t *plancache.Text, res *Result) {
	oc := res.Cache
	if oc == nil || !oc.Hit {
		return
	}
	if !term.Equal(res.Initial, t.Initial) || !slices.Equal(res.Columns, t.Columns) {
		oc.TextMismatch = true
		s.Plans.ForgetText(t)
	}
}
