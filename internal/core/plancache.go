package core

// Session plan cache (docs/PLANCACHE.md): the layer between translate
// and rewrite that makes repeated query shapes nearly free. The flow
// for one SELECT, when WithPlanCache is armed:
//
//  1. Templatize the translated term (internal/plancache): lift value
//     constants into a binding vector, leaving a structural template.
//  2. Look the template up under the session's cache environment — the
//     rule-base fingerprint, the guard budget shape and the catalog
//     schema version (planEnv below). A hit substitutes
//     the bindings into the cached plan and skips the rewriter
//     entirely; an entry whose environment changed is dropped and
//     counted as an invalidation.
//  3. On a miss the concrete term is rewritten exactly as an uncached
//     session would (so this query's result, stats and trace are
//     untouched by caching), then the template itself is rewritten once
//     — outside the query's observability scope — and the candidate is
//     accepted only if substituting the bindings into the template's
//     plan reproduces the concrete plan bit-for-bit. Shapes that fail
//     (a rewrite rule consumed a lifted constant: constant folding,
//     range contradictions, constraint-driven member() elimination)
//     are remembered and fall back to exact-term caching.
//
// Degraded rewrites are never cached. Cached plans are immutable terms
// shared read-only across a fork pool; constants never live in a
// template, so a shared cache cannot leak data between sessions.

import (
	"context"

	"lera/internal/catalog"
	"lera/internal/lera"
	"lera/internal/obs"
	"lera/internal/plancache"
	"lera/internal/rewrite"
	"lera/internal/term"
	"lera/internal/value"
)

// WithPlanCache arms a plan cache of n entries on the session. Forks
// share the parent's cache (see Session.Fork); rule-base or catalog
// differences between sharers are kept apart by the cache environment
// key, never by luck.
func WithPlanCache(n int) Option { return func(c *config) { c.planCache = n } }

// WithPlanCacheValidation re-validates every n'th hit of each cached
// template against a cold rewrite of the concrete query: if a
// value-dependent rule would have produced a different plan for this
// binding, the entry is invalidated, the cold plan is used, and the
// disagreement is counted (lera_plancache_* / \cache). n = 1 validates
// every hit — full determinism insurance at full rewrite cost; 0 (the
// default) trusts the store-time round-trip check.
func WithPlanCacheValidation(n int) Option { return func(c *config) { c.planCacheVal = n } }

// planEnv is the environment guarding every cache entry: everything
// besides the template that the rewrite output depends on. If any of it
// changes, stale entries die on their next lookup (observable as
// invalidations). The rule-base fingerprint covers every block budget
// and the dynamic-limit policy (Rewriter.fingerprint). No rule reads
// stored data, so no data version is part of it. cat is the catalog
// itself: a learned text (text.go) skips translation, so its entry must
// not serve a session of another catalog at the same version.
type planEnv struct {
	rules                 string
	maxSteps, maxTermSize int
	schema                uint64
	cat                   *catalog.Catalog
}

// planEnv returns the environment of a query s rewrites through rw.
func (s *Session) planEnv(rw *Rewriter) planEnv {
	return planEnv{rules: rw.fingerprint, maxSteps: s.Limits.MaxSteps, maxTermSize: s.Limits.MaxTermSize, schema: s.Cat.SchemaVersion(), cat: s.Cat}
}

// planKey is how the cache files query q: the environment guarding its
// entries, its template and lifted bindings, the lookup key — the
// template, or q itself for a parameterized shape whose template failed
// validation, so substitution is a no-op — and the Outcome header
// reporting them. rewritePlan and the read-only peekPlanCache both key
// through it.
func (s *Session) planKey(rw *Rewriter, q *term.Term) (env planEnv, tmpl, key *term.Term, params []value.Value, out *plancache.Outcome) {
	env = s.planEnv(rw)
	tmpl, params = plancache.Templatize(q)
	key = tmpl
	rejected := len(params) > 0 && s.Plans.Rejected(tmpl.Hash())
	if rejected {
		key = q
	}
	out = &plancache.Outcome{TemplateHash: key.Hash(), NParams: len(params), Rejected: rejected}
	return env, tmpl, key, params, out
}

// rewritePlan is the rewrite phase of execSelect: rewriteGuarded when
// no cache is armed, else the cache-aware path described at the top of
// this file. The returned Outcome is nil exactly when the cache did not
// participate (no cache, or no usable rewriter). qt, when QueryCtx gives
// one, receives the template and bindings of a hit that was not validated.
func (s *Session) rewritePlan(ctx context.Context, q *term.Term, qt *queryText) (*term.Term, *rewrite.Stats, *plancache.Outcome, *lera.Schema) {
	if s.Plans == nil {
		plan, st, schema := s.rewriteGuarded(ctx, q)
		return plan, st, nil, schema
	}
	rw, err := s.Rewriter()
	if err != nil {
		// rewriteGuarded reports the broken rule base as a degradation.
		plan, st, schema := s.rewriteGuarded(ctx, q)
		return plan, st, nil, schema
	}
	env, tmpl, key, params, out := s.planKey(rw, q)

	plan, nparams, ordinal, status := s.Plans.Lookup(key, env)
	switch status {
	case plancache.Hit:
		bound, serr := plancache.Substitute(plan, params)
		if serr == nil {
			if every := s.cfg.planCacheVal; every > 0 && nparams > 0 && ordinal%uint64(every) == 0 {
				return s.validateHit(ctx, q, key, bound, out)
			}
			out.Hit = true
			if qt != nil {
				qt.template, qt.params, qt.rejected = tmpl, params, out.Rejected
			}
			return bound, &rewrite.Stats{}, out, nil
		}
		// A plan referencing bindings we do not have is a corrupt entry;
		// drop it and treat the query as a miss.
		s.Plans.FailValidation(key)
		out.Invalidated = true
	case plancache.Stale:
		out.Invalidated = true
	}

	// Miss: the concrete term takes today's exact rewrite path, so this
	// query's plan, stats and spans are identical to an uncached run.
	plan, stats, schema := s.rewriteGuarded(ctx, q)
	if stats.Degraded {
		return plan, stats, out, schema // degraded plans are never cached
	}
	if len(params) == 0 || out.Rejected {
		out.Evicted = s.Plans.Store(key, plan, 0, env)
		return plan, stats, out, schema
	}

	// First sighting of a parameterized shape: rewrite the template once
	// (outside the query's observability scope) and accept it only if
	// substituting this query's bindings reproduces the concrete plan.
	if tplan, ok := s.rewriteTemplate(ctx, rw, tmpl); ok {
		if check, serr := plancache.Substitute(tplan, params); serr == nil && term.Equal(check, plan) {
			out.Evicted = s.Plans.Store(tmpl, tplan, len(params), env)
			return plan, stats, out, schema
		}
	}
	s.Plans.Reject(tmpl.Hash())
	out.Rejected = true
	out.Evicted += s.Plans.Store(q, plan, 0, env)
	return plan, stats, out, schema
}

// validateHit re-derives the plan for a sampled cache hit and compares
// it with the substituted cached plan. Agreement serves the hit (with
// the honest cost of the check in the stats); disagreement invalidates
// the entry and serves the cold plan, so a WithPlanCacheValidation(1)
// session is bit-identical to an uncached one on every query.
func (s *Session) validateHit(ctx context.Context, q, key, bound *term.Term, out *plancache.Outcome) (*term.Term, *rewrite.Stats, *plancache.Outcome, *lera.Schema) {
	cold, coldStats, schema := s.rewriteGuarded(obs.NewContext(ctx, nil), q)
	out.Validated = true
	if coldStats.Degraded || !term.Equal(cold, bound) {
		s.Plans.FailValidation(key)
		out.ValidationFailed = true
		out.Invalidated = true
		return cold, coldStats, out, schema
	}
	out.Hit = true
	return bound, coldStats, out, schema
}

// rewriteTemplate rewrites a templatized term under the session limits
// but outside the query's observability scope: no spans, no trace, no
// metric attribution — the template derivation is cache bookkeeping,
// not query work. Failure (error or degradation) just means the shape
// is not template-cacheable right now.
func (s *Session) rewriteTemplate(ctx context.Context, rw *Rewriter, tmpl *term.Term) (*term.Term, bool) {
	rwCtx, cancel := s.phaseCtx(obs.NewContext(ctx, nil))
	defer cancel()
	tplan, _, err := rw.RewriteCtx(rwCtx, tmpl, s.Limits)
	if err != nil {
		return nil, false
	}
	return tplan, true
}

// peekPlanCache is the read-only probe used by plain EXPLAIN: report
// whether the query would hit, and the plan it would get, without
// touching hit/miss counters, LRU order or stored entries.
func (s *Session) peekPlanCache(q *term.Term) (*term.Term, *plancache.Outcome) {
	if s.Plans == nil {
		return nil, nil
	}
	rw, err := s.Rewriter()
	if err != nil {
		return nil, nil
	}
	env, _, key, params, out := s.planKey(rw, q)
	plan, _, ok := s.Plans.Peek(key, env)
	if !ok {
		return nil, out
	}
	bound, serr := plancache.Substitute(plan, params)
	if serr != nil {
		return nil, out
	}
	out.Hit = true
	return bound, out
}
