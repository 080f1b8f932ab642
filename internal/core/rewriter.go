// Package core assembles the complete rule-based query rewriter of the
// paper: the type-checking rules (§3.3/§5), the syntactic merging and
// permutation rules (Figures 7-8), the Alexander fixpoint reduction
// (Figure 9), the compiled integrity constraints (Figure 10) and the
// semantic/simplification rules (Figures 11-12), driven by the
// block/sequence meta-rules of §4.2.
//
// The rewriter is extensible exactly as the paper describes: database
// implementors add rules (WithRules), integrity constraints
// (WithConstraints / catalog.AddConstraint) and ADT functions
// (catalog ADT registry) without touching the engine.
package core

import (
	"context"
	"fmt"
	"strings"

	"lera/internal/catalog"
	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/lopt"
	"lera/internal/magic"
	"lera/internal/rewrite"
	"lera/internal/rulecheck"
	"lera/internal/rules"
	"lera/internal/semantic"
	"lera/internal/term"
)

// DefaultSequence is the master optimizer sequence (DESIGN.md §5): type
// checking, normalisation, merging, pushing, fixpoint reduction, merging
// again (the paper notes search merging "takes advantage of being applied
// more than once ... before and after pushing selections through
// fixpoints"), constraint addition, semantic augmentation, simplification
// and a final merge, the whole list applied up to twice.
const DefaultSequence = `
seq({typecheck, normalize, merge, push, fixpoint, merge, constraints, semantic, simplify, merge}, 2);
`

// constraintLimit is the constraints block's declared budget; override it
// with WithBlockLimit("constraints", n).
const constraintLimit = 100

// Option configures a Rewriter.
type Option func(*config)

type config struct {
	dynamicLimits bool
	extraRules    []string
	constraintSrc []string
	blockLimits   map[string]int
	ruleCheck     bool
	injector      *guard.Injector
	planCache     int
	planCacheVal  int
}

// WithDynamicLimits enables the §7 extension: a key-lookup-simple query
// runs with limit 0 on every block WithBlockLimit does not name.
func WithDynamicLimits() Option { return func(c *config) { c.dynamicLimits = true } }

// WithRules adds implementor-written rules, blocks and a master sequence
// in the rule language: same-named rules and blocks override built-ins,
// and a seq(...) declaration replaces the sequence (the last one given
// wins).
func WithRules(src string) Option {
	return func(c *config) { c.extraRules = append(c.extraRules, src) }
}

// WithConstraints adds Figure 10-style integrity constraints.
func WithConstraints(src string) Option {
	return func(c *config) { c.constraintSrc = append(c.constraintSrc, src) }
}

// WithBlockLimit sets a single block's budget in the assembled rule base,
// in place of the limit its rule text declares: a non-negative number of
// condition checks, or rules.Infinite. A zero limit turns the block off —
// the §7 knob. New fails when the assembled rule base has no block of
// that name.
func WithBlockLimit(name string, limit int) Option {
	return func(c *config) {
		if c.blockLimits == nil {
			c.blockLimits = map[string]int{}
		}
		c.blockLimits[name] = limit
	}
}

// WithInjector arms a deterministic fault injector across the whole
// pipeline: every rewrite-side external (constraint, method, builtin) and
// every execution-side ADT function hits the injector by uppercase name
// before it runs, so armed faults — panics, errors, stalls — fire inside
// live queries exactly as they do in unit tests (the determinism contract
// is documented in internal/guard/faultinject.go). The engine's compiled
// comparisons hit it where the generic evaluator would call the comparison
// ADT, so an armed run executes the same kernel as an unarmed one. This is
// the one path leraserver's chaos mode and the guard test suite share;
// leraserver applies it only when an injector exists (-chaos, or one its
// embedder supplied). A nil injector is ignored: nothing is hit or counted.
func WithInjector(inj *guard.Injector) Option {
	return func(c *config) { c.injector = inj }
}

// WithRuleCheck runs the static rule-base verifier (internal/rulecheck)
// over the assembled rule set at construction time: error-level findings
// refuse the rule base, warnings are retained and available through
// CheckDiagnostics. The paper's implementor adds rules without
// recompiling the engine; this is the safety net that keeps a buggy rule
// from silently corrupting every query it matches.
func WithRuleCheck() Option { return func(c *config) { c.ruleCheck = true } }

// Rewriter is the assembled query rewriter: one rule base, parsed,
// validated and compiled by New and never written afterwards, so a
// session and all its forks rewrite through the same *Rewriter at once.
// RS is everything that runs: the built-in and WithRules sources, the
// integrity constraints, and every WithBlockLimit budget.
// Everything a rewrite produces — plan, statistics, the fallback term of
// a failed run — is returned by the call that ran it; its rule
// applications are recorded as rule.apply events on the recorder its
// context carries.
type Rewriter struct {
	Cat *catalog.Catalog
	RS  *rules.RuleSet
	Ext *rewrite.Externals
	eng *rewrite.Engine
	// simpleEng is nil unless WithDynamicLimits: RS with limit 0 on every
	// block WithBlockLimit does not name, the engine a §7 simple query
	// runs through.
	simpleEng *rewrite.Engine

	// schemaVersion is Cat.SchemaVersion() as New read the catalog's
	// constraints: a session rebuilds its rewriter when the two differ.
	schemaVersion uint64

	// checkDiags are the non-fatal findings of the WithRuleCheck lint.
	checkDiags []rulecheck.Diagnostic

	// fingerprint is what the plan-cache environment (planEnv in
	// plancache.go) knows of the rule base: RS's fingerprint, followed by
	// the simple engine's when there is one.
	fingerprint string
}

// New builds a rewriter over a catalog.
func New(cat *catalog.Catalog, opts ...Option) (*Rewriter, error) {
	return build(cat, newConfig(opts))
}

// newConfig applies an option list to the defaults — once per session,
// which keeps the result and rebuilds its rewriter from it.
func newConfig(opts []Option) config {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// build assembles and compiles the rule base New describes.
func build(cat *catalog.Catalog, cfg config) (*Rewriter, error) {
	schemaVersion := cat.SchemaVersion()

	ext := lopt.Externals()
	magic.RegisterExternals(ext)
	semantic.RegisterExternals(ext)
	registerTypecheckExternals(ext)

	rs := rules.NewRuleSet()
	rs.Merge(rules.MustParse(TypecheckRules))
	rs.Merge(lopt.RuleSet())
	rs.Merge(rules.MustParse(magic.FixpointRules))
	rs.Merge(semantic.RuleSet())

	// Integrity constraints: from options and from the catalog.
	var constraintRules []string
	constraintRules = append(constraintRules, cfg.constraintSrc...)
	consRS := rules.NewRuleSet()
	var consNames []string
	for _, src := range constraintRules {
		parsed, err := semantic.ParseConstraints(src, constraintLimit)
		if err != nil {
			return nil, err
		}
		for _, n := range parsed.RuleOrder {
			consRS.Rules[n] = parsed.Rules[n]
			consRS.RuleOrder = append(consRS.RuleOrder, n)
			consNames = append(consNames, n)
		}
	}
	for _, r := range cat.Constraints() {
		compiled, err := semantic.CompileConstraint(r)
		if err != nil {
			return nil, err
		}
		consRS.Rules[compiled.Name] = compiled
		consRS.RuleOrder = append(consRS.RuleOrder, compiled.Name)
		consNames = append(consNames, compiled.Name)
	}
	consRS.Blocks["constraints"] = &rules.Block{Name: "constraints", Rules: consNames, Limit: constraintLimit}
	consRS.BlockOrder = []string{"constraints"}
	rs.Merge(consRS)

	seq, err := rules.ParseSequence(DefaultSequence)
	if err != nil {
		return nil, err
	}
	rs.Sequence = seq

	for _, src := range cfg.extraRules {
		extra, err := rules.Parse(src)
		if err != nil {
			return nil, err
		}
		rs.Merge(extra)
	}
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	// Every Block was parsed by this build, so setting its limit changes
	// nothing another rewriter holds.
	for name, limit := range cfg.blockLimits {
		b, ok := rs.Blocks[name]
		if !ok {
			return nil, fmt.Errorf("core: block limit for unknown block %q", name)
		}
		if limit < rules.Infinite {
			return nil, fmt.Errorf("core: block %q: limit %d is below %d (infinite)", name, limit, rules.Infinite)
		}
		b.Limit = limit
	}

	rw := &Rewriter{Cat: cat, RS: rs, Ext: ext, schemaVersion: schemaVersion, fingerprint: rs.Fingerprint()}
	if cfg.ruleCheck {
		diags := rulecheck.Lint(rs, ext, cat)
		var errs []string
		for _, d := range diags {
			if d.Severity == rulecheck.SevError {
				errs = append(errs, d.String())
			} else {
				rw.checkDiags = append(rw.checkDiags, d)
			}
		}
		if len(errs) > 0 {
			return nil, fmt.Errorf("core: rule base failed verification:\n  %s", strings.Join(errs, "\n  "))
		}
	}
	rw.eng = rewrite.New(rs, ext, cat, cfg.injector)
	if cfg.dynamicLimits {
		simple := *rs
		simple.Blocks = make(map[string]*rules.Block, len(rs.Blocks))
		for name, b := range rs.Blocks {
			if _, set := cfg.blockLimits[name]; !set {
				off := *b
				off.Limit = 0
				b = &off
			}
			simple.Blocks[name] = b
		}
		rw.simpleEng = rewrite.New(&simple, ext, cat, cfg.injector)
		rw.fingerprint += simple.Fingerprint()
	}
	return rw, nil
}

// CheckDiagnostics returns the non-fatal findings recorded by the
// WithRuleCheck construction-time lint (nil unless the option was given).
func (r *Rewriter) CheckDiagnostics() []rulecheck.Diagnostic { return r.checkDiags }

// CheckRules verifies the assembled rule base: the full static lint plus
// differential semantic testing of every rule against a deterministic
// generated database, all bounded by lim (the wall-clock budget applies
// to each rewrite and each execution phase separately, exactly as a
// session query does).
func (r *Rewriter) CheckRules(ctx context.Context, lim guard.Limits) ([]rulecheck.Diagnostic, error) {
	ds := rulecheck.Lint(r.RS, r.Ext, r.Cat)
	diff, err := rulecheck.Diff(ctx, r.RS, r.Ext, r.Cat, rulecheck.DiffOptions{Limits: lim})
	ds = append(ds, diff...)
	return ds, err
}

// complexity scores a query for the dynamic-limit policy (§7): operator
// count plus conjunct count, recursion weighted heavily.
func complexity(q *term.Term) int {
	score := lera.OperatorCount(q)
	term.Visit(q, func(s *term.Term) bool {
		if lera.IsOp(s, lera.OpFix) {
			score += 10
		}
		if lera.IsOp(s, lera.EAnds) && len(s.Args) == 1 {
			score += len(s.Args[0].Args)
		}
		return true
	})
	return score
}

// simpleThreshold is the complexity at or below which a query is "a
// search on a key" and gets zero budgets (§7).
const simpleThreshold = 3

// RewriteCtx runs the full optimizer sequence under a cancellation
// context and a guard budget. On error the returned Stats reflect the
// work done before the failure and the returned term is the best safe
// intermediate to fall back to: the query as of the last committed rule
// application (q itself when none committed). Under WithDynamicLimits a
// simple query runs through the simple engine.
//
// A plan that fails lera.Validate is never returned: a rule whose
// right-hand side builds a malformed operator would make the engine
// panic or misread its arguments, so the rewrite fails and falls back to
// q, the query as translated.
func (r *Rewriter) RewriteCtx(ctx context.Context, q *term.Term, lim guard.Limits) (*term.Term, *rewrite.Stats, error) {
	eng := r.eng
	if r.simpleEng != nil && complexity(q) <= simpleThreshold {
		eng = r.simpleEng
	}
	rq, st, err := eng.RunCtx(ctx, q, lim)
	if rq != q {
		if verr := lera.Validate(rq); verr != nil {
			if err == nil {
				err = fmt.Errorf("rewrite: a rule built a malformed plan: %w", verr)
			}
			return q, st, err
		}
	}
	return rq, st, err
}
