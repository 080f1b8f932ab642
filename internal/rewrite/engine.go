// Package rewrite implements the extensible rewrite engine of Section 4:
// it applies term-rewriting rules to query terms under constraints, runs
// rule methods (external functions), and drives the whole process with the
// block/sequence meta-rules of Section 4.2, where every *condition check*
// — not every successful application — decrements a block's budget.
//
// The engine is generic over the rule vocabulary: constraints, methods and
// right-hand-side builtins are registered in an Externals table, which is
// how the database implementor extends the optimizer without touching the
// engine (the paper's central extensibility claim).
//
// Compile once, run many: New compiles a rule base — each block's rules
// with their LHS head filters (index.go), its condition-check budget (the
// rule set's Block.Limit), the sequence to drive — after which an Engine
// is never written again, save for its pool of finished runs' scratch
// (a sync.Pool), and any number of goroutines may run queries through it
// at once. Everything one rewrite writes lives in a per-call run value:
// the cancellation context and trace recorder, the guard limits of the
// request, the site index and scratch bindings, the last committed term
// and the Stats. A run takes its value from the pool and puts it back
// scrubbed of every term, so the next run reuses its storage but sees
// nothing of the query before: a plan must be a function of the query and
// the rule base, never of how many queries the engine served before
// (plan-cache keys, EXPLAIN goldens and the serial/concurrent
// differential all lean on that).
package rewrite

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"lera/internal/catalog"
	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/obs"
	"lera/internal/rules"
	"lera/internal/term"
)

// Ctx is the evaluation context handed to constraints, methods and
// builtins: "a rule has a context, which is the query and the database on
// which it is applied" (Section 4.1).
//
// A run owns one Ctx, one Bindings and one site-path buffer and resets
// them for every match attempt, so an external must not retain the *Ctx
// or ctx.Bind past its call: both describe the next attempt by then.
// Terms are immutable and may be kept.
//
// The query around the match site is reachable only through EnvAtSite,
// InferAt and EnclosingRels, which all walk from the root to the site
// (walkToSite). That walk marks the attempt as one that read its context,
// and only an attempt that did not may be remembered as a failure of its
// rule at its subterm (failed, docs/PERF.md "Failed attempts are not
// repeated").
type Ctx struct {
	Cat  *catalog.Catalog
	Bind *term.Bindings
	Rule string // name of the rule being applied, if any

	root *term.Term // the whole query term being rewritten
	site term.Path  // path of the subterm being matched
	run  *runState
}

// Context returns the cancellation context of the current engine run, so
// long-running externals can abort cooperatively (context.Background
// outside a run).
func (c *Ctx) Context() context.Context {
	if c.run != nil {
		return c.run.ctx
	}
	return context.Background()
}

// walkToSite descends from the root to the match site, reconstructing the
// FIX/LET binder environment on the way. visit sees the root and then
// every node stepped into, each with the environment in scope at it; the
// environment at the site is returned.
func (c *Ctx) walkToSite(visit func(n *term.Term, env lera.Env)) lera.Env {
	if c.run != nil {
		c.run.at.readCtx = true
	}
	env := lera.Env{}
	node := c.root
	visit(node, env)
	for _, i := range c.site {
		var bound *term.Term // what the binder crossed at this step names
		switch {
		case lera.IsOp(node, lera.OpFix) && i == 1:
			bound = node
		case lera.IsOp(node, lera.OpLet) && i == 2:
			bound = node.Args[1]
		}
		if bound != nil {
			if s, err := lera.Infer(bound, c.Cat, env); err == nil {
				env = cloneEnv(env)
				env[strings.ToUpper(node.Args[0].Val.S)] = s
			}
		}
		if node.Kind != term.Fun || i >= len(node.Args) {
			break
		}
		node = node.Args[i]
		visit(node, env)
	}
	return env
}

// EnvAtSite reconstructs the FIX/LET binder environment in scope at the
// match site, so externals can run schema inference on subterms that
// reference fixpoint-bound relation names.
func (c *Ctx) EnvAtSite() lera.Env {
	return c.walkToSite(func(*term.Term, lera.Env) {})
}

// InferAt runs schema inference on a subterm using the binder environment
// at the match site.
func (c *Ctx) InferAt(t *term.Term) (*lera.Schema, error) {
	return lera.Infer(t, c.Cat, c.EnvAtSite())
}

// EnclosingRels returns the schemas of the relation list of the nearest
// relational operator enclosing (or at) the match site, so that
// type-sensitive constraints (ISA, ISOBJECT, REFER) can type ATTR
// references. The environment of FIX/LET binders crossed on the way down
// is respected.
func (c *Ctx) EnclosingRels() ([]*lera.Schema, error) {
	var best *term.Term
	var bestEnv lera.Env
	c.walkToSite(func(n *term.Term, env lera.Env) {
		switch {
		case lera.IsOp(n, lera.OpSearch), lera.IsOp(n, lera.OpFilter),
			lera.IsOp(n, lera.OpJoin), lera.IsOp(n, lera.OpNest),
			lera.IsOp(n, lera.OpUnnest):
			best, bestEnv = n, env
		}
	})
	if best == nil {
		return nil, fmt.Errorf("rewrite: no enclosing relational operator at %v", c.site)
	}
	var relTerms []*term.Term
	switch best.Functor {
	case lera.OpSearch:
		relTerms = best.Args[0].Args
	case lera.OpJoin:
		relTerms = []*term.Term{best.Args[0], best.Args[1]}
	default: // FILTER, NEST, UNNEST
		relTerms = []*term.Term{best.Args[0]}
	}
	out := make([]*lera.Schema, len(relTerms))
	for i, r := range relTerms {
		s, err := lera.Infer(r, c.Cat, bestEnv)
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}

func cloneEnv(e lera.Env) lera.Env {
	ne := lera.Env{}
	for k, v := range e {
		ne[k] = v
	}
	return ne
}

// ConstraintFn evaluates a rule constraint; args are instantiated under
// the current bindings (sequence variables arrive as LIST terms). args is
// valid only during the call: the slice is the run's scratch and is
// cleared when the call returns, so a constraint must not retain it (the
// terms in it are immutable and may be kept).
type ConstraintFn func(ctx *Ctx, args []*term.Term) (bool, error)

// MethodFn runs a rule method. Args are instantiated except for output
// variables, which arrive as unbound Vars the method binds through
// ctx.Bind. Returning ok=false vetoes the rule application (the method
// judged the transformation inapplicable); err reports a hard failure.
type MethodFn func(ctx *Ctx, args []*term.Term) (ok bool, err error)

// BuiltinFn evaluates a right-hand-side optimizer function (APPENDL,
// ANDMERGE, SET-UNION, ...); args are fully instantiated.
type BuiltinFn func(ctx *Ctx, args []*term.Term) (*term.Term, error)

// Externals is the registry of constraint, method and builtin functions —
// the "minimal set of basic functions ... built-in to increase the power
// of the language" (Section 4.1) plus implementor extensions.
type Externals struct {
	constraints map[string]ConstraintFn
	methods     map[string]MethodFn
	builtins    map[string]BuiltinFn
}

// NewExternals returns a registry pre-populated with the generic built-ins
// (ISA, EVALUATE, NOTMEMBER, comparison folding).
func NewExternals() *Externals {
	e := &Externals{
		constraints: map[string]ConstraintFn{},
		methods:     map[string]MethodFn{},
		builtins:    map[string]BuiltinFn{},
	}
	registerGenericExternals(e)
	return e
}

// RegisterConstraint installs a constraint function.
func (e *Externals) RegisterConstraint(name string, fn ConstraintFn) {
	e.constraints[strings.ToUpper(name)] = fn
}

// RegisterMethod installs a method.
func (e *Externals) RegisterMethod(name string, fn MethodFn) {
	e.methods[strings.ToUpper(name)] = fn
}

// RegisterBuiltin installs a right-hand-side builtin.
func (e *Externals) RegisterBuiltin(name string, fn BuiltinFn) {
	e.builtins[strings.ToUpper(name)] = fn
}

// HasConstraint, HasMethod and HasBuiltin report registration — used by
// rule-base lint checks to catch typos in rule text.
func (e *Externals) HasConstraint(name string) bool {
	_, ok := e.constraints[strings.ToUpper(name)]
	return ok
}

// HasMethod reports whether a method is registered.
func (e *Externals) HasMethod(name string) bool {
	_, ok := e.methods[strings.ToUpper(name)]
	return ok
}

// HasBuiltin reports whether a right-hand-side builtin is registered.
func (e *Externals) HasBuiltin(name string) bool {
	_, ok := e.builtins[strings.ToUpper(name)]
	return ok
}

// Stats aggregates engine work, the measurable currency of the paper's
// §4.2/§7 budget discussion.
type Stats struct {
	ConditionChecks int // LHS matches on which constraints were evaluated
	// MatchAttempts counts invocations of the backtracking matcher — one
	// per (rule, candidate site) pair tried. Unlike ConditionChecks (the
	// §4.2 budget currency, which by construction is identical between the
	// indexed and the full-scan engine), this is the work counter the rule
	// index actually shrinks: sites whose head functor or arity cannot
	// match a rule's LHS are never attempted.
	MatchAttempts int
	Applications  int // successful rewrites
	Rounds        int // sequence iterations executed
	// StepsLimit echoes the MaxSteps cap the run was budgeted with
	// (0 = unlimited), so consumers can report Applications against it
	// without holding the guard.Limits that produced the run.
	StepsLimit int

	// Degraded records graceful degradation: the rewrite failed, panicked
	// or exhausted a guard budget, and the session fell back to the best
	// safe plan (see internal/guard and docs/GUARDRAILS.md). The stats
	// above are then partial — the work done before the failure.
	Degraded          bool
	DegradationReason string
	// DegradationCode is the stable protocol code of the failure that
	// caused the degradation (guard.CodeOf of the rewrite error): the
	// same vocabulary servers, shells and harnesses print, so a
	// "STEP_BUDGET" in a leraserver response and in an edsql notice name
	// the same event. Empty when not degraded.
	DegradationCode string
}

// DefaultMaxChecks bounds runaway rule systems.
const DefaultMaxChecks = 1_000_000

// maxChecks caps total condition checks across all blocks, guarding
// against non-terminating rule sets with infinite block limits
// (termination is undecidable, §4.2). Tests lower it.
var maxChecks = DefaultMaxChecks

// Engine is a compiled rule set. It is immutable after New, but for its
// pool of run scratch, and safe for concurrent use (provided nobody
// registers externals or edits the rule set meanwhile); what a rewrite
// writes lives in its run.
type Engine struct {
	RS  *rules.RuleSet
	Ext *Externals
	Cat *catalog.Catalog
	// inj, when non-nil, is hit (by uppercase external name) before every
	// constraint, method and builtin invocation, so armed faults fire
	// deterministically inside live rewrites — the shared chaos/test path
	// (see guard/faultinject.go for the determinism contract). Injected
	// panics and errors surface as typed ExternalErrors exactly like
	// faults in real implementor code.
	inj *guard.Injector

	blocks map[string]*block // every declared block, by name
	seq    []*block          // the blocks one round applies, in order
	rounds int               // the sequence meta-rule's round limit
	// heads numbers the concrete LHS head functors of the compiled rules:
	// the site index keeps one bucket per number (index.go).
	heads map[string]int32
	// noMemo turns the failed-attempt memo off; only tests set it, to
	// hold the memo to the run that repeats every attempt.
	noMemo bool

	// pool holds finished runs' *runState, scrubbed of terms (release):
	// the Engine's only mutable field.
	pool sync.Pool
}

// block is a rules.Block compiled for the match loop: its rules resolved
// and classified (index.go), and its §4.2 condition-check allowance per
// visit — the Block's Limit, with rules.Infinite as math.MaxInt.
type block struct {
	name   string
	rules  []blockRule
	budget int
}

type blockRule struct {
	*rules.Rule
	filter lhsFilter
}

// New compiles a rule set. If no sequence is declared, all blocks run once
// in declaration order; if no blocks are declared, all rules form one
// implicit saturating block. inj may be nil (no fault injection).
func New(rs *rules.RuleSet, ext *Externals, cat *catalog.Catalog, inj *guard.Injector) *Engine {
	e := &Engine{RS: rs, Ext: ext, Cat: cat, inj: inj, blocks: make(map[string]*block, len(rs.Blocks)), rounds: 1, heads: map[string]int32{}}
	for name, b := range rs.Blocks {
		e.blocks[name] = e.compile(b)
	}
	order := rs.BlockOrder
	switch seq := rs.Sequence; {
	case seq != nil:
		order = seq.Blocks
		e.rounds = seq.Limit
		if e.rounds == rules.Infinite {
			e.rounds = math.MaxInt32
		}
	case len(order) == 0:
		e.seq = []*block{e.compile(&rules.Block{Name: "(all)", Rules: rs.RuleOrder, Limit: rules.Infinite})}
	}
	for _, n := range order {
		e.seq = append(e.seq, e.blocks[n])
	}
	return e
}

func (e *Engine) compile(b *rules.Block) *block {
	cb := &block{name: b.Name, budget: b.Limit, rules: make([]blockRule, len(b.Rules))}
	if b.Limit == rules.Infinite {
		cb.budget = math.MaxInt
	}
	for i, rn := range b.Rules {
		r := e.RS.Rules[rn]
		f := filterFor(r.LHS)
		if f.kind == headExact {
			h, ok := e.heads[f.functor]
			if !ok {
				h = int32(len(e.heads))
				e.heads[f.functor] = h
			}
			f.head = h
		}
		cb.rules[i] = blockRule{Rule: r, filter: f}
	}
	return cb
}

// runState is one rewrite in flight: everything RunCtx or RunBlockCtx writes.
type runState struct {
	e    *Engine
	ctx  context.Context // cancellation context of the run
	rec  *obs.Recorder   // trace recorder carried by ctx (nil = off)
	lim  guard.Limits    // MaxSteps and MaxTermSize of the request
	st   *Stats
	last *term.Term // term after the last committed application

	// Hot-path state (docs/PERF.md "Match attempts without allocation"):
	// the per-pass site index, and the bindings (with the matcher's goal
	// stack), Ctx, site-path buffer, match continuation and constraint
	// argument stack every attempt reuses, each reset in place — so an
	// attempt that fails to match allocates nothing. The storage outlives
	// the run in the Engine's pool; no term it referred to does.
	ix     siteIndex
	bind   term.Bindings
	cx     Ctx
	site   term.Path
	accept func() bool // r.acceptMatch, bound once
	at     attempt
	// args is the stack constraint arguments are instantiated into: one
	// frame per registered-constraint or ISA call, popped and cleared when
	// the call returns (evalConstraint).
	args []*term.Term

	// failed remembers the attempts of this run that ended siteNoMatch
	// without reading their context: rule and subterm, with the condition
	// checks each spent (docs/PERF.md "Failed attempts are not repeated").
	failed map[failKey]int
}

// failKey names one attempt: a rule at a subterm. Terms are immutable and
// an application rebuilds only the spine above its site, so a subterm no
// application touched keeps its pointer from pass to pass.
type failKey struct {
	rule *rules.Rule
	sub  *term.Term
}

// maxFailed caps the failures one run remembers; past it, attempts run as
// if there were no memo.
const maxFailed = 1 << 12

// attempt is what the match continuation needs of the attempt in flight.
// The site is a site index entry, whose path is materialized into
// runState.site only once a match completes.
type attempt struct {
	rule     *rules.Rule
	budget   *int
	id       int32
	haveSite bool
	readCtx  bool // an external walked to the site (Ctx.walkToSite)
	err      error
}

// newRun starts a rewrite of q on a pooled state, or a new one.
func (e *Engine) newRun(ctx context.Context, q *term.Term, lim guard.Limits) *runState {
	if ctx == nil {
		ctx = context.Background()
	}
	r, _ := e.pool.Get().(*runState)
	if r == nil {
		r = &runState{e: e}
		r.accept = r.acceptMatch
		r.ix.heads = e.heads
	}
	r.ctx, r.rec, r.lim = ctx, obs.FromContext(ctx), lim
	r.st, r.last = &Stats{StepsLimit: lim.MaxSteps}, q
	return r
}

// release ends a run: it clears every term pointer the state holds — site
// entries, the bindings trail and the matcher's arenas, the Ctx, the
// failed-attempt memo; the argument stack is empty and cleared already,
// each frame by popArgs — and puts the state back in the pool. A run that
// panics is not released; its state is left to the collector.
func (e *Engine) release(r *runState) {
	r.ix.release()
	r.bind.Release()
	clear(r.failed)
	r.cx, r.at = Ctx{}, attempt{}
	r.ctx, r.rec, r.st, r.last = nil, nil, nil, nil
	e.pool.Put(r)
}

// RunCtx rewrites q under the rule set's sequence meta-rule. Cancellation
// is checked on every condition check; of lim, MaxSteps caps successful
// applications across all blocks and MaxTermSize the query term's node
// count (the wall-clock deadline arrives through ctx).
//
// On error the returned term is the query as of the last committed rule
// application — the best safe plan to fall back to (q itself when nothing
// committed) — and the Stats hold the work done up to the failure.
func (e *Engine) RunCtx(ctx context.Context, q *term.Term, lim guard.Limits) (*term.Term, *Stats, error) {
	r := e.newRun(ctx, q, lim)
	out, err := r.runSequence(q)
	st := r.st
	e.release(r)
	return out, st, err
}

// runSequence drives the sequence meta-rule; on error it returns the last
// committed term.
func (r *runState) runSequence(q *term.Term) (*term.Term, error) {
	for i := 0; i < r.e.rounds; i++ {
		r.st.Rounds++
		var roundSpan *obs.Span
		if r.rec != nil {
			roundSpan = r.rec.Begin("rewrite.round", obs.Int("round", r.st.Rounds))
		}
		before := q
		for _, b := range r.e.seq {
			var err error
			q, err = r.runBlock(q, b)
			if err != nil {
				r.rec.End(roundSpan)
				return r.last, err
			}
		}
		r.rec.End(roundSpan)
		if term.Equal(before, q) {
			break // fixpoint of the whole sequence
		}
	}
	return q, nil
}

// RunBlockCtx applies a single named block to q — one §4.2 block alone,
// the unit the rule libraries' tests pin — under RunCtx's per-request
// inputs, with the same contract on error.
func (e *Engine) RunBlockCtx(ctx context.Context, q *term.Term, blockName string, lim guard.Limits) (*term.Term, *Stats, error) {
	b, ok := e.blocks[blockName]
	if !ok {
		return nil, nil, fmt.Errorf("rewrite: unknown block %q", blockName)
	}
	r := e.newRun(ctx, q, lim)
	out, err := r.runBlock(q, b)
	if err != nil {
		out = r.last
	}
	st := r.st
	e.release(r)
	return out, st, err
}

func (r *runState) runBlock(q *term.Term, b *block) (*term.Term, error) {
	st := r.st
	budget := b.budget
	var blockSpan *obs.Span
	if r.rec != nil {
		blockSpan = r.rec.Begin("rewrite.block", obs.Str("block", b.name))
		checks0, apps0 := st.ConditionChecks, st.Applications
		defer func() {
			blockSpan.SetAttrs(
				obs.Int("checks", st.ConditionChecks-checks0),
				obs.Int("applications", st.Applications-apps0))
			r.rec.End(blockSpan)
		}()
	}
	if budget > 0 {
		// One walk per pass: the site index stays valid for every rule of
		// the pass, since the term only changes on a committed application.
		r.ix.rebuild(q)
	}
	for budget > 0 {
		applied := false
		for i := range b.rules {
			nq, ok, err := r.applyOnce(q, &b.rules[i], b.name, &budget)
			if err != nil {
				return nil, err
			}
			if ok {
				q = nq
				r.last = q
				applied = true
				r.ix.rebuild(q)
				break // restart from the first rule of the block
			}
			if budget <= 0 {
				break
			}
		}
		if !applied {
			break
		}
	}
	if budget <= 0 && b.budget > 0 && r.rec != nil {
		// §4.2 budget consumption: the block spent its whole
		// condition-check allowance (a block of limit 0 had none to spend).
		r.rec.Event("budget.exhausted", obs.Str("block", b.name))
	}
	return q, nil
}

// siteOutcome reports what trying one rule at one site produced.
type siteOutcome int

const (
	// siteNoMatch: the LHS did not match (or every binding was rejected by
	// constraints, or the methods vetoed); keep trying later sites.
	siteNoMatch siteOutcome = iota
	// siteApplied: the rule was applied; the returned term is the rewritten
	// query.
	siteApplied
	// siteStop: stop trying sites for this rule — the budget ran out mid-
	// search or an error was raised (returned alongside).
	siteStop
)

// tryRuleAtSite attempts one rule at one Fun site, site index entry id.
//
// An attempt this run already saw fail is replayed, not run: what it
// spent is charged again and nothing else happens. It is remembered only
// if it read no context, no injector is armed, and the block's budget
// outlasted it; it is replayed only if the budget and the check cap
// still cover it. Under those conditions running it again would take the
// same matches, get the same verdicts from every constraint and method,
// and so spend the same checks and fail again: every §4.2 decrement is
// the one the repeated attempt would have made.
func (r *runState) tryRuleAtSite(q *term.Term, rule *rules.Rule, blockName string, sub *term.Term, id int32, budget *int) (*term.Term, siteOutcome, error) {
	if r.e.inj != nil || r.e.noMemo {
		// A replay calls no external, so it would change an armed
		// injector's hit sequence.
		return r.attemptAt(q, rule, blockName, sub, id, budget)
	}
	st, key := r.st, failKey{rule, sub}
	if c, ok := r.failed[key]; ok && *budget >= c && st.ConditionChecks+c <= maxChecks {
		if c > 0 {
			if err := guard.CheckCtx(r.ctx); err != nil {
				// The attempt run again would fail its first check here.
				*budget--
				st.ConditionChecks++
				return nil, siteStop, err
			}
		}
		*budget -= c
		st.ConditionChecks += c
		return nil, siteNoMatch, nil
	}
	checks0 := st.ConditionChecks
	res, out, err := r.attemptAt(q, rule, blockName, sub, id, budget)
	if out == siteNoMatch && !r.at.readCtx && *budget >= 0 && len(r.failed) < maxFailed {
		if r.failed == nil {
			r.failed = make(map[failKey]int)
		}
		r.failed[key] = st.ConditionChecks - checks0
	}
	return res, out, err
}

// attemptAt runs one attempt of rule at site sub. Nothing is allocated
// until a match completes: the attempt reuses the run's bindings, Ctx and
// continuation, and the site's root path is only materialized (into the
// run's buffer) once a complete LHS match needs it for constraints,
// methods, replacement and traces.
func (r *runState) attemptAt(q *term.Term, rule *rules.Rule, blockName string, sub *term.Term, id int32, budget *int) (*term.Term, siteOutcome, error) {
	e, st := r.e, r.st
	st.MatchAttempts++
	r.bind.Reset()
	r.cx = Ctx{Cat: e.Cat, Bind: &r.bind, Rule: rule.Name, root: q, run: r}
	r.at = attempt{rule: rule, budget: budget, id: id}
	matched := term.Match(rule.LHS, sub, &r.bind, r.accept)
	if err := r.at.err; err != nil {
		return nil, siteStop, err
	}
	if !matched {
		return nil, siteNoMatch, nil
	}
	ctx := &r.cx
	// Run methods; a method may veto.
	for _, m := range rule.Methods {
		ok, err := e.runMethod(ctx, m)
		if err != nil {
			return nil, siteStop, fmt.Errorf("rewrite: rule %s, method %s: %w", rule.Name, m.Functor, err)
		}
		if !ok {
			return nil, siteNoMatch, nil // veto: keep trying other sites
		}
	}
	rhs, err := e.instantiate(ctx, rule.RHS)
	if err != nil {
		return nil, siteStop, fmt.Errorf("rewrite: rule %s: %w", rule.Name, err)
	}
	if term.Equal(rhs, sub) {
		// No-change application: treat as inapplicable here (keeps
		// idempotent semantic rules from looping).
		return nil, siteNoMatch, nil
	}
	if max := r.lim.MaxSteps; max > 0 && st.Applications >= max {
		return nil, siteStop, fmt.Errorf("rewrite: %w: %d rule applications reached (cap %d)",
			guard.ErrStepBudget, st.Applications, max)
	}
	result := term.ReplaceAt(q, ctx.site, rhs)
	if max := r.lim.MaxTermSize; max > 0 {
		if sz := result.Size(); sz > max {
			return nil, siteStop, fmt.Errorf("rewrite: rule %s: %w: term grew to %d nodes (cap %d)",
				rule.Name, guard.ErrTermSize, sz, max)
		}
	}
	st.Applications++
	if r.rec != nil {
		// The one record of a rule application: which rule fired, where,
		// and what it cost (cumulative §4.2 checks at commit time; term
		// size reads are O(1) via the memoized size).
		r.rec.Event("rule.apply",
			obs.Str("rule", rule.Name), obs.Str("block", blockName),
			obs.Str("site", sitePath(ctx.site)),
			obs.Int("checks", st.ConditionChecks), obs.Int("size", result.Size()))
	}
	return result, siteApplied, nil
}

// acceptMatch is the match continuation of every attempt: one condition
// check (the LHS matched and the constraints are evaluated — §4.2 budget
// semantics). It returns true to stop the search, either accepting the
// match or recording an error in r.at.err.
func (r *runState) acceptMatch() bool {
	e, st, at := r.e, r.st, &r.at
	*at.budget--
	st.ConditionChecks++
	if err := guard.CheckCtx(r.ctx); err != nil {
		at.err = err
		return true
	}
	if st.ConditionChecks > maxChecks {
		at.err = fmt.Errorf("rewrite: rule system exceeded %d condition checks (non-terminating rule set?)", maxChecks)
		return true
	}
	if !at.haveSite {
		r.site = r.ix.path(r.site, at.id)
		r.cx.site = r.site
		at.haveSite = true
	}
	ok, err := e.checkConstraints(&r.cx, at.rule)
	if err != nil {
		at.err = fmt.Errorf("rewrite: rule %s: %w", at.rule.Name, err)
		return true
	}
	return ok && *at.budget >= 0
}

func (e *Engine) checkConstraints(ctx *Ctx, rule *rules.Rule) (bool, error) {
	for _, c := range rule.Constraints {
		ok, err := e.evalConstraintSafe(ctx, c)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// evalConstraintSafe isolates a panicking constraint (or any external it
// reaches, e.g. an ADT function folded by EvalGround) as a typed
// ExternalError carrying the rule, external name and match site. The
// fault injector, when armed, is hit first under the same isolation: an
// injected panic or error is indistinguishable in shape from a real
// implementor fault.
func (e *Engine) evalConstraintSafe(ctx *Ctx, c *term.Term) (ok bool, err error) {
	base := len(ctx.run.args)
	defer func() {
		if p := recover(); p != nil {
			ctx.run.popArgs(base)
			ok = false
			err = guard.NewExternalPanic(guard.ExtConstraint, ctx.Rule, externalName(c), sitePath(ctx.site), p)
		}
	}()
	if err := e.injectorHit(ctx, externalName(c)); err != nil {
		return false, &guard.ExternalError{Kind: guard.ExtConstraint, Rule: ctx.Rule, External: externalName(c), Site: sitePath(ctx.site), Err: err}
	}
	return e.evalConstraint(ctx, c)
}

// injectorHit reports one external invocation to the armed fault
// injector, if any. A FaultStall consults the run's cancellation context;
// a FaultPanic unwinds into the caller's panic isolation.
func (e *Engine) injectorHit(ctx *Ctx, name string) error {
	if e.inj == nil {
		return nil
	}
	return e.inj.Hit(ctx.Context(), strings.ToUpper(name))
}

func (e *Engine) runMethod(ctx *Ctx, call *term.Term) (ok bool, err error) {
	if call.Kind != term.Fun {
		return false, fmt.Errorf("method %s is not a call", call)
	}
	fn, found := e.Ext.methods[strings.ToUpper(call.Functor)]
	if !found {
		return false, fmt.Errorf("unknown method %q", call.Functor)
	}
	args := make([]*term.Term, len(call.Args))
	for i, a := range call.Args {
		args[i] = e.instArg(ctx, a)
	}
	defer func() {
		if p := recover(); p != nil {
			ok = false
			err = guard.NewExternalPanic(guard.ExtMethod, ctx.Rule, call.Functor, sitePath(ctx.site), p)
		}
	}()
	if err := e.injectorHit(ctx, call.Functor); err != nil {
		return false, &guard.ExternalError{Kind: guard.ExtMethod, Rule: ctx.Rule, External: call.Functor, Site: sitePath(ctx.site), Err: err}
	}
	return fn(ctx, args)
}

// externalName labels a constraint term for error reporting.
func externalName(c *term.Term) string {
	if c.Kind == term.Fun {
		return c.Functor
	}
	return c.String()
}

// sitePath renders a match-site path for error reporting, in the same
// "[1 0 2]" form fmt.Sprint gave, without reflection.
func sitePath(p term.Path) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, x := range p {
		if i > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(strconv.Itoa(x))
	}
	sb.WriteByte(']')
	return sb.String()
}

// instArg instantiates a constraint/method argument: bound variables are
// replaced, bound sequence variables become LIST terms, unbound variables
// are passed through (method outputs), and compound terms are instantiated
// recursively. A compound argument nothing in which changes — a ground
// one, say — is returned as it is, and argument lists are only copied once
// an argument changed.
func (e *Engine) instArg(ctx *Ctx, a *term.Term) *term.Term {
	switch a.Kind {
	case term.Var:
		if t, ok := ctx.Bind.Var(a.Name); ok {
			return t
		}
	case term.SeqVar:
		if seq, ok := ctx.Bind.Seq(a.Name); ok {
			return term.List(seq...)
		}
	case term.Fun:
		var args []*term.Term // nil until an argument changes
		for i, sub := range a.Args {
			if sub.Kind == term.SeqVar {
				if seq, ok := ctx.Bind.Seq(sub.Name); ok {
					if args == nil {
						args = append(make([]*term.Term, 0, len(a.Args)+len(seq)), a.Args[:i]...)
					}
					// Splice into constructors (SET(x*, ...) keeps
					// constructor semantics); elsewhere a collection
					// variable denotes the collection itself, so wrap
					// it (MEMBER(y, x*) sees one LIST argument).
					if term.IsConstructor(a.Functor) {
						args = append(args, seq...)
					} else {
						args = append(args, term.List(seq...))
					}
					continue
				}
			}
			na := e.instArg(ctx, sub)
			if na != sub && args == nil {
				args = append(make([]*term.Term, 0, len(a.Args)), a.Args[:i]...)
			}
			if args != nil {
				args = append(args, na)
			}
		}
		if a.VarHead {
			if f, ok := ctx.Bind.Fun(a.Functor); ok {
				if args == nil {
					args = a.Args
				}
				return term.F(f, args...)
			}
		}
		if args == nil {
			return a
		}
		if a.VarHead {
			return term.FV(a.Functor, args...)
		}
		return term.F(a.Functor, args...)
	}
	return a
}

// instantiate builds the rule's right-hand side: apply bindings, then
// evaluate registered builtins bottom-up.
func (e *Engine) instantiate(ctx *Ctx, rhs *term.Term) (*term.Term, error) {
	applied, err := ctx.Bind.Apply(rhs)
	if err != nil {
		return nil, err
	}
	var evalErr error
	out := term.Rewrite(applied, func(s *term.Term) *term.Term {
		if evalErr != nil || s.Kind != term.Fun {
			return s
		}
		if fn, ok := e.Ext.builtins[strings.ToUpper(s.Functor)]; ok {
			r, err := e.callBuiltin(ctx, s, fn)
			if err != nil {
				evalErr = err
				return s
			}
			return r
		}
		return s
	})
	if evalErr != nil {
		return nil, evalErr
	}
	return out, nil
}

// callBuiltin isolates a panicking right-hand-side builtin as a typed
// ExternalError.
func (e *Engine) callBuiltin(ctx *Ctx, s *term.Term, fn BuiltinFn) (t *term.Term, err error) {
	defer func() {
		if p := recover(); p != nil {
			t = nil
			err = guard.NewExternalPanic(guard.ExtBuiltin, ctx.Rule, s.Functor, sitePath(ctx.site), p)
		}
	}()
	if err := e.injectorHit(ctx, s.Functor); err != nil {
		return nil, &guard.ExternalError{Kind: guard.ExtBuiltin, Rule: ctx.Rule, External: s.Functor, Site: sitePath(ctx.site), Err: err}
	}
	return fn(ctx, s.Args)
}
