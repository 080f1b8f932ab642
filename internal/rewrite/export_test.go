package rewrite

import (
	"context"
	"fmt"
	"strings"

	"lera/internal/guard"
	"lera/internal/term"
	"lera/internal/value"
)

// FullScan returns a copy of e whose compiled rules all carry the headAny
// filter, so every rule is attempted at every Fun site of the term in
// preorder, and which keeps no failed-attempt memo, so every attempt is
// run: the match loop as it was before the rule/site index and the memo,
// kept as the oracle both are pinned to. A differential against it checks
// exactly what the filters and the memo add.
func FullScan(e *Engine) *Engine {
	c := &Engine{RS: e.RS, Ext: e.Ext, Cat: e.Cat, inj: e.inj, blocks: make(map[string]*block, len(e.blocks)), rounds: e.rounds, noMemo: true}
	scan := func(b *block) *block {
		nb := *b
		nb.rules = make([]blockRule, len(b.rules))
		for i, r := range b.rules {
			nb.rules[i] = blockRule{Rule: r.Rule, filter: lhsFilter{kind: headAny}}
		}
		return &nb
	}
	for name, b := range e.blocks {
		c.blocks[name] = scan(b)
	}
	for _, b := range e.seq {
		c.seq = append(c.seq, scan(b))
	}
	return c
}

// WithoutMemo returns e compiled again, indexed as e is but keeping no
// failed-attempt memo: the oracle the memo alone is pinned to.
func WithoutMemo(e *Engine) *Engine {
	c := New(e.RS, e.Ext, e.Cat, e.inj)
	c.noMemo = true
	return c
}

// SetMaxChecks lowers the cap on a run's condition checks and returns
// the function that restores it.
func SetMaxChecks(n int) (restore func()) {
	saved := maxChecks
	maxChecks = n
	return func() { maxChecks = saved }
}

// SitePaths indexes root and returns, for every site index entry in id
// order, its node and the root path the index materializes for it.
func SitePaths(root *term.Term) (nodes []*term.Term, paths []term.Path) {
	var ix siteIndex
	ix.rebuild(root)
	for id, e := range ix.sites {
		nodes = append(nodes, e.node)
		paths = append(paths, ix.path(nil, int32(id)))
	}
	return nodes, paths
}

// evalConstraintOracle is the constraint evaluator as it was before checks
// stopped building terms: instantiate the whole constraint, then dispatch
// on the instantiated head. TestConstraintChecksMatchOracle pins
// evalConstraint to it.
func (e *Engine) evalConstraintOracle(ctx *Ctx, c *term.Term) (bool, error) {
	inst := e.instArg(ctx, c)
	switch inst.Kind {
	case term.Const:
		if inst.Val.K == value.KBool {
			return inst.Val.B(), nil
		}
		return false, fmt.Errorf("non-boolean constraint %s", inst)
	case term.Var, term.SeqVar:
		return false, fmt.Errorf("unbound constraint %s", inst)
	}
	switch strings.ToUpper(inst.Functor) {
	case "AND":
		for _, a := range inst.Args {
			ok, err := e.evalConstraintOracle(ctx, a)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case "OR":
		for _, a := range inst.Args {
			ok, err := e.evalConstraintOracle(ctx, a)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case "NOT":
		if len(inst.Args) != 1 {
			return false, fmt.Errorf("NOT takes one constraint")
		}
		ok, err := e.evalConstraintOracle(ctx, inst.Args[0])
		return !ok, err
	case "ISA":
		return evalISA(ctx, inst.Args)
	}
	if fn, ok := e.Ext.constraints[strings.ToUpper(inst.Functor)]; ok {
		return fn(ctx, inst.Args)
	}
	if v, ok := EvalGround(ctx, inst); ok && v.K == value.KBool {
		return v.B(), nil
	}
	return false, fmt.Errorf("unknown or non-ground constraint %s", inst)
}

// CheckBothWays evaluates constraint c of rule at site of root under the
// bindings b with the engine's evaluator and with the oracle, and renders
// each verdict as "ok=<bool> err=<text>".
func CheckBothWays(e *Engine, root *term.Term, site term.Path, b *term.Bindings, rule string, c *term.Term) (got, want string) {
	r := e.newRun(context.Background(), root, guard.Limits{})
	defer e.release(r)
	r.cx = Ctx{Cat: e.Cat, Bind: b, Rule: rule, root: root, site: site, run: r}
	verdict := func(ok bool, err error) string {
		if err != nil {
			return fmt.Sprintf("ok=%v err=%s", ok, err)
		}
		return fmt.Sprintf("ok=%v err=<nil>", ok)
	}
	got = verdict(e.evalConstraint(&r.cx, c))
	if len(r.args) != 0 {
		got += fmt.Sprintf(" (argument stack left %d deep)", len(r.args))
	}
	want = verdict(e.evalConstraintOracle(&r.cx, c))
	return got, want
}
