package rewrite

// Generic externals: the constraint and method functions that belong to
// the rule language itself rather than to LERA — ISA type checking,
// constant evaluation (EVALUATE, used by the Figure 12 simplification
// rules), and ground-term comparison. LERA-specific externals (SUBSTITUTE,
// REFER, ALEXANDER, ...) are registered by the packages that own them.

import (
	"fmt"
	"strings"

	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/types"
	"lera/internal/value"
)

// EvalGround evaluates a ground term to a runtime value using the
// catalog's ADT registry: constants evaluate to themselves, constructor
// terms to collection/tuple values, and pure registered functions fold.
// The boolean result reports evaluability (non-ground or impure terms are
// simply not evaluable, which constraint evaluation treats as "condition
// not established").
func EvalGround(ctx *Ctx, t *term.Term) (value.Value, bool) {
	switch t.Kind {
	case term.Const:
		return t.Val, true
	case term.Fun:
		args := make([]value.Value, len(t.Args))
		for i, a := range t.Args {
			v, ok := EvalGround(ctx, a)
			if !ok {
				return value.Null, false
			}
			args[i] = v
		}
		switch t.Functor {
		case term.FSet:
			return value.NewSet(args...), true
		case term.FBag:
			return value.NewBag(args...), true
		case term.FList:
			return value.NewList(args...), true
		case term.FArray:
			return value.NewArray(args...), true
		case term.FTuple:
			names := make([]string, len(args))
			for i := range names {
				names[i] = fmt.Sprintf("f%d", i+1)
			}
			return value.NewTuple(names, args), true
		case lera.EAnds, lera.EOrs:
			// ANDS(SET(...)) / ORS(SET(...)) over ground formulas.
			if len(t.Args) == 1 {
				all := t.Functor == lera.EAnds
				inner := args[0]
				for _, e := range inner.Elems {
					if e.K != value.KBool {
						return value.Null, false
					}
					if all && !e.B() {
						return value.False, true
					}
					if !all && e.B() {
						return value.True, true
					}
				}
				return value.Bool(all), true
			}
			return value.Null, false
		}
		if ent, ok := ctx.Cat.ADTs.Lookup(t.Functor); ok && ent.Pure {
			v, err := ctx.Cat.ADTs.Call(t.Functor, args)
			if err != nil {
				return value.Null, false
			}
			return v, true
		}
	}
	return value.Null, false
}

// evalConstraint evaluates one rule constraint under the context. It
// dispatches on the constraint pattern's head, so a check builds no term
// it does not keep: AND, OR and NOT recurse on the pattern's arguments,
// and ISA and the registered constraints get only their arguments
// instantiated, into a frame of the run's argument stack. Only a bare
// variable or a function-variable head — whose head the bindings decide —
// and the ground-evaluation fallback instantiate the whole constraint.
func (e *Engine) evalConstraint(ctx *Ctx, c *term.Term) (bool, error) {
	if c.Kind != term.Fun || c.VarHead {
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
		c = inst
	}
	name := strings.ToUpper(c.Functor)
	switch name {
	case "AND":
		for _, a := range c.Args {
			ok, err := e.evalConstraint(ctx, a)
			if err != nil || !ok {
				return false, err
			}
		}
		return true, nil
	case "OR":
		for _, a := range c.Args {
			ok, err := e.evalConstraint(ctx, a)
			if err != nil {
				return false, err
			}
			if ok {
				return true, nil
			}
		}
		return false, nil
	case "NOT":
		if len(c.Args) != 1 {
			return false, fmt.Errorf("NOT takes one constraint")
		}
		ok, err := e.evalConstraint(ctx, c.Args[0])
		return !ok, err
	case "ISA":
		return e.callConstraint(ctx, c.Args, evalISA)
	}
	if fn, ok := e.Ext.constraints[name]; ok {
		return e.callConstraint(ctx, c.Args, fn)
	}
	// Fallback: ground evaluation (comparisons, MEMBER on literal
	// collections, f = TRUE, ...).
	inst := e.instArg(ctx, c)
	if v, ok := EvalGround(ctx, inst); ok && v.K == value.KBool {
		return v.B(), nil
	}
	return false, fmt.Errorf("unknown or non-ground constraint %s", inst)
}

// callConstraint calls fn on the constraint arguments pats, instantiated
// as instArg would inside the constraint term (a bound collection
// variable arrives as one LIST), in a frame of the run's argument stack
// that is cleared when fn returns.
func (e *Engine) callConstraint(ctx *Ctx, pats []*term.Term, fn ConstraintFn) (bool, error) {
	r := ctx.run
	base := len(r.args)
	for _, a := range pats {
		if a.Kind == term.SeqVar {
			if seq, ok := ctx.Bind.Seq(a.Name); ok {
				r.args = append(r.args, term.List(seq...))
				continue
			}
		}
		r.args = append(r.args, e.instArg(ctx, a))
	}
	n := len(r.args)
	ok, err := fn(ctx, r.args[base:n:n])
	r.popArgs(base)
	return ok, err
}

// popArgs clears the argument stack down to base.
func (r *runState) popArgs(base int) {
	clear(r.args[base:])
	r.args = r.args[:base]
}

// evalISA implements the ISA predicate of Section 4.1 over three argument
// shapes: ISA(x, constant) tests constant-hood (Figure 12); ISA(expr,
// TypeName) types a query expression at the match site; ISA(T1, T2)
// relates two named types.
func evalISA(ctx *Ctx, args []*term.Term) (bool, error) {
	if len(args) != 2 {
		return false, fmt.Errorf("ISA takes 2 arguments")
	}
	x, y := args[0], args[1]
	yName := ""
	if y.Kind == term.Const && y.Val.K == value.KString {
		yName = y.Val.S
	} else {
		return false, nil
	}
	if strings.EqualFold(yName, "constant") {
		return x.IsGround() && isConstExpr(x), nil
	}
	xt, err := typeOfAtSite(ctx, x)
	if err != nil || xt == nil {
		// Fall back to name-to-name subtyping.
		if x.Kind == term.Const && x.Val.K == value.KString {
			return ctx.Cat.Types.ISAName(x.Val.S, yName), nil
		}
		return false, nil
	}
	super, ok := ctx.Cat.Types.Lookup(yName)
	if !ok {
		// "Set" etc. in Figure 11 refer to the generic collection ADTs.
		switch strings.ToUpper(yName) {
		case "SET", "BAG", "LIST", "ARRAY":
			return xt.Kind == types.Collection && xt.CollKind.String() == strings.ToLower(yName), nil
		case "COLLECTION":
			return xt.Kind == types.Collection, nil
		}
		return false, nil
	}
	return ctx.Cat.Types.ISA(xt, super), nil
}

// isConstExpr reports whether a ground term is a constant expression (a
// literal or a constructor of literals) as ISA(x, constant) requires.
func isConstExpr(t *term.Term) bool {
	switch t.Kind {
	case term.Const:
		return true
	case term.Fun:
		if !term.IsConstructor(t.Functor) {
			return false
		}
		for _, a := range t.Args {
			if !isConstExpr(a) {
				return false
			}
		}
		return true
	}
	return false
}

// typeOfAtSite types a query expression using the schemas of the
// enclosing relational operator (so ATTR references resolve).
func typeOfAtSite(ctx *Ctx, x *term.Term) (*types.Type, error) {
	if x.Kind == term.Const {
		// An enum literal carries its declared enum type when the value
		// belongs to exactly one enumeration; otherwise the literal's
		// basic type.
		return ctx.Cat.Types.TypeOfValue(x.Val), nil
	}
	rels, err := ctx.EnclosingRels()
	if err != nil {
		return nil, err
	}
	return lera.TypeOf(x, rels, ctx.Cat)
}

func registerGenericExternals(e *Externals) {
	// EVALUATE(expr, out): fold a ground expression to a constant and
	// bind the output variable (Figure 12's constant-folding method).
	e.RegisterMethod("EVALUATE", func(ctx *Ctx, args []*term.Term) (bool, error) {
		if len(args) != 2 {
			return false, fmt.Errorf("EVALUATE takes (expr, out)")
		}
		out := args[1]
		if out.Kind != term.Var {
			return false, fmt.Errorf("EVALUATE output must be an unbound variable, got %s", out)
		}
		v, ok := EvalGround(ctx, args[0])
		if !ok {
			return false, nil // not foldable: veto the rule
		}
		ctx.Bind.BindVar(out.Name, term.C(v))
		return true, nil
	})

	// NOTMEMBER(t, list): true when term t does not occur in the
	// instantiated sequence — used to guard augmentation rules.
	e.RegisterConstraint("NOTMEMBER", func(ctx *Ctx, args []*term.Term) (bool, error) {
		if len(args) != 2 || args[1].Kind != term.Fun {
			return false, fmt.Errorf("NOTMEMBER takes (term, collection)")
		}
		for _, el := range args[1].Args {
			if term.Equal(el, args[0]) {
				return false, nil
			}
		}
		return true, nil
	})

	// DISTINCT(a, b): the two instantiated terms differ syntactically.
	e.RegisterConstraint("DISTINCT", func(ctx *Ctx, args []*term.Term) (bool, error) {
		if len(args) != 2 {
			return false, fmt.Errorf("DISTINCT takes 2 arguments")
		}
		return !term.Equal(args[0], args[1]), nil
	})

	// SET-UNION(xs..., set): the Figure 7 union-merge builtin — splice
	// sequence elements and the elements of any SET arguments into one
	// SET.
	e.RegisterBuiltin("SET-UNION", func(ctx *Ctx, args []*term.Term) (*term.Term, error) {
		var elems []*term.Term
		for _, a := range args {
			if a.Kind == term.Fun && (a.Functor == term.FSet || a.Functor == term.FList) {
				elems = append(elems, a.Args...)
				continue
			}
			elems = append(elems, a)
		}
		return term.Set(elems...), nil
	})

	// APPENDL(args...): build a LIST, flattening LIST arguments — the
	// append(x*, v*, z) of the Figure 7 search-merging rule.
	e.RegisterBuiltin("APPENDL", func(ctx *Ctx, args []*term.Term) (*term.Term, error) {
		var elems []*term.Term
		for _, a := range args {
			if a.Kind == term.Fun && a.Functor == term.FList {
				elems = append(elems, a.Args...)
				continue
			}
			elems = append(elems, a)
		}
		return term.List(elems...), nil
	})

	// ANDMERGE(f, g): conjoin two qualifications, flattening canonical
	// ANDS forms (lera.Ands does the flattening and deduplication).
	e.RegisterBuiltin("ANDMERGE", func(ctx *Ctx, args []*term.Term) (*term.Term, error) {
		return lera.Ands(args...), nil
	})
}
