package esql

import "sort"

// CountParams validates the $n placeholders of a PREPARE body and
// returns the parameter count. Placeholders must be exactly $1..$n with
// no gaps (repeats are allowed: one binding may be used several times).
func CountParams(sel *Select) (int, error) {
	seen := map[int]bool{}
	walkSelect(sel, func(e Expr) {
		if p, ok := e.(*Param); ok {
			seen[p.Index] = true
		}
	})
	if len(seen) == 0 {
		return 0, nil
	}
	idxs := make([]int, 0, len(seen))
	for i := range seen {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	max := idxs[len(idxs)-1]
	for want := 1; want <= max; want++ {
		if !seen[want] {
			return 0, errorf("prepared statement uses $%d but not $%d (parameters must be $1..$%d with no gaps)", max, want, max)
		}
	}
	return max, nil
}

// BindParams returns a deep copy of sel with every $n placeholder
// replaced by args[n-1]. The arguments must be literal expressions (the
// EXECUTE grammar only produces literals); the original AST is never
// mutated, so one prepared statement can serve concurrent EXECUTEs.
func BindParams(sel *Select, args []Expr) (*Select, error) {
	var err error
	bind := func(e Expr) Expr {
		p, ok := e.(*Param)
		if !ok {
			return e
		}
		if p.Index < 1 || p.Index > len(args) {
			if err == nil {
				err = errorf("statement uses $%d but EXECUTE passed %d argument(s)", p.Index, len(args))
			}
			return e
		}
		return args[p.Index-1]
	}
	out := copySelect(sel, bind)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// walkSelect visits every expression of a SELECT, including nested ones.
func walkSelect(sel *Select, fn func(Expr)) {
	var walk func(e Expr)
	walk = func(e Expr) {
		if e == nil {
			return
		}
		fn(e)
		switch x := e.(type) {
		case *App:
			for _, a := range x.Args {
				walk(a)
			}
		case *Bin:
			walk(x.L)
			walk(x.R)
		case *Not:
			walk(x.Arg)
		case *Quant:
			walk(x.Arg)
		case *CollLit:
			for _, a := range x.Elems {
				walk(a)
			}
		case *TupleLit:
			for _, a := range x.Elems {
				walk(a)
			}
		}
	}
	for _, e := range sel.Proj {
		walk(e)
	}
	walk(sel.Where)
	for _, e := range sel.GroupBy {
		walk(e)
	}
}

// copySelect deep-copies a SELECT, mapping every leaf expression
// through fn (applied bottom-up; fn sees each node after its children
// were copied).
func copySelect(sel *Select, fn func(Expr) Expr) *Select {
	var cp func(e Expr) Expr
	cp = func(e Expr) Expr {
		if e == nil {
			return nil
		}
		switch x := e.(type) {
		case *App:
			args := make([]Expr, len(x.Args))
			for i, a := range x.Args {
				args[i] = cp(a)
			}
			return fn(&App{Fn: x.Fn, Args: args})
		case *Bin:
			return fn(&Bin{Op: x.Op, L: cp(x.L), R: cp(x.R)})
		case *Not:
			return fn(&Not{Arg: cp(x.Arg)})
		case *Quant:
			return fn(&Quant{All: x.All, Arg: cp(x.Arg)})
		case *CollLit:
			elems := make([]Expr, len(x.Elems))
			for i, a := range x.Elems {
				elems[i] = cp(a)
			}
			return fn(&CollLit{Kind: x.Kind, Elems: elems})
		case *TupleLit:
			elems := make([]Expr, len(x.Elems))
			for i, a := range x.Elems {
				elems[i] = cp(a)
			}
			return fn(&TupleLit{Names: append([]string(nil), x.Names...), Elems: elems})
		default:
			// Lit, Ref, Param are immutable leaves; fn may substitute.
			return fn(e)
		}
	}
	out := &Select{
		From:    append([]TableRef(nil), sel.From...),
		Proj:    make([]Expr, len(sel.Proj)),
		GroupBy: make([]Expr, len(sel.GroupBy)),
	}
	for i, e := range sel.Proj {
		out.Proj[i] = cp(e)
	}
	out.Where = cp(sel.Where)
	for i, e := range sel.GroupBy {
		out.GroupBy[i] = cp(e)
	}
	if len(out.GroupBy) == 0 {
		out.GroupBy = nil
	}
	return out
}
