package engine

// The tree-walking expression evaluator: the oracle the compiled
// expressions (expr.go) are checked against. It walks the term for every
// row, allocates each call's arguments and looks each function up by
// name, and is the reference evaluator's (reference_test.go) expression
// evaluator; FuzzCompiledExpr and the differential tests hold the compiled
// nodes to its values, error texts, PredEvals counts and injector hits.

import (
	"fmt"

	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/value"
)

// evalExpr evaluates an expression against a row context: one row slice
// per relation of the enclosing operator.
func (db *DB) evalExpr(e *term.Term, rows [][]value.Value) (value.Value, error) {
	switch e.Kind {
	case term.Const:
		return e.Val, nil
	case term.Var, term.SeqVar:
		return value.Null, fmt.Errorf("engine: unbound variable %s in expression", e)
	}
	switch e.Functor {
	case lera.EAttr:
		i, j, _ := lera.AttrIdx(e)
		if i < 1 || i > len(rows) {
			return value.Null, fmt.Errorf("engine: attribute %d.%d: relation index out of range", i, j)
		}
		if j < 1 || j > len(rows[i-1]) {
			return value.Null, fmt.Errorf("engine: attribute %d.%d: column index out of range", i, j)
		}
		return rows[i-1][j-1], nil

	case lera.EValue:
		v, err := db.evalExpr(e.Args[0], rows)
		if err != nil {
			return value.Null, err
		}
		return db.deref(v)

	case lera.EProject:
		v, err := db.evalExpr(e.Args[0], rows)
		if err != nil {
			return value.Null, err
		}
		return db.walkField(v, e.Args[1].Val.S)

	case lera.ECall:
		name, _ := lera.CallName(e)
		args := make([]value.Value, len(e.Args)-1)
		for i, a := range e.Args[1:] {
			v, err := db.evalExpr(a, rows)
			if err != nil {
				return value.Null, err
			}
			args[i] = v
		}
		return db.call(name, args)

	case lera.EAnds, lera.EOrs:
		all := e.Functor == lera.EAnds
		for _, c := range e.Args[0].Args {
			b, err := db.evalBool(c, rows)
			if err != nil {
				return value.Null, err
			}
			if all && !b {
				return value.False, nil
			}
			if !all && b {
				return value.True, nil
			}
		}
		return value.Bool(all), nil

	case lera.ENot:
		b, err := db.evalBool(e.Args[0], rows)
		if err != nil {
			return value.Null, err
		}
		return value.Bool(!b), nil

	case "=", "<>", "<", ">", "<=", ">=":
		a, err := db.evalExpr(e.Args[0], rows)
		if err != nil {
			return value.Null, err
		}
		b, err := db.evalExpr(e.Args[1], rows)
		if err != nil {
			return value.Null, err
		}
		// Comparison broadcast (Figure 4): a collection compared with a
		// scalar yields the collection of element-wise comparisons, which
		// the ALL/EXIST quantifiers then fold.
		if a.K.IsCollection() && !b.K.IsCollection() {
			return db.broadcastCmp(e.Functor, a, b, false)
		}
		if b.K.IsCollection() && !a.K.IsCollection() {
			return db.broadcastCmp(e.Functor, b, a, true)
		}
		return db.adtCall(e.Functor, []value.Value{a, b})

	case term.FSet, term.FBag, term.FList, term.FArray:
		elems := make([]value.Value, len(e.Args))
		for i, a := range e.Args {
			v, err := db.evalExpr(a, rows)
			if err != nil {
				return value.Null, err
			}
			elems[i] = v
		}
		switch e.Functor {
		case term.FSet:
			return value.NewSet(elems...), nil
		case term.FBag:
			return value.NewBag(elems...), nil
		case term.FList:
			return value.NewList(elems...), nil
		default:
			return value.NewArray(elems...), nil
		}
	}

	// Generic ADT function application (MEMBER, ISEMPTY, UNION, ALL, ...).
	args := make([]value.Value, len(e.Args))
	for i, a := range e.Args {
		v, err := db.evalExpr(a, rows)
		if err != nil {
			return value.Null, err
		}
		args[i] = v
	}
	return db.call(e.Functor, args)
}

func (db *DB) broadcastCmp(op string, coll, scalar value.Value, scalarLeft bool) (value.Value, error) {
	elems := make([]value.Value, 0, coll.Len())
	for _, el := range coll.Elems {
		a, b := el, scalar
		if scalarLeft {
			a, b = scalar, el
		}
		r, err := db.adtCall(op, []value.Value{a, b})
		if err != nil {
			return value.Null, err
		}
		elems = append(elems, r)
	}
	switch coll.K {
	case value.KSet:
		return value.NewSet(elems...), nil
	case value.KBag:
		return value.NewBag(elems...), nil
	case value.KList:
		return value.NewList(elems...), nil
	default:
		return value.NewArray(elems...), nil
	}
}

// walkField extracts a named tuple field, dereferencing OIDs and
// broadcasting over collections.
func (db *DB) walkField(v value.Value, field string) (value.Value, error) {
	if v.K == value.KOID {
		d, err := db.deref(v)
		if err != nil {
			return value.Null, err
		}
		v = d
	}
	if v.K == value.KTuple {
		f, ok := v.Field(field)
		if !ok {
			return value.Null, fmt.Errorf("engine: tuple has no field %q", field)
		}
		return f, nil
	}
	if v.K.IsCollection() {
		elems := make([]value.Value, 0, v.Len())
		for _, el := range v.Elems {
			f, err := db.walkField(el, field)
			if err != nil {
				return value.Null, err
			}
			elems = append(elems, f)
		}
		switch v.K {
		case value.KSet:
			return value.NewSet(elems...), nil
		case value.KBag:
			return value.NewBag(elems...), nil
		case value.KList:
			return value.NewList(elems...), nil
		default:
			return value.NewArray(elems...), nil
		}
	}
	return value.Null, fmt.Errorf("engine: cannot project field %q from %s", field, v.K)
}

// call resolves a function name: attribute-as-function on tuples/objects
// first (NAME(actor)), with collection broadcast, then the ADT registry.
func (db *DB) call(name string, args []value.Value) (value.Value, error) {
	if len(args) == 1 {
		return db.callField(name, args[0])
	}
	return db.adtCall(name, args)
}

// callField is the single-argument case of call: the attribute-as-function
// rule first, then the ADT.
func (db *DB) callField(name string, a value.Value) (value.Value, error) {
	if a.K == value.KOID || a.K == value.KTuple {
		if v, err := db.walkField(a, name); err == nil {
			return v, nil
		}
	}
	if a.K.IsCollection() && a.Len() > 0 && (a.Elems[0].K == value.KTuple || a.Elems[0].K == value.KOID) {
		if v, err := db.walkField(a, name); err == nil {
			return v, nil
		}
	}
	return db.adtCall(name, []value.Value{a})
}

// adtCall invokes an ADT function through the catalog registry with panic
// isolation: implementor-registered functions run arbitrary code, and a
// panic must surface as a typed ExternalError instead of unwinding the
// evaluator.
func (db *DB) adtCall(name string, args []value.Value) (v value.Value, err error) {
	defer func() {
		if p := recover(); p != nil {
			v = value.Null
			err = guard.NewExternalPanic(guard.ExtADT, "", name, "", p)
		}
	}()
	if db.Injector != nil {
		if err := db.hitADT(name); err != nil {
			return value.Null, err
		}
	}
	return db.Cat.ADTs.Call(name, args)
}

// evalBool evaluates a qualification expression to a boolean.
func (db *DB) evalBool(e *term.Term, rows [][]value.Value) (bool, error) {
	db.Count.PredEvals++
	v, err := db.evalExpr(e, rows)
	if err != nil {
		return false, err
	}
	if v.K != value.KBool {
		return false, fmt.Errorf("engine: qualification %s evaluated to %s, not boolean", lera.Format(e), v.K)
	}
	return v.B(), nil
}
