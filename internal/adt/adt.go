// Package adt implements the built-in ADT function library of the paper's
// Figure 1 together with the scalar operators of ESQL, organised as an
// extensible registry: the database implementor registers new functions
// exactly as the paper's "DBMS ADTs facility" extends the optimizer
// library (Section 1), and both the execution engine and the rewriter's
// EVALUATE constant folding call through the same registry.
package adt

import (
	"fmt"
	"strings"

	"lera/internal/value"
)

// Func is a registered ADT function: it receives fully evaluated argument
// values and returns a value or an error. args is valid only during the
// call — the engine evaluates arguments onto a worker's value stack and
// reuses it for the next call — so a function reads args (and may return
// one of them, an element or a field: values are immutable) but neither
// keeps, writes nor appends to the slice; one that needs the arguments
// later copies them, as the builtin constructors do (value.NewSet and
// friends copy their elements).
type Func func(args []value.Value) (value.Value, error)

// Entry describes a registered function.
type Entry struct {
	Name string
	// Arity is the required argument count; -1 means variadic.
	Arity int
	// Pure functions of constant arguments may be folded at rewrite time
	// by the EVALUATE method (paper Figure 12).
	Pure bool
	Fn   Func
}

// Registry maps (case-insensitive) function names to implementations.
type Registry struct {
	fns map[string]Entry
	// overridden records post-construction Register calls. The engine's
	// compiled comparison fast path may only bypass the registry while
	// the builtin implementations (pure value.Compare wrappers — total,
	// never erring) are still in place, so the registry tracks whether an
	// implementor replaced one.
	overridden map[string]bool
	sealed     bool
}

// NewRegistry returns a registry pre-populated with the built-in library.
func NewRegistry() *Registry {
	r := &Registry{fns: map[string]Entry{}, overridden: map[string]bool{}}
	r.registerBuiltins()
	r.sealed = true
	return r
}

// Register installs a function, replacing any previous definition of the
// same name — the extensibility hook for database implementors.
func (r *Registry) Register(name string, arity int, pure bool, fn Func) {
	key := strings.ToUpper(name)
	if r.sealed {
		r.overridden[key] = true
	}
	r.fns[key] = Entry{Name: name, Arity: arity, Pure: pure, Fn: fn}
}

// IsBuiltinComparison reports whether name is one of the six comparison
// operators and still bound to its builtin implementation — a pure,
// total wrapper over value.Compare that can never error or panic. The
// engine relies on this to decide whether a comparison may be compiled
// down to a direct value.Compare call.
func (r *Registry) IsBuiltinComparison(name string) bool {
	switch name {
	case "=", "<>", "<", ">", "<=", ">=":
		return !r.overridden[strings.ToUpper(name)]
	}
	return false
}

// Lookup finds a function by name.
func (r *Registry) Lookup(name string) (Entry, bool) {
	e, ok := r.fns[strings.ToUpper(name)]
	return e, ok
}

// IsPure reports whether name is a registered pure function (foldable).
func (r *Registry) IsPure(name string) bool {
	e, ok := r.Lookup(name)
	return ok && e.Pure
}

// Call invokes a registered function with arity checking.
func (r *Registry) Call(name string, args []value.Value) (value.Value, error) {
	e, ok := r.Lookup(name)
	if !ok {
		return value.Null, fmt.Errorf("adt: unknown function %q", name)
	}
	if e.Arity >= 0 && len(args) != e.Arity {
		return value.Null, fmt.Errorf("adt: %s expects %d arguments, got %d", e.Name, e.Arity, len(args))
	}
	return e.Fn(args)
}

func bool2(b bool, err error) (value.Value, error) {
	if err != nil {
		return value.Null, err
	}
	return value.Bool(b), nil
}

func numeric2(name string, args []value.Value) (float64, float64, bool, error) {
	a, aok := args[0].AsFloat()
	b, bok := args[1].AsFloat()
	if !aok || !bok {
		return 0, 0, false, fmt.Errorf("adt: %s requires numeric arguments, got %s and %s", name, args[0].K, args[1].K)
	}
	bothInt := args[0].K == value.KInt && args[1].K == value.KInt
	return a, b, bothInt, nil
}

func (r *Registry) registerBuiltins() {
	// --- Figure 1: COLLECTION-level functions ---
	r.Register("ISEMPTY", 1, true, func(a []value.Value) (value.Value, error) {
		if !a[0].K.IsCollection() {
			return value.Null, fmt.Errorf("adt: ISEMPTY requires a collection, got %s", a[0].K)
		}
		return value.Bool(a[0].Len() == 0), nil
	})
	r.Register("EQUAL", 2, true, func(a []value.Value) (value.Value, error) {
		return value.Bool(value.Equal(a[0], a[1])), nil
	})
	r.Register("INSERT", 2, true, func(a []value.Value) (value.Value, error) { return value.Insert(a[0], a[1]) })
	r.Register("REMOVE", 2, true, func(a []value.Value) (value.Value, error) { return value.Remove(a[0], a[1]) })
	r.Register("COUNT", 1, true, func(a []value.Value) (value.Value, error) {
		if !a[0].K.IsCollection() {
			return value.Null, fmt.Errorf("adt: COUNT requires a collection, got %s", a[0].K)
		}
		return value.Int(int64(a[0].Len())), nil
	})
	for _, cv := range []struct {
		name string
		kind value.Kind
	}{{"TOSET", value.KSet}, {"TOBAG", value.KBag}, {"TOLIST", value.KList}, {"TOARRAY", value.KArray}} {
		kind := cv.kind
		r.Register(cv.name, 1, true, func(a []value.Value) (value.Value, error) { return value.Convert(a[0], kind) })
	}

	// --- Figure 1: set/bag functions ---
	r.Register("MEMBER", 2, true, func(a []value.Value) (value.Value, error) { return bool2(value.Member(a[0], a[1])) })
	r.Register("UNION", 2, true, func(a []value.Value) (value.Value, error) { return value.Union(a[0], a[1]) })
	r.Register("INTERSECTION", 2, true, func(a []value.Value) (value.Value, error) { return value.Intersection(a[0], a[1]) })
	r.Register("DIFFERENCE", 2, true, func(a []value.Value) (value.Value, error) { return value.Difference(a[0], a[1]) })
	r.Register("INCLUDE", 2, true, func(a []value.Value) (value.Value, error) { return bool2(value.Include(a[0], a[1])) })
	r.Register("CHOICE", 1, true, func(a []value.Value) (value.Value, error) { return value.Choice(a[0]) })

	// MAKESET / MAKEBAG / MAKELIST build a collection from an enumeration
	// of elements (paper Section 2.1: "MakeSet creates a new set from a
	// given enumeration of elements").
	r.Register("MAKESET", -1, true, func(a []value.Value) (value.Value, error) { return value.NewSet(a...), nil })
	r.Register("MAKEBAG", -1, true, func(a []value.Value) (value.Value, error) { return value.NewBag(a...), nil })
	r.Register("MAKELIST", -1, true, func(a []value.Value) (value.Value, error) { return value.NewList(a...), nil })
	r.Register("MAKEARRAY", -1, true, func(a []value.Value) (value.Value, error) { return value.NewArray(a...), nil })

	// --- Figure 1: list/array functions ---
	r.Register("APPEND", 2, true, func(a []value.Value) (value.Value, error) { return value.Append(a[0], a[1]) })
	r.Register("FIRST", 1, true, func(a []value.Value) (value.Value, error) {
		if (a[0].K != value.KList && a[0].K != value.KArray) || a[0].Len() == 0 {
			return value.Null, fmt.Errorf("adt: FIRST requires a non-empty list or array")
		}
		return a[0].Elems[0], nil
	})
	r.Register("LAST", 1, true, func(a []value.Value) (value.Value, error) {
		if (a[0].K != value.KList && a[0].K != value.KArray) || a[0].Len() == 0 {
			return value.Null, fmt.Errorf("adt: LAST requires a non-empty list or array")
		}
		return a[0].Elems[a[0].Len()-1], nil
	})
	r.Register("NTH", 2, true, func(a []value.Value) (value.Value, error) {
		if a[0].K != value.KList && a[0].K != value.KArray {
			return value.Null, fmt.Errorf("adt: NTH requires a list or array")
		}
		if a[1].K != value.KInt {
			return value.Null, fmt.Errorf("adt: NTH index must be an int")
		}
		i := int(a[1].I)
		if i < 1 || i > a[0].Len() {
			return value.Null, fmt.Errorf("adt: NTH index %d out of range 1..%d", i, a[0].Len())
		}
		return a[0].Elems[i-1], nil
	})

	// --- quantifiers (Figure 4: ALL(Salary(Actors) > 10000), EXIST) ---
	// The translator rewrites the quantified comparison into
	// ALL(<set of booleans>) / EXIST(<set of booleans>); at the value
	// level they are conjunction/disjunction over a collection.
	r.Register("ALL", 1, true, func(a []value.Value) (value.Value, error) { return quantify(a[0], true) })
	r.Register("EXIST", 1, true, func(a []value.Value) (value.Value, error) { return quantify(a[0], false) })

	// --- scalar comparison operators (as functions, per LERA §3.3) ---
	cmp := func(name string, ok func(c int) bool) {
		r.Register(name, 2, true, func(a []value.Value) (value.Value, error) {
			return value.Bool(ok(value.Compare(a[0], a[1]))), nil
		})
	}
	cmp("=", func(c int) bool { return c == 0 })
	cmp("<>", func(c int) bool { return c != 0 })
	cmp("<", func(c int) bool { return c < 0 })
	cmp(">", func(c int) bool { return c > 0 })
	cmp("<=", func(c int) bool { return c <= 0 })
	cmp(">=", func(c int) bool { return c >= 0 })

	// --- boolean connectives ---
	r.Register("AND", -1, true, func(a []value.Value) (value.Value, error) {
		for _, v := range a {
			if v.K != value.KBool {
				return value.Null, fmt.Errorf("adt: AND requires booleans, got %s", v.K)
			}
			if !v.B() {
				return value.False, nil
			}
		}
		return value.True, nil
	})
	r.Register("OR", -1, true, func(a []value.Value) (value.Value, error) {
		for _, v := range a {
			if v.K != value.KBool {
				return value.Null, fmt.Errorf("adt: OR requires booleans, got %s", v.K)
			}
			if v.B() {
				return value.True, nil
			}
		}
		return value.False, nil
	})
	r.Register("NOT", 1, true, func(a []value.Value) (value.Value, error) {
		if a[0].K != value.KBool {
			return value.Null, fmt.Errorf("adt: NOT requires a boolean, got %s", a[0].K)
		}
		return value.Bool(!a[0].B()), nil
	})

	// --- arithmetic ---
	arith := func(name string, f func(a, b float64) float64, intF func(a, b int64) int64) {
		r.Register(name, 2, true, func(a []value.Value) (value.Value, error) {
			x, y, bothInt, err := numeric2(name, a)
			if err != nil {
				return value.Null, err
			}
			if bothInt && intF != nil {
				return value.Int(intF(a[0].I, a[1].I)), nil
			}
			return value.Real(f(x, y)), nil
		})
	}
	arith("+", func(a, b float64) float64 { return a + b }, func(a, b int64) int64 { return a + b })
	arith("-", func(a, b float64) float64 { return a - b }, func(a, b int64) int64 { return a - b })
	arith("*", func(a, b float64) float64 { return a * b }, func(a, b int64) int64 { return a * b })
	r.Register("/", 2, true, func(a []value.Value) (value.Value, error) {
		x, y, _, err := numeric2("/", a)
		if err != nil {
			return value.Null, err
		}
		if y == 0 {
			return value.Null, fmt.Errorf("adt: division by zero")
		}
		return value.Real(x / y), nil
	})
	r.Register("NEG", 1, true, func(a []value.Value) (value.Value, error) {
		switch a[0].K {
		case value.KInt:
			return value.Int(-a[0].I), nil
		case value.KReal:
			return value.Real(-a[0].F()), nil
		}
		return value.Null, fmt.Errorf("adt: NEG requires a numeric argument, got %s", a[0].K)
	})

	// --- string / misc ---
	r.Register("CONCAT", 2, true, func(a []value.Value) (value.Value, error) {
		if a[0].K != value.KString || a[1].K != value.KString {
			return value.Null, fmt.Errorf("adt: CONCAT requires strings")
		}
		return value.String(a[0].S + a[1].S), nil
	})
	r.Register("LENGTH", 1, true, func(a []value.Value) (value.Value, error) {
		if a[0].K != value.KString {
			return value.Null, fmt.Errorf("adt: LENGTH requires a string")
		}
		return value.Int(int64(len(a[0].S))), nil
	})
}

func quantify(coll value.Value, all bool) (value.Value, error) {
	if !coll.K.IsCollection() {
		return value.Null, fmt.Errorf("adt: quantifier requires a collection, got %s", coll.K)
	}
	for _, e := range coll.Elems {
		if e.K != value.KBool {
			return value.Null, fmt.Errorf("adt: quantifier over non-boolean element %s", e.K)
		}
		if all && !e.B() {
			return value.False, nil
		}
		if !all && e.B() {
			return value.True, nil
		}
	}
	return value.Bool(all), nil
}
