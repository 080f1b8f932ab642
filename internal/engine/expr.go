package engine

// Expression evaluation for qualifications and projections: attribute
// references, object dereference (VALUE), tuple projection with the §2.2
// collection broadcast ("the application of the projection function to a
// set of tuples gives the set of projected tuples"), attribute-as-function
// calls, comparison broadcast for the Figure 4 quantifiers, and ADT
// function calls through the catalog's registry.
//
// An expression is compiled once per program — a SEARCH stage, FILTER and
// JOIN being SEARCHes — into nodes addressed over a pair (l, r): the
// stage's flat prefix row and its relation's row. The compiler resolves
// what does not change per row: attribute slots, registry entries, whether
// a comparison is still the builtin one. A node's arguments and
// temporaries live on the evaluating worker's value stack (frame) at slots
// fixed at compile time, so a call allocates nothing, and a comparison
// reads its attribute and constant operands where they lie. What a node
// computes — value, error text, PredEvals count, evaluation order, the
// injector hit of each ADT call — is the tree walker's, which the tests
// keep as the oracle (walker_test.go).

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"lera/internal/adt"
	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/value"
)

// frame is one worker's evaluation state for compiled expressions: the DB
// it counts and calls through, and the stack its nodes' arguments and
// temporaries live on, sized by the compiler.
type frame struct {
	w     *DB
	stack []value.Value
}

// test evaluates a qualification: one PredEvals, then its truth.
func (x *frame) test(p pred, l, r []value.Value) (bool, error) {
	x.w.Count.PredEvals++
	return p.truth(x, l, r)
}

// expr is a compiled expression: eval writes its value over the pair
// (l, r) to dst.
type expr interface {
	eval(x *frame, l, r []value.Value, dst *value.Value) error
}

// pred is a compiled qualification: truth is its value as a boolean.
type pred interface {
	truth(x *frame, l, r []value.Value) (bool, error)
}

// compiler compiles expressions over one pair layout. widths has one
// entry per relation of the pair, the last one r's. top counts the stack
// slots the compiled nodes use.
type compiler struct {
	db     *DB
	widths []int
	top    int
}

func (c *compiler) use(n int) { c.top = max(c.top, n) }

// expr compiles e; the node may use the stack from slot at up.
func (c *compiler) expr(e *term.Term, at int) expr {
	switch e.Kind {
	case term.Const:
		return &operand{kind: opConst, cval: &e.Val}
	case term.Var, term.SeqVar:
		return &errNode{fmt.Errorf("engine: unbound variable %s in expression", e)}
	}
	switch e.Functor {
	case lera.EAttr:
		o, n := c.attr(e)
		if n == nil {
			n = &o
		}
		return n
	case lera.EValue:
		return &derefNode{arg: c.expr(e.Args[0], at)}
	case lera.EProject:
		return &derefNode{arg: c.expr(e.Args[0], at), field: e.Args[1].Val.S, project: true}
	case lera.ECall:
		name, _ := lera.CallName(e)
		return &callNode{fn: c.fn(name, len(e.Args)-1), args: c.args(e.Args[1:], at), at: at}
	case lera.EAnds, lera.EOrs:
		j := &junction{all: e.Functor == lera.EAnds, kids: make([]pred, 0, len(e.Args[0].Args))}
		for _, k := range e.Args[0].Args {
			j.kids = append(j.kids, c.pred(k, at))
		}
		return j
	case lera.ENot:
		return &junction{kids: []pred{c.pred(e.Args[0], at)}, all: true, not: true}
	case "=", "<>", "<", ">", "<=", ">=":
		n := &cmpNode{t: e, op: e.Functor, mask: cmpMasks[e.Functor], at: at, builtin: c.db.Cat.ADTs.IsBuiltinComparison(e.Functor)}
		n.a, n.b = c.operand(e.Args[0], at+2), c.operand(e.Args[1], at+2)
		if !n.builtin || n.a.sub != nil || n.b.sub != nil {
			c.use(at + 2)
		}
		if !n.builtin {
			n.fn = c.fn(e.Functor, 2)
		}
		return n
	case term.FSet, term.FBag, term.FList, term.FArray:
		return &callNode{ctor: ctorKinds[e.Functor], args: c.args(e.Args, at), at: at}
	}
	// Generic ADT function application (MEMBER, ISEMPTY, UNION, ALL, ...).
	return &callNode{fn: c.fn(e.Functor, len(e.Args)), args: c.args(e.Args, at), at: at}
}

// pred compiles a qualification: a comparison or connective answers its
// truth itself; any other node's value is checked to be a boolean.
func (c *compiler) pred(e *term.Term, at int) pred {
	n := c.expr(e, at+1)
	if p, ok := n.(pred); ok {
		return p
	}
	c.use(at + 1)
	return &boolOf{t: e, n: n, at: at}
}

// args compiles the arguments of a call, which lie at stack slots at, at+1,
// ...; each is evaluated with the stack above them.
func (c *compiler) args(es []*term.Term, at int) []expr {
	out := make([]expr, len(es))
	for i, a := range es {
		out[i] = c.expr(a, at+len(es))
	}
	c.use(at + len(es))
	return out
}

// attr compiles ATTR(i, j): to a slot operand of the flat row l ++ r, or
// outside the layout to the walker's error, raised when evaluated.
func (c *compiler) attr(e *term.Term) (operand, expr) {
	i, j, _ := lera.AttrIdx(e)
	if i < 1 || i > len(c.widths) {
		return operand{}, &errNode{fmt.Errorf("engine: attribute %d.%d: relation index out of range", i, j)}
	}
	if j < 1 || j > c.widths[i-1] {
		return operand{}, &errNode{fmt.Errorf("engine: attribute %d.%d: column index out of range", i, j)}
	}
	o := operand{kind: opSlot, slot: j - 1}
	for _, w := range c.widths[:i-1] {
		o.slot += w
	}
	return o, nil
}

// fn resolves the registry function name called with nargs arguments.
func (c *compiler) fn(name string, nargs int) adtFn {
	f := adtFn{name: name}
	if e, ok := c.db.Cat.ADTs.Lookup(name); ok && (e.Arity < 0 || e.Arity == nargs) {
		f.fn = e.Fn
	}
	return f
}

// errNode is an expression that fails whenever it is evaluated: an
// unbound variable or an attribute reference outside the layout.
type errNode struct{ err error }

func (n *errNode) eval(*frame, []value.Value, []value.Value, *value.Value) error { return n.err }

// derefNode is VALUE(arg), or with project set PROJECT(arg, field).
type derefNode struct {
	arg     expr
	field   string
	project bool
}

func (n *derefNode) eval(x *frame, l, r []value.Value, dst *value.Value) (err error) {
	switch err = n.arg.eval(x, l, r, dst); {
	case err != nil:
	case n.project:
		*dst, err = x.w.projectField(*dst, n.field, true)
	default:
		*dst, err = x.w.deref(*dst)
	}
	return err
}

// callNode applies a function, or with ctor set a SET, BAG, LIST or ARRAY
// constructor, to arguments it evaluates, in order, onto the stack slots
// at, at+1, ... With one argument the attribute-as-function rule comes
// first: NAME(actor) projects the field of a tuple, an object or a
// collection of them, and only where that fails is the ADT called.
type callNode struct {
	fn   adtFn
	ctor value.Kind
	args []expr
	at   int
}

func (n *callNode) eval(x *frame, l, r []value.Value, dst *value.Value) (err error) {
	args := x.stack[n.at : n.at+len(n.args) : n.at+len(n.args)]
	for i, a := range n.args {
		if err := a.eval(x, l, r, &args[i]); err != nil {
			return err
		}
	}
	if n.ctor != value.KNull {
		*dst = newColl[n.ctor](args...)
		return nil
	}
	if a := args; len(a) == 1 && (a[0].K == value.KOID || a[0].K == value.KTuple ||
		a[0].K.IsCollection() && a[0].Len() > 0 && (a[0].Elems[0].K == value.KTuple || a[0].Elems[0].K == value.KOID)) {
		if v, err := x.w.projectField(a[0], n.fn.name, false); err == nil {
			*dst = v
			return nil
		}
	}
	*dst, err = n.fn.invoke(x.w, args)
	return err
}

var ctorKinds = map[string]value.Kind{term.FSet: value.KSet, term.FBag: value.KBag, term.FList: value.KList, term.FArray: value.KArray}

// newColl builds a collection of a kind from a copy of its elements.
var newColl = map[value.Kind]func(...value.Value) value.Value{
	value.KSet: value.NewSet, value.KBag: value.NewBag, value.KList: value.NewList, value.KArray: value.NewArray,
}

// junction is ANDS (all) or ORS over its qualifications, short-circuiting,
// or NOT (not) of its one.
type junction struct {
	kids     []pred
	all, not bool
}

func (j *junction) truth(x *frame, l, r []value.Value) (bool, error) {
	for _, k := range j.kids {
		b, err := x.test(k, l, r)
		if err != nil {
			return false, err
		}
		if b != j.all {
			return b != j.not, nil
		}
	}
	return j.all != j.not, nil
}

func (j *junction) eval(x *frame, l, r []value.Value, dst *value.Value) error {
	b, err := j.truth(x, l, r)
	*dst = value.Bool(b)
	return err
}

// boolOf is a qualification whose node computes a value: it must be a
// boolean.
type boolOf struct {
	t  *term.Term
	n  expr
	at int
}

func (b *boolOf) truth(x *frame, l, r []value.Value) (bool, error) {
	v := &x.stack[b.at]
	if err := b.n.eval(x, l, r, v); err != nil {
		return false, err
	}
	if v.K != value.KBool {
		return false, notBool(b.t, v.K)
	}
	return v.B(), nil
}

func notBool(t *term.Term, k value.Kind) error {
	return fmt.Errorf("engine: qualification %s evaluated to %s, not boolean", lera.Format(t), k)
}

// operand kinds: a comparison's operands and a SEARCH's projections are
// operands, held by value; a slot or constant leaf of any other node is one.
const (
	opSlot  = iota // a slot of the flat row l ++ r, read where it lies
	opConst        // a constant
	opExpr         // anything else
)

type operand struct {
	kind, slot int
	cval       *value.Value // the term's own, which no one changes
	sub        expr
}

func (c *compiler) operand(e *term.Term, at int) operand {
	if e.Kind == term.Const {
		return operand{kind: opConst, cval: &e.Val}
	}
	if e.Functor == lera.EAttr {
		if o, n := c.attr(e); n == nil {
			return o
		}
	}
	return operand{kind: opExpr, sub: c.expr(e, at)}
}

// fetch returns the operand's value by reference: the cell of the pair,
// the constant in its term, or stack slot at, which it fills.
func (o *operand) fetch(x *frame, l, r []value.Value, at int) (*value.Value, error) {
	switch o.kind {
	case opSlot:
		return pairAt(l, r, o.slot), nil
	case opConst:
		return o.cval, nil
	}
	v := &x.stack[at]
	return v, o.sub.eval(x, l, r, v)
}

func (o *operand) eval(x *frame, l, r []value.Value, dst *value.Value) error {
	switch o.kind {
	case opSlot:
		*dst = *pairAt(l, r, o.slot)
	case opConst:
		*dst = *o.cval
	default:
		return o.sub.eval(x, l, r, dst)
	}
	return nil
}

// cmpNode is a comparison. Its operands are evaluated left to right, an
// expression operand into stack slot at or at+1 (the arguments of an
// overridden comparison's call), and a collection compared with a scalar
// broadcasts (Figure 4): the value is the collection of element-wise
// comparisons, which the ALL/EXIST quantifiers fold. A builtin comparison
// — the registry's own, a total wrapper over value.Compare — is decided by
// value.CompareRef with no call, after the injector hit its call would make.
type cmpNode struct {
	t       *term.Term
	op      string
	mask    uint8 // the Compare outcomes it holds for: bit c+1 for c
	builtin bool
	fn      adtFn // the overriding function, when not builtin
	a, b    operand
	at      int
}

func (c *cmpNode) truth(x *frame, l, r []value.Value) (bool, error) {
	av, err := c.a.fetch(x, l, r, c.at)
	if err != nil {
		return false, err
	}
	bv, err := c.b.fetch(x, l, r, c.at+1)
	if err != nil {
		return false, err
	}
	if c.builtin && av.K.IsCollection() == bv.K.IsCollection() && x.w.Injector == nil {
		return c.holds(value.CompareRef(av, bv)), nil
	}
	var v value.Value
	if err = c.apply(x, av, bv, &v); err == nil && v.K != value.KBool {
		err = notBool(c.t, v.K)
	}
	return v.B(), err
}

func (c *cmpNode) eval(x *frame, l, r []value.Value, dst *value.Value) error {
	av, err := c.a.fetch(x, l, r, c.at)
	if err != nil {
		return err
	}
	bv, err := c.b.fetch(x, l, r, c.at+1)
	if err != nil {
		return err
	}
	return c.apply(x, av, bv, dst)
}

// apply compares the values at av and bv into dst, broadcasting over a
// collection compared with a scalar.
func (c *cmpNode) apply(x *frame, av, bv, dst *value.Value) (err error) {
	coll, scalar, scalarLeft := av, bv, false
	if bv.K.IsCollection() && !av.K.IsCollection() {
		coll, scalar, scalarLeft = bv, av, true
	}
	if !coll.K.IsCollection() || scalar.K.IsCollection() {
		*dst, err = c.call(x, av, bv)
		return err
	}
	kind, s := coll.K, *scalar
	elems := make([]value.Value, len(coll.Elems))
	for i, el := range coll.Elems {
		a, b := &el, &s
		if scalarLeft {
			a, b = b, a
		}
		if elems[i], err = c.call(x, a, b); err != nil {
			return err
		}
	}
	*dst = newColl[kind](elems...)
	return nil
}

// call is one call of the comparison function.
func (c *cmpNode) call(x *frame, a, b *value.Value) (value.Value, error) {
	if !c.builtin {
		args := x.stack[c.at : c.at+2 : c.at+2]
		args[0], args[1] = *a, *b
		return c.fn.invoke(x.w, args)
	}
	if x.w.Injector != nil {
		if err := x.w.hitADT(c.op); err != nil {
			return value.Null, err
		}
	}
	return value.Bool(c.holds(value.CompareRef(a, b))), nil
}

// cmpMasks mirror the built-in comparison registrations (internal/adt):
// each holds exactly for its value.Compare outcomes.
var cmpMasks = map[string]uint8{"<": 1, "=": 2, "<=": 3, ">": 4, "<>": 5, ">=": 6}

func (c *cmpNode) holds(r int) bool { return c.mask>>(min(max(r, -1), 1)+1)&1 != 0 }

// adtFn is a registry function resolved at compile time. fn is nil when
// the name is unknown or the argument count wrong; the registry then
// answers, with its error, at the call.
type adtFn struct {
	name string
	fn   adt.Func
}

// invoke calls the function with panic isolation: implementor-registered
// functions run arbitrary code, and a panic must surface as a typed
// ExternalError instead of unwinding the evaluator. args lie on the
// caller's stack and are valid only during the call (adt.Func).
func (f *adtFn) invoke(w *DB, args []value.Value) (v value.Value, err error) {
	defer func() {
		if p := recover(); p != nil {
			v, err = value.Null, guard.NewExternalPanic(guard.ExtADT, "", f.name, "", p)
		}
	}()
	if w.Injector != nil {
		if err := w.hitADT(f.name); err != nil {
			return value.Null, err
		}
	}
	if f.fn == nil {
		return w.Cat.ADTs.Call(f.name, args)
	}
	return f.fn(args)
}

// hitADT reports one call of the ADT function name to the injector, which
// the caller has checked is non-nil, before the call — a builtin
// comparison, which makes no call, hits it where its call would be — so
// the n'th hit lands on the same call as in the tree walker. A fired fault
// comes back typed: an injected error wrapped as an ADT ExternalError, an
// injected panic as an external panic.
func (db *DB) hitADT(name string) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = guard.NewExternalPanic(guard.ExtADT, "", name, "", p)
		}
	}()
	var ctx context.Context
	if db.g != nil {
		ctx = db.g.ctx
	}
	if ierr := db.Injector.Hit(ctx, strings.ToUpper(name)); ierr != nil {
		return &guard.ExternalError{Kind: guard.ExtADT, External: name, Err: ierr}
	}
	return nil
}

// deref resolves an OID through the object store; non-OIDs pass through
// (VALUE on a value is the identity, §3.3).
func (db *DB) deref(v value.Value) (value.Value, error) {
	if v.K != value.KOID {
		return v, nil
	}
	obj, ok := db.Objects[v.OID()]
	if !ok {
		return value.Null, fmt.Errorf("engine: dangling object identifier @%d", v.OID())
	}
	return obj, nil
}

// projectField extracts a named tuple field, dereferencing OIDs and
// broadcasting over collections. A failure is errNoField unless why asks
// for the error PROJECT reports.
func (db *DB) projectField(v value.Value, field string, why bool) (value.Value, error) {
	v, err := db.deref(v)
	switch {
	case err != nil:
		return value.Null, err
	case v.K == value.KTuple:
		if f, ok := v.Field(field); ok {
			return f, nil
		} else if why {
			return value.Null, fmt.Errorf("engine: tuple has no field %q", field)
		}
	case v.K.IsCollection():
		elems := make([]value.Value, len(v.Elems))
		for i, el := range v.Elems {
			if elems[i], err = db.projectField(el, field, why); err != nil {
				return value.Null, err
			}
		}
		return newColl[v.K](elems...), nil
	case why:
		return value.Null, fmt.Errorf("engine: cannot project field %q from %s", field, v.K)
	}
	return value.Null, errNoField
}

var errNoField = errors.New("engine: no such field")
