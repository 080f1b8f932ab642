package engine

import (
	"fmt"
	"math"
	"testing"

	"lera/internal/catalog"
	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/value"
)

// FuzzCompiledExpr holds the compiled expressions to the tree walker
// (walker_test.go): a random expression over a random pair of rows —
// comparisons of scalars and collections, AND/OR/NOT, MEMBER, ISEMPTY,
// ALL, arithmetic, VALUE, PROJECT, a CALL field of a tuple or an object,
// constructors, unknown functions, wrong arities, out-of-range ATTRs and
// a panicking function — in a SEARCH stage's layout over one to three
// relations, as a qualification and as a value, optionally with an
// overridden comparison and with an injector armed at its n-th hit. Both
// must give the same value bit for bit or the same error text, the same
// PredEvals and the same injector call counts.
func FuzzCompiledExpr(f *testing.F) {
	for _, s := range []string{
		"", "\x03\x00\x01\x01\x05\x04", "\x05\x03\x00\x01\x01\x04\x00\x02\x02",
		"\x06\x08\x00\x01\x03\x03\x01\x00\x01\x00", "\x0b\x02\x00\x01\x04\x01\x00\x02\x00",
		"\x07\x04\x09\x00\x01\x02\x01\x01\x01\x10\x11\x12", "\x0f\x04\x00\x02\x01\x02\x03\x02\x01",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &exprGen{data: data}
		c := g.exprCase()
		for _, asPred := range []bool{true, false} {
			cv, cerr, cev, ccalls := c.run(true, asPred)
			wv, werr, wev, wcalls := c.run(false, asPred)
			where := fmt.Sprintf("%s over %v (widths %v, pred %v, %s)", lera.Format(c.e), c.segs, c.widths, asPred, c.setup)
			switch {
			case (cerr == nil) != (werr == nil) || cerr != nil && cerr.Error() != werr.Error():
				t.Fatalf("%s: compiled error %v, walker %v", where, cerr, werr)
			case cerr == nil && !sameValue(cv, wv):
				t.Fatalf("%s: compiled %s, walker %s", where, cv, wv)
			case cev != wev:
				t.Fatalf("%s: compiled PredEvals %d, walker %d", where, cev, wev)
			case ccalls != wcalls:
				t.Fatalf("%s: compiled injector calls %v, walker %v", where, ccalls, wcalls)
			}
		}
	})
}

// exprGen draws an expression case from fuzz bytes; past the end it reads
// zeros, which choose the simplest forms.
type exprGen struct {
	data []byte
	pos  int
}

func (g *exprGen) next(n int) int {
	if g.pos >= len(g.data) {
		return 0
	}
	g.pos++
	return int(g.data[g.pos-1]) % n
}

var (
	fuzzTuples = []value.Value{
		value.NewTuple([]string{"name", "n"}, []value.Value{value.String("a"), value.Int(1)}),
		value.NewTuple([]string{"name", "n"}, []value.Value{value.String("b"), value.Int(-3)}),
	}
	fuzzPool = []value.Value{
		value.Null, value.Int(0), value.Int(1), value.Int(-3),
		value.Real(0), value.Real(math.Copysign(0, -1)), value.Real(math.NaN()), value.Real(1.5),
		value.String("a"), value.String("Western"), value.True, value.False,
		value.NewSet(value.Int(1), value.Int(-3)), value.NewSet(), value.NewSet(value.True, value.False),
		value.NewList(value.String("a"), value.String("b")), value.NewBag(value.Real(math.NaN()), value.Int(1)),
		fuzzTuples[0], value.NewSet(fuzzTuples...), value.OID(1), value.OID(99),
		value.NewList(value.OID(1), value.OID(2)), value.NewArray(value.Real(math.Copysign(0, -1))),
	}
	fuzzFuncs = []string{"ISEMPTY", "COUNT", "BOOM", "NOSUCH", "name", "n", "ALL"}
	fuzzHits  = []string{"=", "<", "<>", "MEMBER", "ISEMPTY", "BOOM", "+", "ALL", "NAME", "COUNT"}
)

func (g *exprGen) expr(depth int) *term.Term {
	if depth == 0 {
		return g.leaf()
	}
	sub := func() *term.Term { return g.expr(depth - 1) }
	switch g.next(16) {
	case 3:
		return lera.Cmp([]string{"=", "<>", "<", ">", "<=", ">="}[g.next(6)], sub(), sub())
	case 4, 5:
		kids := make([]*term.Term, 1+g.next(3))
		for i := range kids {
			kids[i] = sub()
		}
		return term.F([]string{lera.EAnds, lera.EOrs}[g.next(2)], term.Set(kids...))
	case 6:
		return lera.Not(sub())
	case 7:
		return term.F("MEMBER", sub(), sub())
	case 8:
		return term.F([]string{"ISEMPTY", "ALL", "EXIST"}[g.next(3)], sub())
	case 9:
		return term.F([]string{"+", "-"}[g.next(2)], sub(), sub())
	case 10, 11:
		return lera.Call(fuzzFuncs[g.next(len(fuzzFuncs))], sub())
	case 12:
		return term.F(lera.EValue, sub())
	case 13:
		return term.F(lera.EProject, sub(), term.Str([]string{"name", "zz"}[g.next(2)]))
	case 14:
		return term.F([]string{term.FSet, term.FList, term.FBag, term.FArray}[g.next(4)], sub(), sub())
	case 15:
		args := make([]*term.Term, g.next(3))
		for i := range args {
			args[i] = sub()
		}
		return term.F(fuzzFuncs[g.next(len(fuzzFuncs))], args...)
	}
	return g.leaf()
}

func (g *exprGen) leaf() *term.Term {
	switch g.next(8) {
	case 0, 1, 2, 3:
		return lera.Attr(g.next(4), g.next(5))
	case 7:
		return term.V("x")
	}
	return term.C(fuzzPool[g.next(len(fuzzPool))])
}

// exprCase is one expression over one pair. segs are the rows of the
// walker's context; a SEARCH stage sees all but the last flattened as l.
type exprCase struct {
	e                *term.Term
	segs             [][]value.Value
	widths           []int
	override, armHit int // 0: none
	hitName          string
	mode             guard.FaultMode
	setup            string
}

func (g *exprGen) exprCase() *exprCase {
	c := &exprCase{e: g.expr(1 + g.next(4))}
	// The relation count: 1 to 3, or two (once a raw JOIN's layout) or one
	// (once a FILTER's) — FILTER and JOIN are SEARCHes now, and this byte
	// keeps the committed seeds' decoding.
	n := 1
	switch g.next(3) {
	case 0:
		n = 1 + g.next(3)
	case 1:
		n = 2
	}
	for i := 0; i < n; i++ {
		row := make([]value.Value, g.next(4))
		for j := range row {
			row[j] = fuzzPool[g.next(len(fuzzPool))]
		}
		c.segs = append(c.segs, row)
		c.widths = append(c.widths, len(row))
	}
	c.override = g.next(3)
	if c.armHit = g.next(5); c.armHit > 0 {
		c.hitName = fuzzHits[g.next(len(fuzzHits))]
		c.mode = []guard.FaultMode{guard.FaultError, guard.FaultPanic}[g.next(2)]
	}
	c.setup = fmt.Sprintf("override %d, armed %s at %d mode %d", c.override, c.hitName, c.armHit, c.mode)
	return c
}

// db returns a fresh database for one run: the objects the pool's OIDs
// name (99 dangles), BOOM — which panics on 1 — and, by c.override, "<>"
// replaced by a function that answers an int for two strings.
func (c *exprCase) db() *DB {
	db := New(catalog.New())
	db.SetObject(1, fuzzTuples[0])
	db.SetObject(2, fuzzTuples[1])
	db.Cat.ADTs.Register("BOOM", 1, true, func(a []value.Value) (value.Value, error) {
		if a[0].K == value.KInt && a[0].I == 1 {
			panic("boom")
		}
		return value.Bool(a[0].K.IsCollection()), nil
	})
	if c.override == 1 {
		db.Cat.ADTs.Register("<>", 2, true, func(a []value.Value) (value.Value, error) {
			if a[0].K == value.KString && a[1].K == value.KString {
				return value.Int(1), nil
			}
			return value.Bool(value.Compare(a[0], a[1]) != 0), nil
		})
	}
	if c.armHit > 0 {
		db.Injector = guard.NewInjector()
		db.Injector.Set(c.hitName, guard.Fault{OnCall: c.armHit, Mode: c.mode})
	}
	return db
}

// run evaluates the case compiled or walked, as a qualification or a
// value, and reports the value, the error, PredEvals and the injector's
// call counts.
func (c *exprCase) run(compiled, asPred bool) (value.Value, error, int, string) {
	db := c.db()
	var v value.Value
	var err error
	if compiled {
		var l []value.Value
		for _, s := range c.segs[:len(c.segs)-1] {
			l = append(l, s...)
		}
		r := c.segs[len(c.segs)-1]
		cc := compiler{db: db, widths: c.widths}
		if asPred {
			p := cc.pred(c.e, 0)
			var b bool
			b, err = (&frame{w: db, stack: make([]value.Value, cc.top)}).test(p, l, r)
			v = value.Bool(b)
		} else {
			n := cc.expr(c.e, 0)
			err = n.eval(&frame{w: db, stack: make([]value.Value, cc.top)}, l, r, &v)
		}
	} else if asPred {
		var b bool
		b, err = db.evalBool(c.e, c.segs)
		v = value.Bool(b)
	} else {
		v, err = db.evalExpr(c.e, c.segs)
	}
	calls := ""
	if db.Injector != nil {
		for _, name := range fuzzHits {
			calls += fmt.Sprintf("%s:%d ", name, db.Injector.Calls(name))
		}
	}
	return v, err, db.Count.PredEvals, calls
}

// sameValue is bit-for-bit equality: kinds, payload words (a real's bits,
// so -0.0 and NaN are themselves), strings, tuple names and elements.
func sameValue(a, b value.Value) bool {
	if a.K != b.K || a.I != b.I || a.S != b.S || len(a.Elems) != len(b.Elems) || fmt.Sprint(a.Names()) != fmt.Sprint(b.Names()) {
		return false
	}
	for i := range a.Elems {
		if !sameValue(a.Elems[i], b.Elems[i]) {
			return false
		}
	}
	return true
}
