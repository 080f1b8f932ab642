// Package lera defines LERA, the extended relational algebra of the
// paper's Section 3, as a typed veneer over the uniform term
// representation: operator symbols, constructors, well-formedness
// validation, schema inference and the paper-style concrete printer.
//
// A LERA expression IS a term (the paper interprets "LERA operators ...
// as functions", Section 4.1), so the rewriter needs no conversion layer
// and every part of a query is reachable by rules.
package lera

import (
	"fmt"
	"strings"

	"lera/internal/term"
	"lera/internal/value"
)

// Relational operator symbols (Section 3).
const (
	// OpRel references a base relation, view-expansion result or a
	// FIX/LET-bound name: REL('FILM').
	OpRel = "REL"
	// OpSearch is the compound operator of §3.1:
	// SEARCH(LIST(rels...), qual, LIST(projs...)).
	OpSearch = "SEARCH"
	// OpFilter and OpJoin are the basic operators; the canonicalisation
	// rules rewrite them into SEARCH form.
	OpFilter = "FILTER"
	OpJoin   = "JOIN"
	// OpUnion and OpInter are n-ary over a SET of expressions (§3.1's
	// union* and join* family); OpDiff is binary and ordered. The
	// functor names are chosen to be writable in the rule language
	// (UNION alone names the binary collection ADT function).
	OpUnion = "UNIONN"
	OpInter = "INTERN"
	OpDiff  = "DIFF"
	// OpFix is the fixpoint operator of §3.2:
	// FIX(name, expr, LIST(colnames...)); inside expr, REL(name) refers
	// to the relation being saturated.
	OpFix = "FIX"
	// OpNest groups the listed column indices into a set-valued column:
	// NEST(rel, LIST(idx...), newcol). OpUnnest is its inverse:
	// UNNEST(rel, idx).
	OpNest   = "NEST"
	OpUnnest = "UNNEST"
	// OpLet names an auxiliary expression: LET(name, def, body); the
	// magic-sets transformation introduces it (DESIGN.md §2.4).
	OpLet = "LET"
)

// Expression symbols used in qualifications and projections (§3.3, §3.4).
const (
	// EAttr is an attribute reference ATTR(i, j), printed i.j.
	EAttr = "ATTR"
	// ECall is a not-yet-type-checked ESQL function application
	// CALL('Name', args...); the type-checking rules rewrite it into
	// VALUE/PROJECT/ADT-function form.
	ECall = "CALL"
	// EValue dereferences an object identifier (§3.3).
	EValue = "VALUE"
	// EProject extracts a tuple attribute: PROJECT(x, 'Salary') (§3.3).
	EProject = "PROJECT"
	// EAnds and EOrs are the canonical n-ary connectives over a SET of
	// subformulas; the empty ANDS is TRUE, the empty ORS is FALSE.
	EAnds = "ANDS"
	EOrs  = "ORS"
	ENot  = "NOT"
)

// Rel constructs a relation reference.
func Rel(name string) *term.Term { return term.F(OpRel, term.Str(name)) }

// RelName extracts the name of a REL term.
func RelName(t *term.Term) (string, bool) {
	if t.Kind == term.Fun && t.Functor == OpRel && len(t.Args) == 1 && t.Args[0].Kind == term.Const {
		return t.Args[0].Val.S, true
	}
	return "", false
}

// Search constructs SEARCH(LIST(rels), qual, LIST(projs)).
func Search(rels []*term.Term, qual *term.Term, projs []*term.Term) *term.Term {
	return term.F(OpSearch, term.List(rels...), qual, term.List(projs...))
}

// Filter constructs FILTER(rel, qual).
func Filter(rel, qual *term.Term) *term.Term { return term.F(OpFilter, rel, qual) }

// Join constructs JOIN(r1, r2, qual).
func Join(r1, r2, qual *term.Term) *term.Term { return term.F(OpJoin, r1, r2, qual) }

// Union constructs UNION*(SET(exprs...)).
func Union(exprs ...*term.Term) *term.Term { return term.F(OpUnion, term.Set(exprs...)) }

// Inter constructs INTER*(SET(exprs...)).
func Inter(exprs ...*term.Term) *term.Term { return term.F(OpInter, term.Set(exprs...)) }

// Diff constructs DIFF(a, b).
func Diff(a, b *term.Term) *term.Term { return term.F(OpDiff, a, b) }

// Fix constructs FIX(name, expr, LIST(cols...)).
func Fix(name string, expr *term.Term, cols []string) *term.Term {
	cs := make([]*term.Term, len(cols))
	for i, c := range cols {
		cs[i] = term.Str(c)
	}
	return term.F(OpFix, term.Str(name), expr, term.List(cs...))
}

// Nest constructs NEST(rel, LIST(idx...), newcol).
func Nest(rel *term.Term, idxs []int, newcol string) *term.Term {
	is := make([]*term.Term, len(idxs))
	for i, j := range idxs {
		is[i] = term.Num(int64(j))
	}
	return term.F(OpNest, rel, term.List(is...), term.Str(newcol))
}

// Attr constructs an attribute reference ATTR(i, j) — relation i (1-based
// within the enclosing operator's relation list), column j. Small indices
// answer with a node shared from attrTable; terms are immutable, so no
// holder can tell it from a fresh one.
func Attr(i, j int) *term.Term {
	if uint(i) < attrRels && uint(j) < attrCols {
		return attrTable[i][j]
	}
	return term.F(EAttr, term.Num(int64(i)), term.Num(int64(j)))
}

// attrRels x attrCols bounds the shared ATTR nodes: every translated query
// and most rewrites stay inside it, and the table costs about 47 KB.
const attrRels, attrCols = 8, 32

// attrTable holds ATTR(i, j) for i < attrRels and j < attrCols, built once
// over shared index constants.
var attrTable = func() (t [attrRels][attrCols]*term.Term) {
	var nums [attrCols]*term.Term
	for k := range nums {
		nums[k] = term.Num(int64(k))
	}
	for i := range t {
		for j := range t[i] {
			t[i][j] = term.F(EAttr, nums[i], nums[j])
		}
	}
	return t
}()

// AttrIdx extracts (i, j) from an ATTR term.
func AttrIdx(t *term.Term) (int, int, bool) {
	if t.Kind == term.Fun && t.Functor == EAttr && len(t.Args) == 2 {
		i, iok := IntConst(t.Args[0])
		j, jok := IntConst(t.Args[1])
		if iok && jok {
			return i, j, true
		}
	}
	return 0, 0, false
}

// IntConst returns the value of an integer constant, the only term a
// relation or column index position (ATTR, NEST, UNNEST, REFERONLY) may
// hold. Any other constant is not an index: a real's payload word is its
// float bits, so ATTR(1.5, 2) must not read as relation 4609434218613702656.
func IntConst(t *term.Term) (int, bool) {
	if t.Kind != term.Const || t.Val.K != value.KInt {
		return 0, false
	}
	return int(t.Val.I), true
}

// Call constructs a raw ESQL function application CALL('name', args...).
func Call(name string, args ...*term.Term) *term.Term {
	return term.F(ECall, append([]*term.Term{term.Str(name)}, args...)...)
}

// CallName extracts the function name of a CALL term.
func CallName(t *term.Term) (string, bool) {
	if t.Kind == term.Fun && t.Functor == ECall && len(t.Args) >= 1 && t.Args[0].Kind == term.Const {
		return t.Args[0].Val.S, true
	}
	return "", false
}

// Ands constructs the canonical conjunction ANDS(SET(conjuncts...));
// duplicate conjuncts collapse by SET semantics, nested ANDS flatten, and
// TRUE conjuncts are dropped.
func Ands(conjuncts ...*term.Term) *term.Term {
	var flat []*term.Term
	for _, c := range conjuncts {
		switch {
		case c.Kind == term.Fun && c.Functor == EAnds && len(c.Args) == 1:
			flat = append(flat, c.Args[0].Args...)
		case c.Kind == term.Const && c.Val.IsTrue():
			// drop
		default:
			flat = append(flat, c)
		}
	}
	return term.F(EAnds, term.Set(flat...))
}

// Ors constructs ORS(SET(disjuncts...)).
func Ors(disjuncts ...*term.Term) *term.Term {
	var flat []*term.Term
	for _, d := range disjuncts {
		switch {
		case d.Kind == term.Fun && d.Functor == EOrs && len(d.Args) == 1:
			flat = append(flat, d.Args[0].Args...)
		case d.Kind == term.Const && d.Val.K == value.KBool && !d.Val.B(): // FALSE
			// drop
		default:
			flat = append(flat, d)
		}
	}
	return term.F(EOrs, term.Set(flat...))
}

// Not constructs NOT(q).
func Not(q *term.Term) *term.Term { return term.F(ENot, q) }

// Cmp constructs a comparison op(a, b) with op in = <> < > <= >=.
func Cmp(op string, a, b *term.Term) *term.Term { return term.F(op, a, b) }

// Conjuncts returns the conjunct list of a qualification: the SET elements
// of an ANDS, or the qualification itself as a single conjunct. TRUE
// yields none.
func Conjuncts(q *term.Term) []*term.Term {
	if q.Kind == term.Fun && q.Functor == EAnds && len(q.Args) == 1 && q.Args[0].Functor == term.FSet {
		return q.Args[0].Args
	}
	if q.Kind == term.Const && q.Val.IsTrue() {
		return nil
	}
	return []*term.Term{q}
}

// TrueQual is the empty conjunction.
func TrueQual() *term.Term { return Ands() }

// IsTrueQual reports whether q is trivially true.
func IsTrueQual(q *term.Term) bool {
	return len(Conjuncts(q)) == 0
}

// IsOp reports whether t is an application of the given operator.
func IsOp(t *term.Term, op string) bool {
	return t != nil && t.Kind == term.Fun && t.Functor == op
}

// IsRelational reports whether t is a relational operator node (produces
// a relation when evaluated).
func IsRelational(t *term.Term) bool {
	if t == nil || t.Kind != term.Fun {
		return false
	}
	switch t.Functor {
	case OpRel, OpSearch, OpFilter, OpJoin, OpUnion, OpInter, OpDiff, OpFix, OpNest, OpUnnest, OpLet:
		return true
	}
	return false
}

// Validate checks the structural well-formedness of a LERA term: operator
// arities, LIST/SET argument shapes, and that attribute references are
// positive. It returns the first violation found, in preorder. A valid
// term costs no allocation: the path of a violation is only looked for
// once there is one.
func Validate(t *term.Term) error {
	var err error
	var bad *term.Term
	term.Visit(t, func(s *term.Term) bool {
		if s.Kind != term.Fun {
			return true
		}
		fail := func(format string, args ...any) bool {
			err, bad = fmt.Errorf(format, args...), s
			return false
		}
		switch s.Functor {
		case OpRel:
			if len(s.Args) != 1 || s.Args[0].Kind != term.Const {
				return fail("REL requires one constant name, got %s", s)
			}
		case OpSearch:
			if len(s.Args) != 3 {
				return fail("SEARCH requires 3 arguments, got %d", len(s.Args))
			}
			if !IsOp(s.Args[0], term.FList) {
				return fail("SEARCH relations must be a LIST, got %s", s.Args[0])
			}
			if !IsOp(s.Args[2], term.FList) {
				return fail("SEARCH projection must be a LIST, got %s", s.Args[2])
			}
			for _, r := range s.Args[0].Args {
				if !IsRelational(r) {
					return fail("SEARCH relation operand %s is not relational", r)
				}
			}
		case OpFilter:
			if len(s.Args) != 2 || !IsRelational(s.Args[0]) {
				return fail("FILTER requires (relation, qual), got %s", s)
			}
		case OpJoin:
			if len(s.Args) != 3 || !IsRelational(s.Args[0]) || !IsRelational(s.Args[1]) {
				return fail("JOIN requires (relation, relation, qual), got %s", s)
			}
		case OpUnion, OpInter:
			if len(s.Args) != 1 || !IsOp(s.Args[0], term.FSet) {
				return fail("%s requires a SET of expressions, got %s", s.Functor, s)
			}
			for _, r := range s.Args[0].Args {
				if !IsRelational(r) {
					return fail("%s operand %s is not relational", s.Functor, r)
				}
			}
		case OpDiff:
			if len(s.Args) != 2 || !IsRelational(s.Args[0]) || !IsRelational(s.Args[1]) {
				return fail("DIFF requires two relational operands, got %s", s)
			}
		case OpFix:
			if len(s.Args) != 3 || s.Args[0].Kind != term.Const || !IsRelational(s.Args[1]) || !IsOp(s.Args[2], term.FList) {
				return fail("FIX requires (name, expr, LIST(cols)), got %s", s)
			}
		case OpLet:
			if len(s.Args) != 3 || s.Args[0].Kind != term.Const || !IsRelational(s.Args[1]) || !IsRelational(s.Args[2]) {
				return fail("LET requires (name, def, body), got %s", s)
			}
		case OpNest:
			if len(s.Args) != 3 || !IsRelational(s.Args[0]) || !IsOp(s.Args[1], term.FList) || s.Args[2].Kind != term.Const {
				return fail("NEST requires (rel, LIST(idx), name), got %s", s)
			}
		case OpUnnest:
			if len(s.Args) != 2 || !IsRelational(s.Args[0]) || s.Args[1].Kind != term.Const {
				return fail("UNNEST requires (rel, idx), got %s", s)
			}
		case EAttr:
			i, j, ok := AttrIdx(s)
			if !ok || i < 1 || j < 1 {
				return fail("ATTR requires two positive indices, got %s", s)
			}
		case ECall:
			if len(s.Args) < 1 || s.Args[0].Kind != term.Const || s.Args[0].Val.K != value.KString {
				return fail("CALL requires a constant function name, got %s", s)
			}
		case EValue:
			if len(s.Args) != 1 {
				return fail("VALUE requires one argument, got %s", s)
			}
		case EProject:
			if len(s.Args) != 2 || s.Args[1].Kind != term.Const {
				return fail("PROJECT requires (expr, 'field'), got %s", s)
			}
		case EAnds, EOrs:
			if len(s.Args) != 1 || !IsOp(s.Args[0], term.FSet) {
				return fail("%s requires a SET of formulas, got %s", s.Functor, s)
			}
		}
		return true
	})
	if err == nil {
		return nil
	}
	var at term.Path
	term.Walk(t, func(s *term.Term, p term.Path) bool {
		if s == bad {
			at = p.Clone()
		}
		return s != bad
	})
	return fmt.Errorf("lera: at %v: %w", at, err)
}

// OperatorCount counts relational operator nodes — the program-size
// metric of experiment E1 ("merging rules reduce the size of a LERA
// program", §5.1).
func OperatorCount(t *term.Term) int {
	return term.Count(t, func(s *term.Term) bool { return IsRelational(s) })
}

// SearchCount counts SEARCH nodes.
func SearchCount(t *term.Term) int {
	return term.Count(t, func(s *term.Term) bool { return IsOp(s, OpSearch) })
}

// ShiftAttrs returns expr with every ATTR(i, j) satisfying i >= from
// replaced by ATTR(i+delta, j). Used by the SUBSTITUTE/SHIFT methods.
func ShiftAttrs(expr *term.Term, from, delta int) *term.Term {
	return term.Rewrite(expr, func(s *term.Term) *term.Term {
		if i, j, ok := AttrIdx(s); ok && i >= from {
			return Attr(i+delta, j)
		}
		return s
	})
}

// MapAttrs rewrites every ATTR in expr through fn; fn returns the
// replacement term (possibly the input unchanged).
func MapAttrs(expr *term.Term, fn func(i, j int, at *term.Term) *term.Term) *term.Term {
	return term.Rewrite(expr, func(s *term.Term) *term.Term {
		if i, j, ok := AttrIdx(s); ok {
			return fn(i, j, s)
		}
		return s
	})
}

// RefersOnly reports whether every ATTR(i, _) in expr satisfies pred(i) —
// the REFER external of Figure 8 builds on it.
func RefersOnly(expr *term.Term, pred func(i, j int) bool) bool {
	ok := true
	term.Visit(expr, func(s *term.Term) bool {
		if i, j, isAttr := AttrIdx(s); isAttr && !pred(i, j) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// lowerFunctor renders a functor for printing.
func lowerFunctor(f string) string {
	switch f {
	case EValue, EProject:
		return f
	}
	return strings.ToLower(f)
}
