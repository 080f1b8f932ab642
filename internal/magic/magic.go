// Package magic implements the fixpoint reduction of Section 5.3: the
// ADORNMENT and ALEXANDER methods invoked by the Figure 9 rule, which
// "pushes selection before recursion" by transforming a search over a
// fixpoint into a fixpoint focused on the relevant facts.
//
// Following the paper, the transformation is performed directly on the
// algebra ("this avoids unnecessary translation from algebra to logic, and
// from logic to algebra"). Two recursion shapes are supported:
//
//   - linear recursion (one occurrence of the recursive relation per
//     union member) in which the bound head column is copied verbatim
//     from the same column of the recursive occurrence — the binding is
//     invariant, so the selection moves onto every non-recursive seed;
//   - the bilinear transitive-closure shape of the paper's Figure 5
//     (BETTER_THAN), which is first linearised in the direction chosen by
//     the adornment (right-linear when the second column is bound,
//     left-linear when the first is) and then falls into the first case.
//
// Anything else vetoes the rule, leaving the query unchanged — the safe
// outcome the paper's rule-condition mechanism exists for.
package magic

import (
	"fmt"

	"lera/internal/lera"
	"lera/internal/rewrite"
	"lera/internal/term"
)

// FixpointRules is the Figure 9 rule in the rule language: when a search
// ranges over a fixpoint, compute the adornment from the qualification
// and invoke the Alexander method; the fixpoint operand is replaced by the
// focused program u.
const FixpointRules = `
rule alexander:
  SEARCH(LIST(x*, FIX(n, e, c), y*), q, a)
  / -->
  SEARCH(LIST(x*, u, y*), q, a)
  / ADORNMENT(q, x*, c, s), ALEXANDER(n, e, c, s, q, x*, u) ;

block(fixpoint, {alexander}, inf);
`

// RegisterExternals installs the ADORNMENT and ALEXANDER methods.
func RegisterExternals(ext *rewrite.Externals) {
	ext.RegisterMethod("ADORNMENT", adornment)
	ext.RegisterMethod("ALEXANDER", alexander)
}

// binding describes one bound column of the fixpoint output: the column
// index and the selecting conjunct (with the fix at list position p).
type binding struct {
	col  int
	pred *term.Term
}

// extractBindings finds conjuncts of q that bind a column of the relation
// at position p by comparison with a constant, possibly through a
// function call: =(ATTR(p,j), const), =(CALL(f, ATTR(p,j)), const), etc.
func extractBindings(q *term.Term, p int) []binding {
	var out []binding
	for _, c := range lera.Conjuncts(q) {
		if c.Kind != term.Fun || c.Functor != "=" || len(c.Args) != 2 {
			continue
		}
		attrs := collectAttrs(c)
		if len(attrs) != 1 || attrs[0][0] != p {
			continue
		}
		// One side must be ground (the constant); the other contains the
		// single attribute reference.
		l, r := c.Args[0], c.Args[1]
		if !l.IsGround() && !r.IsGround() {
			continue
		}
		out = append(out, binding{col: attrs[0][1], pred: c})
	}
	return out
}

func collectAttrs(e *term.Term) [][2]int {
	var out [][2]int
	term.Visit(e, func(s *term.Term) bool {
		if i, j, ok := lera.AttrIdx(s); ok {
			out = append(out, [2]int{i, j})
		}
		return true
	})
	return out
}

// adornment implements ADORNMENT(q, x*, c, s): bind s to the LIST of
// bound column indices of the fixpoint at position len(x*)+1. Vetoes when
// nothing is bound (the recursion cannot be focused).
func adornment(ctx *rewrite.Ctx, args []*term.Term) (bool, error) {
	if len(args) != 4 {
		return false, fmt.Errorf("ADORNMENT takes (q, x*, c, s)")
	}
	xs := args[1]
	if xs.Kind != term.Fun || xs.Functor != term.FList {
		return false, fmt.Errorf("ADORNMENT: x* must be a list")
	}
	p := len(xs.Args) + 1
	bs := extractBindings(args[0], p)
	if len(bs) == 0 {
		return false, nil // free adornment: veto
	}
	cols := make([]*term.Term, len(bs))
	for i, b := range bs {
		cols[i] = term.Num(int64(b.col))
	}
	out := args[3]
	if out.Kind != term.Var {
		return false, fmt.Errorf("ADORNMENT: output must be an unbound variable")
	}
	ctx.Bind.BindVar(out.Name, term.List(cols...))
	return true, nil
}

// alexander implements ALEXANDER(n, e, c, s, q, x*, u): build the focused
// fixpoint program and bind it to u. Vetoes when the recursion shape is
// unsupported.
func alexander(ctx *rewrite.Ctx, args []*term.Term) (bool, error) {
	if len(args) != 7 {
		return false, fmt.Errorf("ALEXANDER takes (n, e, c, s, q, x*, u)")
	}
	name := args[0]
	body := args[1]
	cols := args[2]
	q := args[4]
	xs := args[5]
	out := args[6]
	if out.Kind != term.Var {
		return false, fmt.Errorf("ALEXANDER: output must be an unbound variable")
	}
	if xs.Kind != term.Fun || xs.Functor != term.FList {
		return false, fmt.Errorf("ALEXANDER: x* must be a list")
	}
	p := len(xs.Args) + 1
	bs := extractBindings(q, p)
	if len(bs) == 0 {
		return false, nil
	}
	focused, ok := Focus(name.Val.S, body, colNames(cols), bs)
	if !ok {
		return false, nil
	}
	ctx.Bind.BindVar(out.Name, focused)
	return true, nil
}

func colNames(cols *term.Term) []string {
	out := make([]string, len(cols.Args))
	for i, c := range cols.Args {
		out[i] = c.Val.S
	}
	return out
}

// Focus builds the focused fixpoint for fix(name, body, cols) under the
// given bound columns. Each binding is tried in turn and the first that
// yields a supported, binding-invariant program wins — the outer
// qualification still applies every predicate, so focusing by one binding
// is always sound. It returns ok=false when no binding can focus the
// recursion.
func Focus(name string, body *term.Term, cols []string, bs []binding) (*term.Term, bool) {
	if !lera.IsOp(body, lera.OpUnion) {
		return nil, false
	}
	var seeds, recs []*term.Term
	for _, m := range body.Args[0].Args {
		if refersTo(m, name) {
			recs = append(recs, m)
		} else {
			seeds = append(seeds, m)
		}
	}
	if len(seeds) == 0 || len(recs) == 0 {
		return nil, false
	}
	arity := len(cols)
	for _, b := range bs {
		if alreadyFiltered(seeds, b) {
			// The seeds already carry this binding predicate — the
			// program is focused; re-applying would wrap filter layers
			// forever (the paper applies Alexander "once only for every
			// recursive predicate").
			continue
		}
		var linearRecs []*term.Term
		ok := true
		for _, r := range recs {
			lr, lok := linearize(r, name, arity, b, seeds)
			if !lok || !bindingInvariant(lr, name, b.col) {
				ok = false
				break
			}
			linearRecs = append(linearRecs, lr)
		}
		if !ok {
			continue
		}
		var focusedSeeds []*term.Term
		for _, s := range seeds {
			focusedSeeds = append(focusedSeeds, filterSeed(s, arity, b))
		}
		members := append(focusedSeeds, linearRecs...)
		return lera.Fix(name, lera.Union(members...), cols), true
	}
	return nil, false
}

func refersTo(m *term.Term, name string) bool {
	return term.Contains(m, func(s *term.Term) bool {
		n, ok := lera.RelName(s)
		return ok && equalFold(n, name)
	})
}

func equalFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'a' <= ca && ca <= 'z' {
			ca -= 32
		}
		if 'a' <= cb && cb <= 'z' {
			cb -= 32
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// recOccurrences returns the list positions (1-based) of REL(name) in a
// SEARCH member's relation list; ok is false if the member is not a
// SEARCH or references name outside the relation list.
func recOccurrences(m *term.Term, name string) ([]int, bool) {
	if !lera.IsOp(m, lera.OpSearch) {
		return nil, false
	}
	var occ []int
	for i, r := range m.Args[0].Args {
		if n, ok := lera.RelName(r); ok && equalFold(n, name) {
			occ = append(occ, i+1)
		} else if refersTo(r, name) {
			return nil, false // nested reference: unsupported
		}
	}
	if refersTo(m.Args[1], name) || refersTo(m.Args[2], name) {
		return nil, false
	}
	return occ, true
}

// linearize returns a linear version of a recursive member. Already
// linear members pass through; the bilinear TC shape
//
//	search((R, R), [1.2=2.1], (1.1, 2.2))
//
// is rewritten right-linear (search((D', R), ...)) when the second column
// is bound, or left-linear (search((R, D'), ...)) when the first is,
// where D' is the union of the seed expressions — equivalent for
// transitive closure.
func linearize(m *term.Term, name string, arity int, b binding, seeds []*term.Term) (*term.Term, bool) {
	occ, ok := recOccurrences(m, name)
	if !ok {
		return nil, false
	}
	switch len(occ) {
	case 1:
		return m, true
	case 2:
		if !isBilinearTC(m, name, arity) {
			return nil, false
		}
		seed := seedUnion(seeds)
		rels := m.Args[0].Args
		// Direction: bound col 2 -> keep the second occurrence recursive
		// (right-linear); bound col 1 -> keep the first (left-linear).
		rightLinear := b.col == 2
		nrels := append([]*term.Term(nil), rels...)
		if rightLinear {
			nrels[0] = seed
		} else {
			nrels[1] = seed
		}
		return term.F(lera.OpSearch, term.List(nrels...), m.Args[1], m.Args[2]), true
	}
	return nil, false
}

// isBilinearTC recognises search((R, R), [1.2=2.1], (1.1, 2.2)) for
// binary R (the §3.2 BETTER_THAN recursion).
func isBilinearTC(m *term.Term, name string, arity int) bool {
	if arity != 2 {
		return false
	}
	rels := m.Args[0].Args
	if len(rels) != 2 {
		return false
	}
	for _, r := range rels {
		n, ok := lera.RelName(r)
		if !ok || !equalFold(n, name) {
			return false
		}
	}
	conjs := lera.Conjuncts(m.Args[1])
	if len(conjs) != 1 || !term.Equal(conjs[0], lera.Cmp("=", lera.Attr(1, 2), lera.Attr(2, 1))) {
		return false
	}
	projs := m.Args[2].Args
	return len(projs) == 2 &&
		term.Equal(projs[0], lera.Attr(1, 1)) &&
		term.Equal(projs[1], lera.Attr(2, 2))
}

func seedUnion(seeds []*term.Term) *term.Term {
	if len(seeds) == 1 {
		return seeds[0]
	}
	return lera.Union(seeds...)
}

// bindingInvariant reports whether the bound head column col is copied
// verbatim from column col of the (single) recursive occurrence — the
// condition under which the selection commutes with the fixpoint.
func bindingInvariant(m *term.Term, name string, col int) bool {
	occ, ok := recOccurrences(m, name)
	if !ok || len(occ) != 1 {
		return false
	}
	projs := m.Args[2].Args
	if col < 1 || col > len(projs) {
		return false
	}
	i, j, isAttr := lera.AttrIdx(projs[col-1])
	return isAttr && i == occ[0] && j == col
}

// remapBinding rewrites a binding predicate from the fixpoint's outer
// list position to position 1 (the seed's own coordinates).
func remapBinding(b binding) *term.Term {
	return lera.MapAttrs(b.pred, func(i, j int, at *term.Term) *term.Term {
		return lera.Attr(1, j)
	})
}

// alreadyFiltered reports whether every seed already carries the remapped
// binding predicate somewhere in its subtree (filter layers stack when a
// query binds the same column more than once, so a top-level check alone
// would re-focus forever).
func alreadyFiltered(seeds []*term.Term, b binding) bool {
	want := remapBinding(b)
	for _, s := range seeds {
		if !term.Contains(s, func(sub *term.Term) bool { return term.Equal(sub, want) }) {
			return false
		}
	}
	return true
}

// filterSeed wraps a seed expression in a search applying the binding
// predicates, remapped from the fixpoint's outer position to position 1.
func filterSeed(seed *term.Term, arity int, b binding) *term.Term {
	projs := make([]*term.Term, arity)
	for j := 1; j <= arity; j++ {
		projs[j-1] = lera.Attr(1, j)
	}
	return lera.Search([]*term.Term{seed}, lera.Ands(remapBinding(b)), projs)
}
