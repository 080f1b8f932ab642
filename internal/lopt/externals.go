// Package lopt implements the syntactic part of the logical optimizer
// (Section 5): the LERA-specific external functions the paper's rules call
// (SUBSTITUTE, REFER, SCHEMA-derived identity projections, the nest-push
// splitter) and the default syntactic rule base — normalisation, operation
// merging (Figure 7) and operation permutation (Figure 8).
package lopt

import (
	"fmt"

	"lera/internal/lera"
	"lera/internal/rewrite"
	"lera/internal/term"
)

// RegisterExternals installs the syntactic externals into the registry.
func RegisterExternals(ext *rewrite.Externals) {
	ext.RegisterMethod("SUBSTITUTE", substitute)
	ext.RegisterMethod("SHIFT", shift)
	ext.RegisterMethod("IDPROJ", idProj)
	ext.RegisterMethod("PUSHNEST", pushNest)
	ext.RegisterConstraint("REFERONLY", referOnly)
	ext.RegisterConstraint("ISTRUEQ", func(ctx *rewrite.Ctx, args []*term.Term) (bool, error) {
		if len(args) != 1 {
			return false, fmt.Errorf("ISTRUEQ takes one qualification")
		}
		return lera.IsTrueQual(args[0]), nil
	})
	ext.RegisterConstraint("ISIDPROJ", isIDProj)
	ext.RegisterBuiltin("ORMERGE", func(ctx *rewrite.Ctx, args []*term.Term) (*term.Term, error) {
		return lera.Ors(args...), nil
	})
}

func listArgs(t *term.Term) ([]*term.Term, bool) {
	if t != nil && t.Kind == term.Fun && t.Functor == term.FList {
		return t.Args, true
	}
	return nil, false
}

func bindOut(ctx *rewrite.Ctx, out *term.Term, val *term.Term) error {
	if out.Kind != term.Var {
		return fmt.Errorf("output argument must be an unbound variable, got %s", out)
	}
	ctx.Bind.BindVar(out.Name, val)
	return nil
}

// substitute implements the SUBSTITUTE method of the Figure 7 search
// merging rule: SUBSTITUTE(q, x*, v*, z, b, out).
//
// The inner search sat at position p = len(x*)+1 of the outer relation
// list and is replaced by its own relations z, appended AFTER x* and v*
// (the paper's append(x*, v*, z)). The outer expression q is remapped:
//
//   - ATTR(i, j) with i < p: unchanged;
//   - ATTR(i, j) with i > p: i decreases by one (the inner search left
//     the list);
//   - ATTR(p, j): replaced by the inner projection expression b[j], whose
//     own ATTRs shift by len(x*)+len(v*) because z now starts there.
func substitute(ctx *rewrite.Ctx, args []*term.Term) (bool, error) {
	if len(args) != 6 {
		return false, fmt.Errorf("SUBSTITUTE takes (q, x*, v*, z, b, out)")
	}
	q := args[0]
	xs, ok1 := listArgs(args[1])
	vs, ok2 := listArgs(args[2])
	zs, ok3 := listArgs(args[3])
	bs, ok4 := listArgs(args[4])
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return false, fmt.Errorf("SUBSTITUTE: list arguments expected")
	}
	_ = zs
	p := len(xs) + 1
	offset := len(xs) + len(vs)
	var mapErr error
	out := lera.MapAttrs(q, func(i, j int, at *term.Term) *term.Term {
		switch {
		case i < p:
			return at
		case i > p:
			return lera.Attr(i-1, j)
		default: // i == p: inline the inner projection expression
			if j < 1 || j > len(bs) {
				mapErr = fmt.Errorf("SUBSTITUTE: projection index %d out of range 1..%d", j, len(bs))
				return at
			}
			return lera.ShiftAttrs(bs[j-1], 1, offset)
		}
	})
	if mapErr != nil {
		return false, mapErr
	}
	return true, bindOut(ctx, args[5], out)
}

// shift implements SHIFT(g, x*, v*, z, out): the inner search's
// qualification g refers to z's positions 1..len(z); after the merge z
// starts at len(x*)+len(v*)+1, so every reference shifts by that offset.
func shift(ctx *rewrite.Ctx, args []*term.Term) (bool, error) {
	if len(args) != 5 {
		return false, fmt.Errorf("SHIFT takes (g, x*, v*, z, out)")
	}
	xs, ok1 := listArgs(args[1])
	vs, ok2 := listArgs(args[2])
	if !ok1 || !ok2 {
		return false, fmt.Errorf("SHIFT: list arguments expected")
	}
	out := lera.ShiftAttrs(args[0], 1, len(xs)+len(vs))
	return true, bindOut(ctx, args[4], out)
}

// idProj implements IDPROJ(r1, ..., rn, out): bind out to the identity
// projection LIST(1.1, ..., n.k) over the relation list (r1, ..., rn) —
// the SCHEMA method of Figure 8 specialised to the use the
// canonicalisation rules need.
func idProj(ctx *rewrite.Ctx, args []*term.Term) (bool, error) {
	if len(args) < 2 {
		return false, fmt.Errorf("IDPROJ takes (rel, ..., out)")
	}
	p, err := idProjN(ctx, args[:len(args)-1])
	if err != nil {
		return false, nil // unknown schema: not applicable
	}
	return true, bindOut(ctx, args[len(args)-1], p)
}

// idProjN is the identity projection over a relation list: LIST(1.*, 2.*, ...).
func idProjN(ctx *rewrite.Ctx, rels []*term.Term) (*term.Term, error) {
	var projs []*term.Term
	for i, r := range rels {
		s, err := ctx.InferAt(r)
		if err != nil {
			return nil, err
		}
		for j := 1; j <= s.Arity(); j++ {
			projs = append(projs, lera.Attr(i+1, j))
		}
	}
	return term.List(projs...), nil
}

// isIDProj implements ISIDPROJ(e, r): e is the identity projection
// LIST(1.1, ..., 1.n) over relation expression r.
func isIDProj(ctx *rewrite.Ctx, args []*term.Term) (bool, error) {
	if len(args) != 2 {
		return false, fmt.Errorf("ISIDPROJ takes (proj, rel)")
	}
	projs, ok := listArgs(args[0])
	if !ok {
		return false, nil
	}
	s, err := ctx.InferAt(args[1])
	if err != nil || s.Arity() != len(projs) {
		return false, nil
	}
	for j, p := range projs {
		i, jj, isAttr := lera.AttrIdx(p)
		if !isAttr || i != 1 || jj != j+1 {
			return false, nil
		}
	}
	return true, nil
}

// referOnly implements the REFER check of Figure 8 as a constraint:
// REFERONLY(q, n) is true when every attribute reference in q addresses
// relation n (a positive integer constant).
func referOnly(ctx *rewrite.Ctx, args []*term.Term) (bool, error) {
	if len(args) != 2 {
		return false, fmt.Errorf("REFERONLY takes (qual, relIndex)")
	}
	n, ok := lera.IntConst(args[1])
	if !ok {
		return false, fmt.Errorf("REFERONLY: relation index must be an integer, got %s", args[1])
	}
	return lera.RefersOnly(args[0], func(i, j int) bool { return i == n }), nil
}

// pushNest implements the Figure 8 "search through nest pushing" rule's
// computational core: PUSHNEST(q, x*, z, a, b, qi2, qj, e2, z2).
//
// Given the outer qualification q and a NEST(z, a, b) at position
// p = len(x*)+1, it partitions q's conjuncts into those referring ONLY to
// non-nested output columns of the nest at position p (the paper's quali*,
// selected by the REFER condition) and the rest (qualj*). It binds:
//
//	qi2 — quali* remapped into the nest input's coordinates (rel 1),
//	qj  — qualj*, unchanged (the nest keeps its position),
//	e2  — the identity projection over z (the SCHEMA method's role),
//	z2  — LIST(z), the inner search's relation list.
//
// It vetoes the rule when no conjunct can be pushed.
func pushNest(ctx *rewrite.Ctx, args []*term.Term) (bool, error) {
	if len(args) != 9 {
		return false, fmt.Errorf("PUSHNEST takes (q, x*, z, a, b, qi2, qj, e2, z2)")
	}
	q := args[0]
	xs, ok := listArgs(args[1])
	if !ok {
		return false, fmt.Errorf("PUSHNEST: x* must be a list")
	}
	z := args[2]
	aIdxs, ok := listArgs(args[3])
	if !ok {
		return false, fmt.Errorf("PUSHNEST: nest attribute list expected")
	}
	p := len(xs) + 1

	zSchema, err := ctx.InferAt(z)
	if err != nil {
		return false, nil // cannot type the nest input: not applicable
	}
	// Map from nest-output column index (non-nested columns, in order)
	// to nest-input column index.
	nested := map[int]bool{}
	for _, ix := range aIdxs {
		j, ok := lera.IntConst(ix)
		if !ok {
			return false, nil // not a NEST this rule understands
		}
		nested[j] = true
	}
	var outToIn []int
	for j := 1; j <= zSchema.Arity(); j++ {
		if !nested[j] {
			outToIn = append(outToIn, j)
		}
	}
	nestedColOut := len(outToIn) + 1 // the new collection column

	var pushed, kept []*term.Term
	for _, c := range lera.Conjuncts(q) {
		pushable := lera.RefersOnly(c, func(i, j int) bool {
			return i == p && j < nestedColOut && j >= 1
		})
		// A conjunct with no attribute references at all stays put.
		hasAttr := term.Contains(c, func(s *term.Term) bool {
			_, _, isAttr := lera.AttrIdx(s)
			return isAttr
		})
		if pushable && hasAttr {
			pushed = append(pushed, lera.MapAttrs(c, func(i, j int, at *term.Term) *term.Term {
				return lera.Attr(1, outToIn[j-1])
			}))
		} else {
			kept = append(kept, c)
		}
	}
	if len(pushed) == 0 {
		return false, nil // nothing to push: veto (the REFER condition)
	}
	e2, err := idProjN(ctx, []*term.Term{z})
	if err != nil {
		return false, nil
	}
	if err := bindOut(ctx, args[5], lera.Ands(pushed...)); err != nil {
		return false, err
	}
	if err := bindOut(ctx, args[6], lera.Ands(kept...)); err != nil {
		return false, err
	}
	if err := bindOut(ctx, args[7], e2); err != nil {
		return false, err
	}
	return true, bindOut(ctx, args[8], term.List(z))
}
