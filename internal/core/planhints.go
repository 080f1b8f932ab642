package core

// Planning hints — the Section 7 extension ("We believe that the ideas
// developed in this paper might be applicable to query planning"): a small
// cost-aware rule block that reorders a search's relation list by
// estimated cardinality, smallest first, so the engine's left-to-right
// join pipeline filters early. This is deliberately beyond the paper's
// rewriter proper and is off by default (enable with WithPlanning).

import (
	"fmt"
	"sort"

	"lera/internal/lera"
	"lera/internal/rewrite"
	"lera/internal/term"
)

// PlanningRules is the planning block — a single rule whose JOINORDER
// method computes the permutation and remaps attribute references — and
// the default sequence with the block appended after simplification.
const PlanningRules = `
rule join_order:
  SEARCH(z, q, a)
  / -->
  SEARCH(z2, q2, a2)
  / JOINORDER(z, q, a, z2, q2, a2) ;

block(planning, {join_order}, inf);
seq({typecheck, normalize, merge, push, fixpoint, merge, constraints, semantic, simplify, merge, planning}, 2);
`

// WithPlanning enables the planning-hint block: it adds PlanningRules as
// one rules source, so a later seq(...) given to WithRules replaces its
// sequence.
func WithPlanning() Option { return WithRules(PlanningRules) }

func registerPlanningExternals(ext *rewrite.Externals) {
	ext.RegisterMethod("JOINORDER", joinOrder)
}

// joinOrder implements JOINORDER(z, q, a, z2, q2, a2): sort the relation
// list ascending by the catalog's cardinality estimates (stable), remap
// ATTR references in the qualification and projection, and bind the
// outputs. Vetoes when fewer than two operands, when any operand is not a
// plain base-relation reference, or when the order is already optimal.
func joinOrder(ctx *rewrite.Ctx, args []*term.Term) (bool, error) {
	if len(args) != 6 {
		return false, fmt.Errorf("JOINORDER takes (z, q, a, z2, q2, a2)")
	}
	z := args[0]
	if z.Kind != term.Fun || z.Functor != term.FList || len(z.Args) < 2 {
		return false, nil
	}
	rels := z.Args
	costs := make([]int, len(rels))
	for i, r := range rels {
		name, ok := lera.RelName(r)
		if !ok {
			return false, nil // only plain base relations are reordered
		}
		rel, ok := ctx.Cat.Relation(name)
		if !ok {
			return false, nil
		}
		costs[i] = rel.EstRows
	}
	perm := make([]int, len(rels)) // perm[newPos] = oldPos (0-based)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return costs[perm[a]] < costs[perm[b]] })
	identity := true
	oldToNew := make([]int, len(rels))
	for newPos, oldPos := range perm {
		oldToNew[oldPos] = newPos
		if newPos != oldPos {
			identity = false
		}
	}
	if identity {
		return false, nil
	}
	newRels := make([]*term.Term, len(rels))
	for newPos, oldPos := range perm {
		newRels[newPos] = rels[oldPos]
	}
	remap := func(e *term.Term) *term.Term {
		return lera.MapAttrs(e, func(i, j int, at *term.Term) *term.Term {
			if i >= 1 && i <= len(rels) {
				return lera.Attr(oldToNew[i-1]+1, j)
			}
			return at
		})
	}
	outs := []struct {
		v   *term.Term
		val *term.Term
	}{
		{args[3], term.List(newRels...)},
		{args[4], remap(args[1])},
		{args[5], remap(args[2])},
	}
	for _, o := range outs {
		if o.v.Kind != term.Var {
			return false, fmt.Errorf("JOINORDER outputs must be unbound variables")
		}
		ctx.Bind.BindVar(o.v.Name, o.val)
	}
	return true, nil
}
