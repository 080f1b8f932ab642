// Rule and site indexing for the engine hot path (docs/PERF.md).
//
// The paper's §4.2 control strategy restarts a block from its first rule
// after every application, so the naive loop re-walks the whole query term
// once per rule per iteration and attempts a full match at every node. But
// a match can only complete at a node whose head functor and arity are
// compatible with the rule's LHS head — a property computable once per
// rule and once per node. The engine therefore discriminates on the head,
// Starburst/Volcano style: each rule's LHS is classified into an lhsFilter
// when New compiles its block, and each pass walks the term once, bucketing
// Fun nodes by functor into a siteIndex. A rule then visits only its
// candidate sites, in the same preorder the naive walk would have used, so
// the sequence of complete matches — and with it every rewrite result and
// every §4.2 budget decrement — is bit-for-bit identical to the full scan.
package rewrite

import "lera/internal/term"

// headKind classifies how a rule's LHS constrains a match site's head.
type headKind int

const (
	// headExact: the LHS head is a concrete functor; only sites with that
	// functor are candidates.
	headExact headKind = iota
	// headCollection: the LHS head is the pattern-only COLLECTION functor,
	// matching any of SET, BAG, LIST, ARRAY (or a literal COLLECTION).
	headCollection
	// headAny: the head cannot be discriminated — a function-variable head
	// (Figure 6's F, G, ...) or a bare variable LHS matches every functor.
	headAny
	// headNone: the LHS is a constant or a bare collection variable, which
	// can never match a Fun site; the rule has no candidates at all.
	headNone
)

// lhsFilter is the per-rule discrimination key: a conservative, O(1)
// necessary condition for the rule's LHS to match at a site. It never
// rejects a site the matcher could accept; it only skips sites where the
// backtracking matcher would have failed on the head or the arity.
type lhsFilter struct {
	kind    headKind
	functor string // headExact only
	// minArity is the number of non-collection-variable LHS arguments; a
	// subject needs at least that many. When the LHS has no collection
	// variables (exact == true) the subject arity must match minArity
	// exactly — both the ordered and the SET/BAG multiset matcher consume
	// all subject arguments. Collection-variable arguments absorb any
	// surplus, which is also why AC heads can't be discriminated further
	// than functor/minimum-arity (see docs/PERF.md).
	minArity int
	exact    bool
	head     int32 // headExact only: the functor's number in Engine.heads
}

// filterFor classifies a rule's LHS.
func filterFor(lhs *term.Term) lhsFilter {
	switch lhs.Kind {
	case term.Var:
		// A bare variable binds any subterm: every Fun site is a candidate.
		return lhsFilter{kind: headAny}
	case term.Fun:
		min, exact := arityBounds(lhs.Args)
		switch {
		case lhs.VarHead:
			return lhsFilter{kind: headAny, minArity: min, exact: exact}
		case lhs.Functor == term.FCollection:
			return lhsFilter{kind: headCollection, minArity: min, exact: exact}
		default:
			return lhsFilter{kind: headExact, functor: lhs.Functor, minArity: min, exact: exact}
		}
	default: // Const, SeqVar: the engine only matches at Fun sites
		return lhsFilter{kind: headNone}
	}
}

// arityBounds derives the subject-arity constraint from LHS arguments.
func arityBounds(args []*term.Term) (min int, exact bool) {
	seqs := 0
	for _, a := range args {
		if a.Kind == term.SeqVar {
			seqs++
		}
	}
	return len(args) - seqs, seqs == 0
}

// admits reports whether a Fun site passes the arity constraint.
func (f lhsFilter) admits(site *term.Term) bool {
	if f.exact {
		return len(site.Args) == f.minArity
	}
	return len(site.Args) >= f.minArity
}

// siteEntry is one Fun node of the current query term, with enough parent
// linkage to materialize its Path on demand — the path is only built when a
// match actually completes, never for the nodes the walk merely passes.
type siteEntry struct {
	node   *term.Term
	parent int32 // index of the parent entry, -1 at the root
	arg    int32 // argument position within the parent
	depth  int32
}

// siteIndex is the per-pass discrimination structure: all Fun nodes of the
// query term in preorder, bucketed by head functor. It is rebuilt (in one
// walk, reusing its allocations) after every committed application, and
// stays valid across all rules of a pass because no term changes between
// applications.
type siteIndex struct {
	root  *term.Term // the term indexed, nil before the first rebuild
	sites []siteEntry
	// heads is the Engine's numbering of the rules' concrete head
	// functors, and byHead[h] the sites whose functor is numbered h: a
	// node costs one map read, and a functor no rule names no bucket.
	heads  map[string]int32
	byHead [][]int32
	coll   []int32 // sites matching the COLLECTION pattern head
}

// rebuild walks root once and refills the index in place. Terms are
// immutable, so the index of the very term it already holds is current:
// a block visit that follows one which changed nothing walks nothing.
func (ix *siteIndex) rebuild(root *term.Term) {
	if root == ix.root {
		return
	}
	ix.root = root
	ix.sites = ix.sites[:0]
	ix.coll = ix.coll[:0]
	if len(ix.byHead) != len(ix.heads) {
		ix.byHead = make([][]int32, len(ix.heads))
	}
	for h := range ix.byHead {
		ix.byHead[h] = ix.byHead[h][:0]
	}
	ix.add(root, -1, -1, 0)
}

// add indexes the Fun nodes of t in preorder.
func (ix *siteIndex) add(t *term.Term, parent, arg, depth int32) {
	if t.Kind != term.Fun {
		return
	}
	id := int32(len(ix.sites))
	ix.sites = append(ix.sites, siteEntry{node: t, parent: parent, arg: arg, depth: depth})
	if h, ok := ix.heads[t.Functor]; ok {
		ix.byHead[h] = append(ix.byHead[h], id)
	}
	switch t.Functor {
	case term.FSet, term.FBag, term.FList, term.FArray, term.FCollection:
		ix.coll = append(ix.coll, id)
	}
	for i, a := range t.Args {
		ix.add(a, id, int32(i), depth+1)
	}
}

// release forgets the indexed term and zeroes every site entry up to the
// capacity, keeping the storage for the next run.
func (ix *siteIndex) release() {
	clear(ix.sites[:cap(ix.sites)])
	ix.root, ix.sites = nil, ix.sites[:0]
}

// path materializes the root path of site id by chasing parent links,
// reusing p's storage.
func (ix *siteIndex) path(p term.Path, id int32) term.Path {
	e := ix.sites[id]
	if n := int(e.depth); cap(p) < n {
		p = make(term.Path, n)
	} else {
		p = p[:n]
	}
	for i := int(e.depth) - 1; i >= 0; i-- {
		p[i] = int(e.arg)
		e = ix.sites[e.parent]
	}
	return p
}

// applyOnce tries to apply rule at the topmost-leftmost applicable site:
// the candidate sites its filter admits, in preorder, each attempt counted
// against the block's budget.
func (r *runState) applyOnce(q *term.Term, rule *blockRule, blockName string, budget *int) (*term.Term, bool, error) {
	f := rule.filter
	var ids []int32
	switch f.kind {
	case headNone:
		return nil, false, nil
	case headExact:
		ids = r.ix.byHead[f.head]
	case headCollection:
		ids = r.ix.coll
	}
	// headAny: no discrimination possible, every site in preorder.
	n := len(ids)
	if f.kind == headAny {
		n = len(r.ix.sites)
	}
	for i := 0; i < n; i++ {
		if *budget <= 0 {
			return nil, false, nil
		}
		id := int32(i)
		if ids != nil {
			id = ids[i]
		}
		site := r.ix.sites[id].node
		if !f.admits(site) {
			continue
		}
		res, outcome, err := r.tryRuleAtSite(q, rule.Rule, blockName, site, id, budget)
		if err != nil {
			return nil, false, err
		}
		if outcome == siteApplied {
			return res, true, nil
		}
		if outcome == siteStop {
			return nil, false, nil
		}
	}
	return nil, false, nil
}
