package term

// Tree-walking utilities used by the rewrite engine: preorder traversal
// with paths, subterm access and path-based replacement with structural
// sharing. Replacement rebuilds only the spine from the root to the
// replaced node; SET/BAG nodes on the spine are re-canonicalised by F.

// Path addresses a subterm by argument indices from the root.
type Path []int

// Clone copies the path.
func (p Path) Clone() Path { return append(Path(nil), p...) }

// At returns the subterm addressed by path, or nil if the path is invalid.
func At(t *Term, path Path) *Term {
	for _, i := range path {
		if t == nil || t.Kind != Fun || i < 0 || i >= len(t.Args) {
			return nil
		}
		t = t.Args[i]
	}
	return t
}

// ReplaceAt returns a copy of t with the subterm at path replaced. The
// original term is unchanged; unaffected subtrees are shared. Only the
// spine from the root to the replaced node is rebuilt, and each rebuilt
// node's hash/size memo is recomputed from its (memoized) children.
func ReplaceAt(t *Term, path Path, repl *Term) *Term {
	if len(path) == 0 {
		return repl
	}
	i := path[0]
	if t.Kind != Fun || i < 0 || i >= len(t.Args) {
		return t
	}
	args := make([]*Term, len(t.Args))
	copy(args, t.Args)
	args[i] = ReplaceAt(t.Args[i], path[1:], repl)
	return rebuildFun(t, args)
}

// rebuildFun constructs a Fun node like t but with new arguments,
// preserving the VarHead flag and keeping the hash/size memo valid (F
// seals before VarHead is known, so a VarHead copy must be resealed).
func rebuildFun(t *Term, args []*Term) *Term {
	nt := F(t.Functor, args...)
	if t.VarHead {
		nt.VarHead = true
		nt.seal()
	}
	return nt
}

// Walk calls fn on every subterm of t in preorder with its path. If fn
// returns false the walk stops immediately and Walk returns false.
func Walk(t *Term, fn func(sub *Term, path Path) bool) bool {
	var rec func(sub *Term, path Path) bool
	rec = func(sub *Term, path Path) bool {
		if !fn(sub, path) {
			return false
		}
		if sub.Kind == Fun {
			for i, a := range sub.Args {
				if !rec(a, append(path, i)) {
					return false
				}
			}
		}
		return true
	}
	return rec(t, Path{})
}

// Visit calls fn on every subterm of t in Walk's preorder, without paths:
// the traversal for callers that only look at the subterms, since building
// a Path per node is Walk's whole cost. If fn returns false the visit stops
// immediately and Visit returns false.
func Visit(t *Term, fn func(sub *Term) bool) bool {
	if !fn(t) {
		return false
	}
	if t.Kind == Fun {
		for _, a := range t.Args {
			if !Visit(a, fn) {
				return false
			}
		}
	}
	return true
}

// Count returns the number of subterms satisfying pred.
func Count(t *Term, pred func(*Term) bool) int {
	n := 0
	Visit(t, func(sub *Term) bool {
		if pred(sub) {
			n++
		}
		return true
	})
	return n
}

// Contains reports whether any subterm satisfies pred.
func Contains(t *Term, pred func(*Term) bool) bool {
	return !Visit(t, func(sub *Term) bool { return !pred(sub) })
}

// Rewrite applies fn bottom-up to every subterm, replacing each subterm
// with fn's result. fn must return its argument unchanged when it does not
// rewrite. Structural sharing is preserved where nothing changes, and the
// argument slice is only copied once an argument actually changed: a
// rewrite that changes nothing allocates nothing.
func Rewrite(t *Term, fn func(*Term) *Term) *Term {
	if t.Kind == Fun {
		var args []*Term
		for i, a := range t.Args {
			na := Rewrite(a, fn)
			if na != a && args == nil {
				args = make([]*Term, len(t.Args))
				copy(args, t.Args[:i])
			}
			if args != nil {
				args[i] = na
			}
		}
		if args != nil {
			t = rebuildFun(t, args)
		}
	}
	return fn(t)
}
