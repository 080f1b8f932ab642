package term

// The closure-continuation matcher the stack matcher in match.go replaced,
// kept verbatim (renamed) as the differential oracle: TestMatchSolutions*
// and FuzzMatch require both to enumerate the same solutions in the same
// order. It runs on the public Bindings API only.

// OracleMatch is Match as the closure matcher computes it.
func OracleMatch(pattern, subject *Term, b *Bindings, k func() bool) bool {
	mark := b.Mark()
	if oracleMatch(pattern, subject, b, k) {
		return true
	}
	b.Restore(mark)
	return false
}

func oracleMatch(pattern, subject *Term, b *Bindings, k func() bool) bool {
	switch pattern.Kind {
	case Const:
		if subject.Kind == Const && Equal(pattern, subject) {
			return k()
		}
		return false
	case Var:
		if bound, ok := b.Var(pattern.Name); ok {
			if Equal(bound, subject) {
				return k()
			}
			return false
		}
		mark := b.Mark()
		b.BindVar(pattern.Name, subject)
		if k() {
			return true
		}
		b.Restore(mark)
		return false
	case SeqVar:
		// A collection variable is only meaningful inside an argument
		// list; a top-level occurrence never matches.
		return false
	case Fun:
		if subject.Kind != Fun {
			return false
		}
		return oracleMatchFun(pattern, subject, b, k)
	}
	return false
}

func oracleMatchFun(pattern, subject *Term, b *Bindings, k func() bool) bool {
	// Resolve the head.
	if pattern.VarHead {
		if bound, ok := b.Fun(pattern.Functor); ok {
			if bound != subject.Functor {
				return false
			}
			return oracleMatchArgs(pattern, subject, b, k)
		}
		mark := b.Mark()
		b.BindFun(pattern.Functor, subject.Functor)
		if oracleMatchArgs(pattern, subject, b, k) {
			return true
		}
		b.Restore(mark)
		return false
	}
	if pattern.Functor == FCollection {
		// COLLECTION matches any collection constructor (Figure 6).
		switch subject.Functor {
		case FSet, FBag, FList, FArray, FCollection:
			return oracleMatchArgs(pattern, subject, b, k)
		}
		return false
	}
	if pattern.Functor != subject.Functor {
		return false
	}
	return oracleMatchArgs(pattern, subject, b, k)
}

func oracleMatchArgs(pattern, subject *Term, b *Bindings, k func() bool) bool {
	if IsComm(subject.Functor) {
		return oracleMatchMultiset(pattern.Args, subject.Args, subject.Functor, b, k)
	}
	return oracleMatchSeq(pattern.Args, subject.Args, b, k)
}

// oracleMatchSeq matches an ordered pattern argument list against an ordered
// subject argument list, enumerating splits for collection variables.
func oracleMatchSeq(pats, subjs []*Term, b *Bindings, k func() bool) bool {
	if len(pats) == 0 {
		if len(subjs) == 0 {
			return k()
		}
		return false
	}
	p := pats[0]
	if p.Kind == SeqVar {
		if bound, ok := b.Seq(p.Name); ok {
			if len(bound) > len(subjs) {
				return false
			}
			for i, t := range bound {
				if !Equal(t, subjs[i]) {
					return false
				}
			}
			return oracleMatchSeq(pats[1:], subjs[len(bound):], b, k)
		}
		// Try every prefix length, shortest first.
		for n := 0; n <= len(subjs); n++ {
			mark := b.Mark()
			b.BindSeq(p.Name, subjs[:n:n])
			if oracleMatchSeq(pats[1:], subjs[n:], b, k) {
				return true
			}
			b.Restore(mark)
		}
		return false
	}
	if len(subjs) == 0 {
		return false
	}
	return oracleMatch(p, subjs[0], b, func() bool {
		return oracleMatchSeq(pats[1:], subjs[1:], b, k)
	})
}

// oracleMatchMultiset matches pattern arguments against subject arguments of a
// SET or BAG constructor: fixed patterns pick distinct subject elements in
// any order; collection variables partition the remaining elements.
func oracleMatchMultiset(pats, subjs []*Term, functor string, b *Bindings, k func() bool) bool {
	var fixed, seqs []*Term
	for _, p := range pats {
		if p.Kind == SeqVar {
			seqs = append(seqs, p)
		} else {
			fixed = append(fixed, p)
		}
	}
	if len(fixed) > len(subjs) {
		return false
	}
	used := make([]bool, len(subjs))
	var matchFixed func(i int) bool
	matchFixed = func(i int) bool {
		if i == len(fixed) {
			var rest []*Term
			for j, u := range used {
				if !u {
					rest = append(rest, subjs[j])
				}
			}
			return oracleDistribute(seqs, rest, functor, b, k)
		}
		for j := range subjs {
			if used[j] {
				continue
			}
			used[j] = true
			ok := oracleMatch(fixed[i], subjs[j], b, func() bool { return matchFixed(i + 1) })
			used[j] = false
			if ok {
				return true
			}
		}
		return false
	}
	return matchFixed(0)
}

// oracleDistribute assigns the remaining multiset elements to the collection
// variables. With no collection variables the remainder must be empty;
// with one, it takes everything; with several, all partitions are
// enumerated.
func oracleDistribute(seqs []*Term, rest []*Term, functor string, b *Bindings, k func() bool) bool {
	switch len(seqs) {
	case 0:
		if len(rest) == 0 {
			return k()
		}
		return false
	case 1:
		return oracleBindOrCheckSeq(seqs[0], rest, b, k)
	}
	// General partition enumeration: assign each element to one of the
	// collection variables.
	groups := make([][]*Term, len(seqs))
	var assign func(i int) bool
	assign = func(i int) bool {
		if i == len(rest) {
			var rec func(j int) bool
			rec = func(j int) bool {
				if j == len(seqs) {
					return k()
				}
				return oracleBindOrCheckSeq(seqs[j], groups[j], b, func() bool { return rec(j + 1) })
			}
			return rec(0)
		}
		for g := range groups {
			groups[g] = append(groups[g], rest[i])
			if assign(i + 1) {
				return true
			}
			groups[g] = groups[g][:len(groups[g])-1]
		}
		return false
	}
	return assign(0)
}

func oracleBindOrCheckSeq(sv *Term, elems []*Term, b *Bindings, k func() bool) bool {
	if bound, ok := b.Seq(sv.Name); ok {
		if !oracleMultisetEqual(bound, elems) {
			return false
		}
		return k()
	}
	mark := b.Mark()
	b.BindSeq(sv.Name, oracleSortedCopy(elems))
	if k() {
		return true
	}
	b.Restore(mark)
	return false
}

func oracleSortedCopy(ts []*Term) []*Term {
	out := append([]*Term(nil), ts...)
	// Canonical order keeps SET reconstruction and traces deterministic.
	oracleSortTerms(out)
	return out
}

func oracleSortTerms(ts []*Term) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && Compare(ts[j-1], ts[j]) > 0; j-- {
			ts[j-1], ts[j] = ts[j], ts[j-1]
		}
	}
}

func oracleMultisetEqual(a, b []*Term) bool {
	if len(a) != len(b) {
		return false
	}
	// Order-independent hash sums disprove most mismatches without the
	// sort + pairwise compare below.
	var ha, hb uint64
	for i := range a {
		ha += a[i].Hash()
		hb += b[i].Hash()
	}
	if ha != hb {
		return false
	}
	as, bs := oracleSortedCopy(a), oracleSortedCopy(b)
	for i := range as {
		if !Equal(as[i], bs[i]) {
			return false
		}
	}
	return true
}
