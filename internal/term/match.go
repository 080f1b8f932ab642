package term

// This file implements one-way matching of rule patterns against query
// terms: the operation the paper's PROLOG implementation inherited from
// unification and that the Go reproduction builds explicitly.
//
// Matching is backtracking: collection variables in ordered contexts
// (LIST, ARRAY, TUPLE and ordinary function arguments) enumerate splits of
// the argument sequence; in commutative contexts (SET, BAG) fixed patterns
// enumerate choices of subject elements and collection variables partition
// the remainder. Every complete match is offered to a continuation k, which
// lets rule constraints veto a binding and resume the search — exactly the
// paper's "a rule is only applied ... if all the constraints are true"
// (Section 4.1).
//
// The continuation of a partial match is data, not a Go closure: a stack of
// pending goals (an argument list still to match, or the next fixed
// pattern of a SET/BAG being matched) that solve pops from. Matching an
// argument pushes what remains of its list, matches the argument, and the
// argument's last step calls solve; every function returns with the stack
// as it found it, so backtracking needs no copies. The multiset split, the
// used-element bitmap and partition labels live in arenas beside the goal
// stack. All of it is scratch carried by the Bindings, reused across
// matches, so a match that fails allocates nothing. The enumeration order
// is the closure matcher's, step for step (oracle_test.go keeps that
// matcher as the differential oracle).

// Match attempts to match pattern against subject, extending b. For every
// complete match it calls k; if k returns true the match is kept (b holds
// the accepted bindings) and Match returns true. If k rejects every
// solution, b is restored and Match returns false. k may itself call Match
// on b.
func Match(pattern, subject *Term, b *Bindings, k func() bool) bool {
	mark := b.Mark()
	s := &b.ms
	outer := *s
	s.k, s.base, s.mark = k, len(s.goals), mark
	ok := b.match(pattern, subject)
	s.goals = s.goals[:s.base]
	s.frames = s.frames[:len(outer.frames)]
	s.terms = s.terms[:len(outer.terms)]
	s.used = s.used[:len(outer.used)]
	s.labels = s.labels[:len(outer.labels)]
	s.k, s.base, s.mark = outer.k, outer.base, outer.mark
	if !ok {
		b.Restore(mark)
	}
	return ok
}

// MatchFirst returns the first complete match, if any.
func MatchFirst(pattern, subject *Term) (*Bindings, bool) {
	b := NewBindings()
	ok := Match(pattern, subject, b, acceptAny)
	return b, ok
}

func acceptAny() bool { return true }

// matchStack is the matcher's scratch. goals[base:] is the continuation of
// the current partial match, whose bindings start at trail[mark:]; the
// arenas hold each open multiset frame's fixed/collection-variable split
// and remainders (terms), used bitmap (used) and, while collection
// variables share a remainder, partition labels (labels). All of it grows
// and shrinks in stack order; frames refer into the arenas by offset, since
// an append may move them.
type matchStack struct {
	k      func() bool
	base   int
	mark   int
	goals  []goal
	frames []setFrame
	terms  []*Term
	used   []bool
	labels []int32
}

// goal is one pending piece of a partial match.
type goal struct {
	// pats/subjs: an argument list still to match in order. With frame >= 0
	// the goal is instead "match the multiset frame's fixed pattern next".
	pats, subjs []*Term
	frame, next int32
}

// setFrame is a SET/BAG argument list being matched: the subject
// arguments, the pattern's fixed patterns at terms[fixed:fixed+nFixed]
// followed by its collection variables (nSeqs of them), and which subject
// elements the fixed patterns picked, at used[used:used+len(subjs)].
type setFrame struct {
	subjs                []*Term
	fixed, nFixed, nSeqs int
	used                 int
}

// solve continues the current partial match: it matches the next pending
// goal, or, with none left, offers the complete match to k. On failure the
// goal is back on the stack for the caller's next alternative.
func (b *Bindings) solve() bool {
	s := &b.ms
	n := len(s.goals)
	if n == s.base {
		// A complete match: remainders bound to arena scratch get copies
		// of their own before k (or whoever holds the accepted bindings)
		// can see them.
		for i := s.mark; i < len(b.trail); i++ {
			if e := &b.trail[i]; e.scratch {
				e.seq, e.scratch = append([]*Term(nil), e.seq...), false
			}
		}
		return s.k()
	}
	g := s.goals[n-1]
	s.goals = s.goals[:n-1]
	var ok bool
	if g.frame >= 0 {
		ok = b.matchFixed(int(g.frame), int(g.next))
	} else {
		ok = b.matchSeq(g.pats, g.subjs)
	}
	if !ok {
		s.goals = append(s.goals[:n-1], g)
	}
	return ok
}

func (b *Bindings) match(pattern, subject *Term) bool {
	switch pattern.Kind {
	case Const:
		return subject.Kind == Const && Equal(pattern, subject) && b.solve()
	case Var:
		if bound, ok := b.Var(pattern.Name); ok {
			return Equal(bound, subject) && b.solve()
		}
		mark := b.Mark()
		b.BindVar(pattern.Name, subject)
		if b.solve() {
			return true
		}
		b.Restore(mark)
		return false
	case SeqVar:
		// A collection variable is only meaningful inside an argument
		// list; a top-level occurrence never matches.
		return false
	case Fun:
		return subject.Kind == Fun && b.matchFun(pattern, subject)
	}
	return false
}

func (b *Bindings) matchFun(pattern, subject *Term) bool {
	// Resolve the head.
	if pattern.VarHead {
		if bound, ok := b.Fun(pattern.Functor); ok {
			return bound == subject.Functor && b.matchArgs(pattern, subject)
		}
		mark := b.Mark()
		b.BindFun(pattern.Functor, subject.Functor)
		if b.matchArgs(pattern, subject) {
			return true
		}
		b.Restore(mark)
		return false
	}
	if pattern.Functor == FCollection {
		// COLLECTION matches any collection constructor (Figure 6).
		switch subject.Functor {
		case FSet, FBag, FList, FArray, FCollection:
			return b.matchArgs(pattern, subject)
		}
		return false
	}
	return pattern.Functor == subject.Functor && b.matchArgs(pattern, subject)
}

func (b *Bindings) matchArgs(pattern, subject *Term) bool {
	if IsComm(subject.Functor) {
		return b.matchMultiset(pattern.Args, subject.Args)
	}
	return b.matchSeq(pattern.Args, subject.Args)
}

// matchSeq matches an ordered pattern argument list against an ordered
// subject argument list, enumerating splits for collection variables.
func (b *Bindings) matchSeq(pats, subjs []*Term) bool {
	if len(pats) == 0 {
		return len(subjs) == 0 && b.solve()
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
			return b.matchSeq(pats[1:], subjs[len(bound):])
		}
		// Try every prefix length, shortest first.
		for n := 0; n <= len(subjs); n++ {
			mark := b.Mark()
			b.BindSeq(p.Name, subjs[:n:n])
			if b.matchSeq(pats[1:], subjs[n:]) {
				return true
			}
			b.Restore(mark)
		}
		return false
	}
	if len(subjs) == 0 {
		return false
	}
	if len(pats) == 1 {
		// Nothing left of this list: the argument's continuation is the
		// list's own.
		return len(subjs) == 1 && b.match(p, subjs[0])
	}
	h := len(b.ms.goals)
	b.ms.goals = append(b.ms.goals, goal{pats: pats[1:], subjs: subjs[1:], frame: -1})
	ok := b.match(p, subjs[0])
	b.ms.goals = b.ms.goals[:h]
	return ok
}

// matchMultiset matches pattern arguments against subject arguments of a
// SET or BAG constructor: fixed patterns pick distinct subject elements in
// any order; collection variables partition the remaining elements.
func (b *Bindings) matchMultiset(pats, subjs []*Term) bool {
	s := &b.ms
	fr := setFrame{subjs: subjs, fixed: len(s.terms), used: len(s.used)}
	for _, p := range pats {
		if p.Kind != SeqVar {
			s.terms = append(s.terms, p)
		}
	}
	fr.nFixed = len(s.terms) - fr.fixed
	fr.nSeqs = len(pats) - fr.nFixed
	if fr.nFixed > len(subjs) {
		s.terms = s.terms[:fr.fixed]
		return false
	}
	for _, p := range pats {
		if p.Kind == SeqVar {
			s.terms = append(s.terms, p)
		}
	}
	for range subjs {
		s.used = append(s.used, false)
	}
	f := len(s.frames)
	s.frames = append(s.frames, fr)
	ok := b.matchFixed(f, 0)
	s.frames = s.frames[:f]
	s.terms = s.terms[:fr.fixed]
	s.used = s.used[:fr.used]
	return ok
}

// matchFixed matches frame f's i'th fixed pattern against each subject
// element no earlier fixed pattern picked; its continuation is the next
// fixed pattern, and after the last the distribution of the remainder.
func (b *Bindings) matchFixed(f, i int) bool {
	s := &b.ms
	fr := s.frames[f]
	if i == fr.nFixed {
		return b.distribute(fr)
	}
	p := s.terms[fr.fixed+i]
	h := len(s.goals)
	for j, sub := range fr.subjs {
		if s.used[fr.used+j] {
			continue
		}
		s.used[fr.used+j] = true
		s.goals = append(s.goals, goal{frame: int32(f), next: int32(i + 1)})
		ok := b.match(p, sub)
		s.goals = s.goals[:h]
		s.used[fr.used+j] = false
		if ok {
			return true
		}
	}
	return false
}

// distribute assigns the elements no fixed pattern picked to the frame's
// collection variables. With no collection variables the remainder must be
// empty; with one, it takes everything; with several, all partitions are
// enumerated.
func (b *Bindings) distribute(fr setFrame) bool {
	s := &b.ms
	seqs := fr.fixed + fr.nFixed
	switch fr.nSeqs {
	case 0:
		for j := range fr.subjs {
			if !s.used[fr.used+j] {
				return false
			}
		}
		return b.solve()
	case 1:
		// A remainder that is one contiguous, canonically ordered run of
		// the subject's own (immutable) arguments is bound as it is.
		lo, hi, gaps := -1, 0, false
		for j := range fr.subjs {
			if !s.used[fr.used+j] {
				if lo < 0 {
					lo = j
				} else if hi < j {
					gaps = true
				}
				hi = j + 1
			}
		}
		sv := s.terms[seqs]
		switch {
		case lo < 0:
			return b.bindRest(sv, nil, false, partition{})
		case !gaps && isSorted(fr.subjs[lo:hi]):
			return b.bindRest(sv, fr.subjs[lo:hi:hi], false, partition{})
		}
		r0 := len(s.terms)
		for j, t := range fr.subjs {
			if !s.used[fr.used+j] {
				s.terms = append(s.terms, t)
			}
		}
		ok := b.bindRest(sv, s.terms[r0:], true, partition{})
		s.terms = s.terms[:r0]
		return ok
	}
	// General partition enumeration: label each remaining element with the
	// collection variable it goes to.
	pt := partition{seqs: seqs, nSeqs: fr.nSeqs, rest: len(s.terms), labels: len(s.labels)}
	for j, t := range fr.subjs {
		if !s.used[fr.used+j] {
			s.terms = append(s.terms, t)
			s.labels = append(s.labels, 0)
		}
	}
	ok := b.assign(pt, 0)
	s.terms = s.terms[:pt.rest]
	s.labels = s.labels[:pt.labels]
	return ok
}

// partition is a multiset remainder being split over several collection
// variables: the variables at terms[seqs:seqs+nSeqs], the remainder at
// terms[rest:] with one label each at labels[labels:], and next, the
// variable to bind after the current one (0: none, solve instead).
type partition struct {
	seqs, nSeqs, rest, labels, next int
}

// assign enumerates the partitions of the remainder, element i onward, in
// the closure matcher's order: element i tries each variable in turn,
// first to last.
func (b *Bindings) assign(pt partition, i int) bool {
	s := &b.ms
	if pt.labels+i == len(s.labels) {
		return b.bindGroup(pt, 0)
	}
	for g := 0; g < pt.nSeqs; g++ {
		s.labels[pt.labels+i] = int32(g)
		if b.assign(pt, i+1) {
			return true
		}
	}
	return false
}

// bindGroup binds (or checks) collection variable j to the remainder
// elements labelled j, then variable j+1, ..., then solves.
func (b *Bindings) bindGroup(pt partition, j int) bool {
	s := &b.ms
	if j == pt.nSeqs {
		return b.solve()
	}
	g0 := len(s.terms)
	for e, l := range s.labels[pt.labels:] {
		if int(l) == j {
			s.terms = append(s.terms, s.terms[pt.rest+e])
		}
	}
	pt.next = j + 1
	ok := b.bindRest(s.terms[pt.seqs+j], s.terms[g0:], true, pt)
	s.terms = s.terms[:g0]
	return ok
}

// bindRest binds collection variable sv to the multiset elems — or, if sv
// is bound, requires the binding to equal elems as a multiset — and
// continues with the partition's next variable, or solves. elems is either
// canonically ordered subject storage, bound as it is, or (scratch) a
// region of the terms arena, which is sorted in place and bound as scratch:
// solve copies it out only if the match completes, so a match that fails
// after binding a remainder allocates nothing for it.
func (b *Bindings) bindRest(sv *Term, elems []*Term, scratch bool, pt partition) bool {
	mark := b.Mark()
	if bound, ok := b.Seq(sv.Name); ok {
		if !b.multisetEqual(bound, elems) {
			return false
		}
	} else {
		if scratch {
			// Canonical order keeps SET reconstruction and traces
			// deterministic.
			sortTerms(elems)
		}
		b.trail = append(b.trail, entry{kind: SeqVar, name: sv.Name, seq: elems[:len(elems):len(elems)], scratch: scratch})
	}
	var ok bool
	if pt.next > 0 {
		ok = b.bindGroup(pt, pt.next)
	} else {
		ok = b.solve()
	}
	if !ok {
		b.Restore(mark)
	}
	return ok
}

func isSorted(ts []*Term) bool {
	for i := 1; i < len(ts); i++ {
		if Compare(ts[i-1], ts[i]) > 0 {
			return false
		}
	}
	return true
}

func sortTerms(ts []*Term) {
	for i := 1; i < len(ts); i++ {
		for j := i; j > 0 && Compare(ts[j-1], ts[j]) > 0; j-- {
			ts[j-1], ts[j] = ts[j], ts[j-1]
		}
	}
}

// multisetEqual compares two term sequences as multisets, sorting copies
// in the terms arena.
func (b *Bindings) multisetEqual(x, y []*Term) bool {
	if len(x) != len(y) {
		return false
	}
	// Order-independent hash sums disprove most mismatches without the
	// sort + pairwise compare below.
	var hx, hy uint64
	for i := range x {
		hx += x[i].Hash()
		hy += y[i].Hash()
	}
	if hx != hy {
		return false
	}
	s := &b.ms
	t0 := len(s.terms)
	s.terms = append(append(s.terms, x...), y...)
	xs, ys := s.terms[t0:t0+len(x)], s.terms[t0+len(x):]
	sortTerms(xs)
	sortTerms(ys)
	eq := true
	for i := range xs {
		if !Equal(xs[i], ys[i]) {
			eq = false
			break
		}
	}
	s.terms = s.terms[:t0]
	return eq
}
