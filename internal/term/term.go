// Package term implements the term language underlying the paper's rule
// formalism (Section 4.1): functional expressions over constants,
// variables, collection variables (written x* in the paper) and function
// variables (F, G, ... in Figure 6), together with substitution and a
// backtracking matcher.
//
// LERA expressions, qualifications and projections are all terms — the
// uniform representation that lets a single rule language drive every kind
// of query rewriting. SET and BAG constructor arguments are kept in
// canonical sorted order (sets deduplicated), which gives commutative
// matching a normal form and makes AND-over-a-set qualifications
// automatically idempotent.
package term

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"lera/internal/value"
)

// Kind discriminates term structure.
type Kind int

// Term kinds.
const (
	// Const is a constant embedding a runtime value.
	Const Kind = iota
	// Var is an ordinary variable, matching exactly one term.
	Var
	// SeqVar is a collection variable (x* in the paper), matching a
	// sequence of zero or more argument terms.
	SeqVar
	// Fun is a function application, including the collection
	// constructors SET, BAG, LIST, ARRAY, TUPLE.
	Fun
)

// Reserved constructor functors. COLLECTION is pattern-only: it matches
// any of the four concrete constructors (Figure 6's <collection>).
const (
	FSet        = "SET"
	FBag        = "BAG"
	FList       = "LIST"
	FArray      = "ARRAY"
	FTuple      = "TUPLE"
	FCollection = "COLLECTION"
)

// Term is an immutable term. Do not mutate a Term after construction;
// sharing subterms is encouraged and relied upon.
type Term struct {
	Kind    Kind
	Functor string  // Fun: function symbol, upper-cased
	Args    []*Term // Fun: arguments
	// VarHead marks a Fun whose head is a function variable (Figure 6's
	// F, G, H...): Functor is then the variable's name and matches any
	// function symbol.
	VarHead bool
	Val     value.Value // Const
	Name    string      // Var, SeqVar

	// hash and size memoize the structural fingerprint and node count,
	// computed bottom-up by the constructors (terms are immutable, so the
	// memo never goes stale). Zero means "not memoized": terms built by
	// hand through a struct literal recompute on demand without caching,
	// keeping them safe to share across goroutines.
	hash uint64
	size int32
}

// seal memoizes the structural hash and node count of a freshly
// constructed term. Every constructor ends with seal; hand-built struct
// literals skip it and fall back to on-the-fly computation in Hash/Size.
func (t *Term) seal() *Term {
	n := 1
	for _, a := range t.Args {
		n += a.Size()
	}
	t.size = int32(n)
	t.hash = t.computeHash()
	return t
}

func (t *Term) computeHash() uint64 {
	h := value.HashUint(value.HashOffset, uint64(t.Kind))
	switch t.Kind {
	case Const:
		h = value.HashUint(h, t.Val.Hash())
	case Var, SeqVar:
		h = value.HashString(h, t.Name)
	case Fun:
		if t.VarHead {
			h = value.HashUint(h, 1)
		}
		h = value.HashString(h, t.Functor)
		h = value.HashUint(h, uint64(len(t.Args)))
		for _, a := range t.Args {
			h = value.HashUint(h, a.Hash())
		}
	}
	if h == 0 {
		h = 1 // reserve 0 for "not memoized"
	}
	return h
}

// Hash returns the structural hash of t: Equal terms hash identically, so
// unequal hashes are an O(1) disproof of equality. Constructor-built terms
// answer from the memo; hand-built literals recompute without caching.
func (t *Term) Hash() uint64 {
	if t == nil {
		return 0
	}
	if t.hash != 0 {
		return t.hash
	}
	return t.computeHash()
}

// C constructs a constant term.
func C(v value.Value) *Term { return (&Term{Kind: Const, Val: v}).seal() }

// Str, Num, Flt, and TrueT/FalseT are constant shorthands.
func Str(s string) *Term  { return C(value.String(s)) }
func Num(i int64) *Term   { return C(value.Int(i)) }
func Flt(f float64) *Term { return C(value.Real(f)) }
func BoolT(b bool) *Term  { return C(value.Bool(b)) }
func TrueT() *Term        { return BoolT(true) }
func FalseT() *Term       { return BoolT(false) }

// V constructs a variable.
func V(name string) *Term { return (&Term{Kind: Var, Name: name}).seal() }

// SV constructs a collection (sequence) variable; the name excludes the
// trailing '*'.
func SV(name string) *Term { return (&Term{Kind: SeqVar, Name: name}).seal() }

// F constructs a function application. SET and BAG arguments are put in
// canonical order (SET deduplicated). The term keeps args when it can: do
// not change the slice after passing it.
func F(functor string, args ...*Term) *Term {
	f := strings.ToUpper(functor)
	t := &Term{Kind: Fun, Functor: f, Args: args}
	if f == FSet || f == FBag {
		t.Args = canonicalize(args, f == FSet)
	}
	return t.seal()
}

// FV constructs an application whose head is a function variable.
func FV(name string, args ...*Term) *Term {
	return (&Term{Kind: Fun, Functor: name, Args: args, VarHead: true}).seal()
}

// Set, Bag, List, Array, TupleT are constructor shorthands.
func Set(args ...*Term) *Term    { return F(FSet, args...) }
func Bag(args ...*Term) *Term    { return F(FBag, args...) }
func List(args ...*Term) *Term   { return F(FList, args...) }
func Array(args ...*Term) *Term  { return F(FArray, args...) }
func TupleT(args ...*Term) *Term { return F(FTuple, args...) }

func canonicalize(args []*Term, dedupe bool) []*Term {
	// Arguments already in canonical order — no sequence variable, each
	// before the next (or equal to it, in a BAG) — are kept as given: the
	// order F builds most sets in, and the one a substitution into a
	// canonical term keeps unless a value moved.
	canonical := true
	for i, a := range args {
		if a.Kind == SeqVar {
			canonical = false
			break
		}
		if i > 0 {
			if c := Compare(args[i-1], a); c > 0 || c == 0 && dedupe {
				canonical = false
				break
			}
		}
	}
	if canonical {
		return args
	}
	// Sequence variables float to the end, preserving their relative
	// order, so that patterns like SET(x*, G(y)) keep the fixed element
	// visible; concrete elements sort canonically.
	var fixed, seqs []*Term
	for _, a := range args {
		if a.Kind == SeqVar {
			seqs = append(seqs, a)
		} else {
			fixed = append(fixed, a)
		}
	}
	slices.SortStableFunc(fixed, Compare)
	if dedupe {
		out := fixed[:0]
		for i, a := range fixed {
			if i == 0 || Compare(fixed[i-1], a) != 0 {
				out = append(out, a)
			}
		}
		fixed = out
	}
	return append(fixed, seqs...)
}

// IsConstructor reports whether the functor is one of the collection or
// tuple constructors.
func IsConstructor(functor string) bool {
	switch functor {
	case FSet, FBag, FList, FArray, FTuple, FCollection:
		return true
	}
	return false
}

// IsComm reports whether a constructor's arguments match commutatively.
func IsComm(functor string) bool { return functor == FSet || functor == FBag }

// Compare imposes a deterministic total order on terms: by kind, then by
// name/functor, arity, arguments and constant value.
func Compare(a, b *Term) int {
	if a == b {
		return 0
	}
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case Const:
		return value.Compare(a.Val, b.Val)
	case Var, SeqVar:
		return strings.Compare(a.Name, b.Name)
	case Fun:
		if a.VarHead != b.VarHead {
			if !a.VarHead {
				return -1
			}
			return 1
		}
		if c := strings.Compare(a.Functor, b.Functor); c != 0 {
			return c
		}
		if len(a.Args) != len(b.Args) {
			if len(a.Args) < len(b.Args) {
				return -1
			}
			return 1
		}
		for i := range a.Args {
			if c := Compare(a.Args[i], b.Args[i]); c != 0 {
				return c
			}
		}
		return 0
	}
	return 0
}

// Equal reports structural equality. Identical pointers and memoized
// hash/size mismatches resolve in O(1); only hash-equal distinct terms pay
// for the full structural comparison.
func Equal(a, b *Term) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.hash != 0 && b.hash != 0 {
		if a.hash != b.hash {
			return false
		}
		if a.size != b.size {
			return false
		}
	}
	return Compare(a, b) == 0
}

// IsGround reports whether t contains no variables of any kind.
func (t *Term) IsGround() bool {
	switch t.Kind {
	case Var, SeqVar:
		return false
	case Fun:
		if t.VarHead {
			return false
		}
		for _, a := range t.Args {
			if !a.IsGround() {
				return false
			}
		}
	}
	return true
}

// Vars appends the names of all ordinary, sequence and function variables
// in t to the three sets.
func (t *Term) Vars(vars, seqs, funs map[string]bool) {
	switch t.Kind {
	case Var:
		vars[t.Name] = true
	case SeqVar:
		seqs[t.Name] = true
	case Fun:
		if t.VarHead {
			funs[t.Functor] = true
		}
		for _, a := range t.Args {
			a.Vars(vars, seqs, funs)
		}
	}
}

// Size returns the number of nodes in t — the paper's "number of terms in
// a query", used to classify rules as increasing or decreasing (§4.2) and
// as the MaxTermSize guard currency. Constructor-built terms answer from
// the memo in O(1).
func (t *Term) Size() int {
	if t.size > 0 {
		return int(t.size)
	}
	n := 1
	if t.Kind == Fun {
		for _, a := range t.Args {
			n += a.Size()
		}
	}
	return n
}

// String renders the term: constants in ESQL literal syntax, variables as
// their name, collection variables with a trailing '*', applications as
// FUNCTOR(arg, ...).
func (t *Term) String() string {
	if t == nil {
		return "<nil>"
	}
	switch t.Kind {
	case Const:
		return t.Val.String()
	case Var:
		return t.Name
	case SeqVar:
		return t.Name + "*"
	case Fun:
		if len(t.Args) == 0 && IsConstructor(t.Functor) {
			return t.Functor + "()"
		}
		parts := make([]string, len(t.Args))
		for i, a := range t.Args {
			parts[i] = a.String()
		}
		return t.Functor + "(" + strings.Join(parts, ", ") + ")"
	}
	return "?"
}

// --- substitution & bindings ---

// Bindings maps variables to terms, collection variables to term
// sequences, and function variables to function symbols. A single Bindings
// is threaded through a backtracking match, and its store is its trail:
// a bind appends an entry, a lookup scans newest-first (so a rebinding
// shadows the binding before it), and Restore truncates — uncovering
// whatever an undone rebinding shadowed. Binding sets stay a handful of
// entries long, where the scan beats hashing. The matcher's scratch rides
// along (match.go), so one Bindings reused across attempts lets a failed
// match allocate nothing.
type Bindings struct {
	trail []entry
	ms    matchStack
}

// entry is one binding on the trail; kind selects which value is set.
type entry struct {
	kind Kind // Var, SeqVar or Fun (function variable)
	name string
	term *Term   // Var
	seq  []*Term // SeqVar
	fun  string  // Fun
	// scratch: seq is matcher arena storage, valid only while the match
	// that bound it is still open (match.go copies it out on completion).
	scratch bool
}

// NewBindings returns an empty binding set.
func NewBindings() *Bindings { return &Bindings{} }

// lookup returns the newest binding of name in kind's namespace.
func (b *Bindings) lookup(kind Kind, name string) *entry {
	for i := len(b.trail) - 1; i >= 0; i-- {
		if e := &b.trail[i]; e.kind == kind && e.name == name {
			return e
		}
	}
	return nil
}

// Var returns the binding of an ordinary variable.
func (b *Bindings) Var(name string) (*Term, bool) {
	if e := b.lookup(Var, name); e != nil {
		return e.term, true
	}
	return nil, false
}

// Seq returns the binding of a collection variable.
func (b *Bindings) Seq(name string) ([]*Term, bool) {
	if e := b.lookup(SeqVar, name); e != nil {
		return e.seq, true
	}
	return nil, false
}

// Fun returns the binding of a function variable.
func (b *Bindings) Fun(name string) (string, bool) {
	if e := b.lookup(Fun, name); e != nil {
		return e.fun, true
	}
	return "", false
}

// BindVar binds an ordinary variable (recording it on the trail).
func (b *Bindings) BindVar(name string, t *Term) {
	b.trail = append(b.trail, entry{kind: Var, name: name, term: t})
}

// BindSeq binds a collection variable.
func (b *Bindings) BindSeq(name string, ts []*Term) {
	b.trail = append(b.trail, entry{kind: SeqVar, name: name, seq: ts})
}

// BindFun binds a function variable to a symbol.
func (b *Bindings) BindFun(name, functor string) {
	b.trail = append(b.trail, entry{kind: Fun, name: name, fun: functor})
}

// Mark returns the current trail position for later Restore.
func (b *Bindings) Mark() int { return len(b.trail) }

// Reset empties the binding set in place, retaining the allocated trail
// and matcher scratch so one Bindings can be reused across many match
// attempts (the rewrite engine's per-run bindings). Equivalent to
// Restore(0).
func (b *Bindings) Reset() { b.Restore(0) }

// Restore undoes all bindings made after the given mark.
func (b *Bindings) Restore(mark int) { b.trail = b.trail[:mark] }

// Release empties the binding set like Reset and also zeroes every term
// reference the trail and the matcher's scratch keep beyond their length,
// so a Bindings parked for reuse keeps its capacity but pins no term.
// Call it only between matches.
func (b *Bindings) Release() {
	s := &b.ms
	clear(b.trail[:cap(b.trail)])
	clear(s.goals[:cap(s.goals)])
	clear(s.frames[:cap(s.frames)])
	clear(s.terms[:cap(s.terms)])
	b.trail, s.goals, s.frames, s.terms = b.trail[:0], s.goals[:0], s.frames[:0], s.terms[:0]
	s.used, s.labels = s.used[:0], s.labels[:0]
}

// String renders the bindings deterministically, for traces and tests.
func (b *Bindings) String() string {
	var parts []string
	for i, e := range b.trail {
		if b.lookup(e.kind, e.name) != &b.trail[i] {
			continue // shadowed by a later rebinding
		}
		switch e.kind {
		case Var:
			parts = append(parts, e.name+"="+e.term.String())
		case SeqVar:
			ss := make([]string, len(e.seq))
			for i, t := range e.seq {
				ss[i] = t.String()
			}
			parts = append(parts, e.name+"*=["+strings.Join(ss, ", ")+"]")
		case Fun:
			parts = append(parts, e.name+"()="+e.fun)
		}
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}

// Apply instantiates a term under the bindings: variables are replaced by
// their bindings, collection variables are spliced into argument lists,
// function-variable heads are replaced by their bound symbol. Unbound
// variables are an error — rules must bind every right-hand-side variable
// either by matching or by a method call (Section 4.1).
func (b *Bindings) Apply(t *Term) (*Term, error) {
	switch t.Kind {
	case Const:
		return t, nil
	case Var:
		if v, ok := b.Var(t.Name); ok {
			return v, nil
		}
		return nil, fmt.Errorf("term: unbound variable %s", t.Name)
	case SeqVar:
		return nil, fmt.Errorf("term: collection variable %s* used outside an argument list", t.Name)
	case Fun:
		functor := t.Functor
		if t.VarHead {
			f, ok := b.Fun(t.Functor)
			if !ok {
				return nil, fmt.Errorf("term: unbound function variable %s", t.Functor)
			}
			functor = f
		}
		args := make([]*Term, 0, len(t.Args))
		for _, a := range t.Args {
			if a.Kind == SeqVar {
				seq, ok := b.Seq(a.Name)
				if !ok {
					return nil, fmt.Errorf("term: unbound collection variable %s*", a.Name)
				}
				args = append(args, seq...)
				continue
			}
			na, err := b.Apply(a)
			if err != nil {
				return nil, err
			}
			args = append(args, na)
		}
		return F(functor, args...), nil
	}
	return nil, fmt.Errorf("term: cannot apply bindings to kind %d", t.Kind)
}
