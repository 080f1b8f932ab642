// Package value implements the runtime value system of the ESQL/LERA
// reproduction: scalar values, tuples, the generic collection ADTs of the
// paper's Figure 1 (set, bag, list, array) and object identifiers.
//
// Values are immutable by convention: every operation returns a new Value.
// Sets and bags are kept in a canonical sorted order so that structural
// equality, set semantics and deterministic printing all fall out of a
// single total order (Compare).
package value

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unsafe"
)

// Kind discriminates the runtime representation of a Value.
type Kind int

// The value kinds. KNull is the zero Kind so that the zero Value is NULL.
const (
	KNull Kind = iota
	KBool
	KInt
	KReal
	KString
	KTuple
	KSet
	KBag
	KList
	KArray
	KOID
)

// String returns the kind name as used in error messages and the printer.
func (k Kind) String() string {
	switch k {
	case KNull:
		return "null"
	case KBool:
		return "bool"
	case KInt:
		return "int"
	case KReal:
		return "real"
	case KString:
		return "string"
	case KTuple:
		return "tuple"
	case KSet:
		return "set"
	case KBag:
		return "bag"
	case KList:
		return "list"
	case KArray:
		return "array"
	case KOID:
		return "oid"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// IsCollection reports whether the kind is one of the generic collection
// ADTs of the paper's Figure 1.
func (k Kind) IsCollection() bool {
	return k == KSet || k == KBag || k == KList || k == KArray
}

// Value is a runtime ESQL value. The zero Value is NULL.
//
// It is 64 bytes: every cell of every relation is one, so the scalar
// kinds share a single payload word rather than each having a field.
type Value struct {
	K Kind

	// I is the one scalar payload word: an int's value, a real's
	// math.Float64bits, a bool as 0 or 1, an OID. Read it directly only
	// after checking K == KInt; the other kinds read it through F, B and
	// OID.
	I int64
	S string

	// Elems holds collection elements (sorted and deduplicated for sets,
	// sorted for bags, in order for lists/arrays) and tuple field values.
	Elems []Value

	// names points at the first of a tuple's len(Elems) field names; nil
	// for non-tuples and for the empty tuple. Every tuple built with
	// NewTupleNamed from one name slice shares it. It is a pointer to the
	// first name and not a *[]string so that NewTuple, which copies its
	// names, allocates the copy alone and no slice header beside it.
	names *string
}

// Null is the NULL value.
var Null = Value{}

// Bool constructs a boolean value.
func Bool(b bool) Value {
	if b {
		return Value{K: KBool, I: 1}
	}
	return Value{K: KBool}
}

// Int constructs an integer value.
func Int(i int64) Value { return Value{K: KInt, I: i} }

// Real constructs a real (float) value.
func Real(f float64) Value { return Value{K: KReal, I: int64(math.Float64bits(f))} }

// String constructs a string value.
func String(s string) Value { return Value{K: KString, S: s} }

// OID constructs an object identifier value.
func OID(id int64) Value { return Value{K: KOID, I: id} }

// True and False are the boolean constants.
var (
	True  = Bool(true)
	False = Bool(false)
)

// B returns a bool's truth value; false for every other kind.
func (v Value) B() bool { return v.K == KBool && v.I != 0 }

// F returns a real's value, bit-exact (-0.0 and NaN payloads included);
// 0 for every other kind.
func (v Value) F() float64 {
	if v.K != KReal {
		return 0
	}
	return math.Float64frombits(uint64(v.I))
}

// OID returns an object identifier's id; 0 for every other kind.
func (v Value) OID() int64 {
	if v.K != KOID {
		return 0
	}
	return v.I
}

// Names returns a tuple's field names, parallel to Elems; nil for
// non-tuples. The slice is shared and must not be modified.
func (v Value) Names() []string {
	if v.names == nil {
		return nil
	}
	return unsafe.Slice(v.names, len(v.Elems))
}

// NewTuple constructs a tuple value with the given field names and values,
// copying both. The two slices must have equal length.
func NewTuple(names []string, vals []Value) Value {
	return NewTupleNamed(append([]string(nil), names...), append([]Value(nil), vals...))
}

// NewTupleNamed is NewTuple without the copies, for a builder that makes
// many tuples of one schema: every tuple shares names, and vals becomes
// the tuple's Elems. The caller modifies neither afterwards. The two
// slices must have equal length.
func NewTupleNamed(names []string, vals []Value) Value {
	if len(names) != len(vals) {
		panic(fmt.Sprintf("value: tuple arity mismatch: %d names, %d values", len(names), len(vals)))
	}
	v := Value{K: KTuple, Elems: vals}
	if len(names) > 0 {
		v.names = &names[0]
	}
	return v
}

// NewSet constructs a set, deduplicating and sorting the elements into
// canonical order.
func NewSet(elems ...Value) Value {
	es := append([]Value(nil), elems...)
	sort.Slice(es, func(i, j int) bool { return CompareRef(&es[i], &es[j]) < 0 })
	out := es[:0]
	for i := range es {
		if i == 0 || CompareRef(&es[i-1], &es[i]) != 0 {
			out = append(out, es[i])
		}
	}
	return Value{K: KSet, Elems: out}
}

// NewBag constructs a bag; duplicates are kept but elements are sorted so
// equal bags compare equal structurally.
func NewBag(elems ...Value) Value {
	es := append([]Value(nil), elems...)
	sort.Slice(es, func(i, j int) bool { return CompareRef(&es[i], &es[j]) < 0 })
	return Value{K: KBag, Elems: es}
}

// NewList constructs a list preserving element order.
func NewList(elems ...Value) Value {
	return Value{K: KList, Elems: append([]Value(nil), elems...)}
}

// NewArray constructs an array preserving element order.
func NewArray(elems ...Value) Value {
	return Value{K: KArray, Elems: append([]Value(nil), elems...)}
}

// IsTrue reports whether v is the boolean true.
func (v Value) IsTrue() bool { return v.B() }

// Field returns the named tuple field and whether it exists.
func (v Value) Field(name string) (Value, bool) {
	if v.K != KTuple {
		return Null, false
	}
	for i, n := range v.Names() {
		if strings.EqualFold(n, name) {
			return v.Elems[i], true
		}
	}
	return Null, false
}

// Len returns the number of elements of a collection or fields of a tuple.
func (v Value) Len() int { return len(v.Elems) }

// AsFloat converts numeric values to float64; ok is false otherwise. It
// and Hash take the value by reference: both run per cell in the engine's
// hashing and comparing loops, where a Value is too wide to copy.
func (v *Value) AsFloat() (float64, bool) {
	switch v.K {
	case KInt:
		return float64(v.I), true
	case KReal:
		return math.Float64frombits(uint64(v.I)), true
	}
	return 0, false
}

// Compare imposes a total order on all values. Values of different kinds
// order by kind, except that ints and reals compare numerically, with NaN
// equal only to NaN and after every other number (PostgreSQL's rule, and
// the equality Hash and the engine's join key already keep). Within a
// kind: booleans order false < true, strings lexicographically, tuples and
// collections lexicographically element-wise then by length.
func Compare(a, b Value) int { return CompareRef(&a, &b) }

// CompareRef is Compare over values read where they lie — the one
// implementation of the order, for callers whose operands already sit in a
// row or a slice (the engine's compiled comparisons, the sorts here).
func CompareRef(a, b *Value) int {
	// Numeric cross-kind comparison.
	if af, aok := a.AsFloat(); aok {
		if bf, bok := b.AsFloat(); bok {
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			case af == bf:
				// Equal numerically: int and real of equal magnitude are
				// considered equal (5 = 5.0), matching SQL semantics.
				return 0
			}
			// At least one NaN.
			switch aNaN, bNaN := af != af, bf != bf; {
			case aNaN == bNaN:
				return 0
			case aNaN:
				return 1
			}
			return -1
		}
	}
	if a.K != b.K {
		if a.K < b.K {
			return -1
		}
		return 1
	}
	switch a.K {
	case KNull:
		return 0
	case KBool:
		ab, bb := a.I != 0, b.I != 0
		switch {
		case ab == bb:
			return 0
		case !ab:
			return -1
		}
		return 1
	case KString:
		return strings.Compare(a.S, b.S)
	case KOID:
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	case KTuple, KSet, KBag, KList, KArray:
		n := len(a.Elems)
		if len(b.Elems) < n {
			n = len(b.Elems)
		}
		for i := 0; i < n; i++ {
			if c := CompareRef(&a.Elems[i], &b.Elems[i]); c != 0 {
				return c
			}
		}
		switch {
		case len(a.Elems) < len(b.Elems):
			return -1
		case len(a.Elems) > len(b.Elems):
			return 1
		}
		// Tuples additionally compare field names so that tuples with
		// different schemas are not spuriously equal.
		if a.K == KTuple && a.names != b.names {
			an, bn := a.Names(), b.Names()
			for i := range an {
				if c := strings.Compare(an[i], bn[i]); c != 0 {
					return c
				}
			}
		}
		return 0
	}
	return 0
}

// Equal reports deep structural equality under the Compare order.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// FNV-1a constants for Hash (and term-structure hashing built on it).
const (
	HashOffset = 14695981039346656037
	HashPrime  = 1099511628211
)

// HashUint folds one 64-bit word into an FNV-1a state.
func HashUint(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= HashPrime
		x >>= 8
	}
	return h
}

// HashString folds a string into an FNV-1a state.
func HashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= HashPrime
	}
	return h
}

// Hash returns a structural hash consistent with Compare and with Key:
// values for which Compare returns 0, and values with equal Key strings,
// hash identically. Ints and reals hash by float64 magnitude (5 and 5.0
// collide, mirroring Compare's numeric equality and Key's encoding); -0.0
// is normalised to 0.0 for the same reason.
func (v *Value) Hash() uint64 {
	h := uint64(HashOffset)
	if f, ok := v.AsFloat(); ok {
		if f == 0 {
			f = 0 // fold -0.0 into +0.0, which Compare treats as equal
		}
		if math.IsNaN(f) {
			// Canonicalize NaN payloads: Key renders every NaN as "NaN",
			// so hashed keys must collapse them the same way.
			f = math.NaN()
		}
		return HashUint(HashString(h, "f"), math.Float64bits(f))
	}
	h = HashUint(h, uint64(v.K))
	switch v.K {
	case KNull:
	case KBool:
		if v.I != 0 {
			h = HashUint(h, 1)
		}
	case KString:
		h = HashString(h, v.S)
	case KOID:
		h = HashUint(h, uint64(v.I))
	case KTuple, KSet, KBag, KList, KArray:
		h = HashUint(h, uint64(len(v.Elems)))
		for i := range v.Elems {
			h = HashUint(h, v.Elems[i].Hash())
		}
		if v.K == KTuple {
			// Field names hash as Key renders them, joined by ",": name
			// lists Key cannot tell apart ("a,b","c" and "a","b,c") must
			// not hash apart either.
			for i, n := range v.Names() {
				if i > 0 {
					h = HashString(h, ",")
				}
				h = HashString(h, n)
			}
		}
	}
	return h
}

// Key returns a canonical string encoding of v, usable as a hash-map key
// (e.g. by the engine's hash join and duplicate elimination).
func (v Value) Key() string {
	var sb strings.Builder
	v.encode(&sb)
	return sb.String()
}

func (v Value) encode(sb *strings.Builder) {
	switch v.K {
	case KNull:
		sb.WriteString("N")
	case KBool:
		if v.I != 0 {
			sb.WriteString("b1")
		} else {
			sb.WriteString("b0")
		}
	case KInt:
		// Encode ints as reals so that 5 and 5.0 share a key, mirroring
		// Compare's numeric equality.
		sb.WriteString("f")
		sb.WriteString(strconv.FormatFloat(float64(v.I), 'g', -1, 64))
	case KReal:
		sb.WriteString("f")
		sb.WriteString(strconv.FormatFloat(v.F(), 'g', -1, 64))
	case KString:
		sb.WriteString("s")
		sb.WriteString(strconv.Itoa(len(v.S)))
		sb.WriteString(":")
		sb.WriteString(v.S)
	case KOID:
		sb.WriteString("o")
		sb.WriteString(strconv.FormatInt(v.I, 10))
	default:
		sb.WriteString(v.K.String()[:2])
		sb.WriteString(strconv.Itoa(len(v.Elems)))
		sb.WriteString("[")
		for _, e := range v.Elems {
			e.encode(sb)
			sb.WriteString(",")
		}
		sb.WriteString("]")
		if v.K == KTuple {
			sb.WriteString(strings.Join(v.Names(), ","))
		}
	}
}

// String renders v in ESQL literal syntax.
func (v Value) String() string {
	var buf [64]byte // on the stack: one allocation, the string, for all but long values
	return string(v.AppendText(buf[:0]))
}

// AppendText appends the String rendering of v to dst and returns the
// extended buffer, so that a caller rendering many values (a result set)
// pays for one growing buffer rather than one string per value.
func (v Value) AppendText(dst []byte) []byte {
	switch v.K {
	case KNull:
		return append(dst, "NULL"...)
	case KBool:
		if v.I != 0 {
			return append(dst, "TRUE"...)
		}
		return append(dst, "FALSE"...)
	case KInt:
		return strconv.AppendInt(dst, v.I, 10)
	case KReal:
		f := v.F()
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			return strconv.AppendFloat(dst, f, 'f', 1, 64)
		}
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	case KString:
		dst = append(dst, '\'')
		s := v.S
		for i := strings.IndexByte(s, '\''); i >= 0; i = strings.IndexByte(s, '\'') {
			dst = append(append(dst, s[:i+1]...), '\'') // the quote, doubled
			s = s[i+1:]
		}
		return append(append(dst, s...), '\'')
	case KOID:
		return strconv.AppendInt(append(dst, '@'), v.I, 10)
	case KTuple:
		dst = append(dst, "TUPLE("...)
		names := v.Names()
		for i, e := range v.Elems {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = append(append(dst, names[i]...), ": "...)
			dst = e.AppendText(dst)
		}
		return append(dst, ')')
	case KSet, KBag, KList, KArray:
		for _, c := range []byte(v.K.String()) { // lower-case ASCII for these kinds
			dst = append(dst, c-'a'+'A')
		}
		dst = append(dst, '(')
		for i, e := range v.Elems {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = e.AppendText(dst)
		}
		return append(dst, ')')
	}
	return append(dst, '?')
}

// Convert converts a collection value to another collection kind, following
// the paper's Figure 1 Convert function at the collection level: converting
// a bag to a set removes duplicates; converting a set or bag to a list or
// array yields the elements in canonical order.
func Convert(v Value, to Kind) (Value, error) {
	if !v.K.IsCollection() {
		return Null, fmt.Errorf("value: convert: %s is not a collection", v.K)
	}
	if !to.IsCollection() {
		return Null, fmt.Errorf("value: convert: %s is not a collection kind", to)
	}
	switch to {
	case KSet:
		return NewSet(v.Elems...), nil
	case KBag:
		return NewBag(v.Elems...), nil
	case KList:
		return NewList(v.Elems...), nil
	case KArray:
		return NewArray(v.Elems...), nil
	}
	return Null, fmt.Errorf("value: convert: unsupported target %s", to)
}

// Member reports whether elem occurs in the collection coll.
func Member(elem, coll Value) (bool, error) {
	if !coll.K.IsCollection() {
		return false, fmt.Errorf("value: member: %s is not a collection", coll.K)
	}
	for _, e := range coll.Elems {
		if Equal(e, elem) {
			return true, nil
		}
	}
	return false, nil
}

// Insert returns coll with elem inserted (set semantics dedupe; lists and
// arrays append).
func Insert(coll, elem Value) (Value, error) {
	if !coll.K.IsCollection() {
		return Null, fmt.Errorf("value: insert: %s is not a collection", coll.K)
	}
	es := append(append([]Value(nil), coll.Elems...), elem)
	switch coll.K {
	case KSet:
		return NewSet(es...), nil
	case KBag:
		return NewBag(es...), nil
	case KList:
		return NewList(es...), nil
	default:
		return NewArray(es...), nil
	}
}

// Remove returns coll with one occurrence of elem removed (all occurrences
// for sets, where there is at most one).
func Remove(coll, elem Value) (Value, error) {
	if !coll.K.IsCollection() {
		return Null, fmt.Errorf("value: remove: %s is not a collection", coll.K)
	}
	es := make([]Value, 0, len(coll.Elems))
	removed := false
	for _, e := range coll.Elems {
		if !removed && Equal(e, elem) {
			removed = true
			continue
		}
		es = append(es, e)
	}
	switch coll.K {
	case KSet:
		return NewSet(es...), nil
	case KBag:
		return NewBag(es...), nil
	case KList:
		return NewList(es...), nil
	default:
		return NewArray(es...), nil
	}
}

// Union returns the union of two collections of the same kind. Set union
// deduplicates; bag union is additive; list/array union concatenates.
func Union(a, b Value) (Value, error) {
	if err := sameCollection(a, b, "union"); err != nil {
		return Null, err
	}
	es := append(append([]Value(nil), a.Elems...), b.Elems...)
	return rebuild(a.K, es), nil
}

// Intersection returns the intersection of two collections of the same
// kind. For bags, multiplicities are the minimum of the two sides.
func Intersection(a, b Value) (Value, error) {
	if err := sameCollection(a, b, "intersection"); err != nil {
		return Null, err
	}
	remaining := append([]Value(nil), b.Elems...)
	var es []Value
	for _, e := range a.Elems {
		for i, r := range remaining {
			if Equal(e, r) {
				es = append(es, e)
				remaining = append(remaining[:i], remaining[i+1:]...)
				break
			}
		}
	}
	return rebuild(a.K, es), nil
}

// Difference returns the difference a − b of two collections of the same
// kind. For bags, multiplicities subtract.
func Difference(a, b Value) (Value, error) {
	if err := sameCollection(a, b, "difference"); err != nil {
		return Null, err
	}
	remaining := append([]Value(nil), b.Elems...)
	var es []Value
outer:
	for _, e := range a.Elems {
		for i, r := range remaining {
			if Equal(e, r) {
				remaining = append(remaining[:i], remaining[i+1:]...)
				continue outer
			}
		}
		es = append(es, e)
	}
	return rebuild(a.K, es), nil
}

// Include reports whether every element of a occurs in b (subset for sets,
// sub-multiset for bags).
func Include(a, b Value) (bool, error) {
	d, err := Difference(a, b)
	if err != nil {
		return false, err
	}
	return len(d.Elems) == 0, nil
}

func sameCollection(a, b Value, op string) error {
	if !a.K.IsCollection() || !b.K.IsCollection() {
		return fmt.Errorf("value: %s: operands must be collections, got %s and %s", op, a.K, b.K)
	}
	if a.K != b.K {
		return fmt.Errorf("value: %s: collection kinds differ: %s vs %s", op, a.K, b.K)
	}
	return nil
}

func rebuild(k Kind, es []Value) Value {
	switch k {
	case KSet:
		return NewSet(es...)
	case KBag:
		return NewBag(es...)
	case KList:
		return NewList(es...)
	default:
		return NewArray(es...)
	}
}

// Choice returns an arbitrary — here: the canonically first — element of a
// non-empty collection, after the choice function of [Manna85] cited by the
// paper.
func Choice(coll Value) (Value, error) {
	if !coll.K.IsCollection() {
		return Null, fmt.Errorf("value: choice: %s is not a collection", coll.K)
	}
	if len(coll.Elems) == 0 {
		return Null, fmt.Errorf("value: choice: empty collection")
	}
	return coll.Elems[0], nil
}

// Append concatenates two lists or arrays, preserving order.
func Append(a, b Value) (Value, error) {
	if a.K != b.K || (a.K != KList && a.K != KArray) {
		return Null, fmt.Errorf("value: append: operands must both be lists or arrays, got %s and %s", a.K, b.K)
	}
	es := append(append([]Value(nil), a.Elems...), b.Elems...)
	if a.K == KList {
		return NewList(es...), nil
	}
	return NewArray(es...), nil
}
