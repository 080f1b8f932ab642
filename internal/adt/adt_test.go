package adt

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"lera/internal/value"
)

func call(t *testing.T, r *Registry, name string, args ...value.Value) value.Value {
	t.Helper()
	v, err := r.Call(name, args)
	if err != nil {
		t.Fatalf("%s(%v): %v", name, args, err)
	}
	return v
}

func mustErr(t *testing.T, r *Registry, name string, args ...value.Value) {
	t.Helper()
	if _, err := r.Call(name, args); err == nil {
		t.Errorf("%s(%v): expected error", name, args)
	}
}

// TestFigure1 exercises every collection function the paper's Figure 1
// lists, at the hierarchy level the figure places it.
func TestFigure1(t *testing.T) {
	r := NewRegistry()
	s := value.NewSet(value.Int(1), value.Int(2))
	b := value.NewBag(value.Int(1), value.Int(1))
	l := value.NewList(value.Int(3), value.Int(4))

	// Collection level: Convert, IsEmpty, Equal, Insert, Remove.
	if got := call(t, r, "TOSET", b); got.Len() != 1 {
		t.Errorf("Convert bag->set = %v", got)
	}
	if got := call(t, r, "TOBAG", s); got.K != value.KBag {
		t.Errorf("Convert set->bag = %v", got)
	}
	if got := call(t, r, "TOLIST", s); got.K != value.KList {
		t.Errorf("Convert set->list = %v", got)
	}
	if got := call(t, r, "TOARRAY", l); got.K != value.KArray {
		t.Errorf("Convert list->array = %v", got)
	}
	if !call(t, r, "ISEMPTY", value.NewSet()).B() {
		t.Error("IsEmpty({}) = false")
	}
	if call(t, r, "ISEMPTY", s).B() {
		t.Error("IsEmpty({1,2}) = true")
	}
	if !call(t, r, "EQUAL", s, value.NewSet(value.Int(2), value.Int(1))).B() {
		t.Error("Equal on reordered sets")
	}
	if got := call(t, r, "INSERT", s, value.Int(3)); got.Len() != 3 {
		t.Errorf("Insert = %v", got)
	}
	if got := call(t, r, "REMOVE", s, value.Int(1)); got.Len() != 1 {
		t.Errorf("Remove = %v", got)
	}

	// Set/bag level: Member, Union, Intersection, Difference, Include,
	// Choice, MakeSet, Exist/All.
	if !call(t, r, "MEMBER", value.Int(2), s).B() {
		t.Error("Member(2, {1,2})")
	}
	if got := call(t, r, "UNION", s, value.NewSet(value.Int(3))); got.Len() != 3 {
		t.Errorf("Union = %v", got)
	}
	if got := call(t, r, "INTERSECTION", s, value.NewSet(value.Int(2))); got.Len() != 1 {
		t.Errorf("Intersection = %v", got)
	}
	if got := call(t, r, "DIFFERENCE", s, value.NewSet(value.Int(2))); got.Len() != 1 {
		t.Errorf("Difference = %v", got)
	}
	if !call(t, r, "INCLUDE", value.NewSet(value.Int(1)), s).B() {
		t.Error("Include({1}, {1,2})")
	}
	if got := call(t, r, "CHOICE", s); got.I != 1 {
		t.Errorf("Choice = %v", got)
	}
	if got := call(t, r, "MAKESET", value.Int(1), value.Int(1), value.Int(2)); got.Len() != 2 {
		t.Errorf("MakeSet dedupes: %v", got)
	}
	if got := call(t, r, "MAKEBAG", value.Int(1), value.Int(1)); got.Len() != 2 {
		t.Errorf("MakeBag = %v", got)
	}
	if got := call(t, r, "MAKELIST", value.Int(2), value.Int(1)); got.Elems[0].I != 2 {
		t.Errorf("MakeList preserves order: %v", got)
	}

	// List level: Append, First, Last, Nth, Count.
	if got := call(t, r, "APPEND", l, value.NewList(value.Int(5))); got.Len() != 3 {
		t.Errorf("Append = %v", got)
	}
	if got := call(t, r, "FIRST", l); got.I != 3 {
		t.Errorf("First = %v", got)
	}
	if got := call(t, r, "LAST", l); got.I != 4 {
		t.Errorf("Last = %v", got)
	}
	if got := call(t, r, "NTH", l, value.Int(2)); got.I != 4 {
		t.Errorf("Nth = %v", got)
	}
	if got := call(t, r, "COUNT", b); got.I != 2 {
		t.Errorf("Count = %v", got)
	}
}

func TestQuantifiers(t *testing.T) {
	r := NewRegistry()
	allTrue := value.NewList(value.Bool(true), value.Bool(true))
	mixed := value.NewList(value.Bool(true), value.Bool(false))
	empty := value.NewSet()
	if !call(t, r, "ALL", allTrue).B() {
		t.Error("ALL(true,true)")
	}
	if call(t, r, "ALL", mixed).B() {
		t.Error("ALL(true,false)")
	}
	if !call(t, r, "ALL", empty).B() {
		t.Error("ALL({}) is vacuously true")
	}
	if !call(t, r, "EXIST", mixed).B() {
		t.Error("EXIST(true,false)")
	}
	if call(t, r, "EXIST", empty).B() {
		t.Error("EXIST({}) is false")
	}
	mustErr(t, r, "ALL", value.Int(1))
	mustErr(t, r, "ALL", value.NewList(value.Int(1)))
}

func TestComparisons(t *testing.T) {
	r := NewRegistry()
	cases := []struct {
		op   string
		a, b value.Value
		want bool
	}{
		{"=", value.Int(5), value.Real(5), true},
		{"<>", value.Int(5), value.Int(6), true},
		{"<", value.Int(5), value.Int(6), true},
		{">", value.String("b"), value.String("a"), true},
		{"<=", value.Int(5), value.Int(5), true},
		{">=", value.Int(4), value.Int(5), false},
	}
	for _, c := range cases {
		if got := call(t, r, c.op, c.a, c.b); got.B() != c.want {
			t.Errorf("%v %s %v = %v, want %v", c.a, c.op, c.b, got.B(), c.want)
		}
	}
}

func TestBooleans(t *testing.T) {
	r := NewRegistry()
	if call(t, r, "AND", value.True, value.False).B() {
		t.Error("AND(T,F)")
	}
	if !call(t, r, "AND").B() {
		t.Error("AND() = true")
	}
	if !call(t, r, "OR", value.False, value.True).B() {
		t.Error("OR(F,T)")
	}
	if call(t, r, "OR").B() {
		t.Error("OR() = false")
	}
	if call(t, r, "NOT", value.True).B() {
		t.Error("NOT(T)")
	}
	mustErr(t, r, "AND", value.Int(1))
	mustErr(t, r, "OR", value.Int(1))
	mustErr(t, r, "NOT", value.Int(1))
}

func TestArithmetic(t *testing.T) {
	r := NewRegistry()
	if got := call(t, r, "+", value.Int(2), value.Int(3)); got.K != value.KInt || got.I != 5 {
		t.Errorf("2+3 = %v", got)
	}
	if got := call(t, r, "-", value.Int(2), value.Real(0.5)); got.K != value.KReal || got.F() != 1.5 {
		t.Errorf("2-0.5 = %v", got)
	}
	if got := call(t, r, "*", value.Int(4), value.Int(5)); got.I != 20 {
		t.Errorf("4*5 = %v", got)
	}
	if got := call(t, r, "/", value.Int(5), value.Int(2)); got.F() != 2.5 {
		t.Errorf("5/2 = %v", got)
	}
	if got := call(t, r, "NEG", value.Int(3)); got.I != -3 {
		t.Errorf("NEG 3 = %v", got)
	}
	if got := call(t, r, "NEG", value.Real(1.5)); got.F() != -1.5 {
		t.Errorf("NEG 1.5 = %v", got)
	}
	mustErr(t, r, "/", value.Int(1), value.Int(0))
	mustErr(t, r, "+", value.Int(1), value.String("x"))
	mustErr(t, r, "NEG", value.String("x"))
}

func TestStrings(t *testing.T) {
	r := NewRegistry()
	if got := call(t, r, "CONCAT", value.String("ab"), value.String("cd")); got.S != "abcd" {
		t.Errorf("CONCAT = %v", got)
	}
	if got := call(t, r, "LENGTH", value.String("abc")); got.I != 3 {
		t.Errorf("LENGTH = %v", got)
	}
	mustErr(t, r, "CONCAT", value.Int(1), value.String("x"))
	mustErr(t, r, "LENGTH", value.Int(1))
}

func TestErrors(t *testing.T) {
	r := NewRegistry()
	mustErr(t, r, "NOSUCH", value.Int(1))
	mustErr(t, r, "MEMBER", value.Int(1)) // arity
	mustErr(t, r, "ISEMPTY", value.Int(1))
	mustErr(t, r, "COUNT", value.Int(1))
	mustErr(t, r, "FIRST", value.NewList())
	mustErr(t, r, "LAST", value.NewSet(value.Int(1)))
	mustErr(t, r, "NTH", value.NewList(value.Int(1)), value.Int(0))
	mustErr(t, r, "NTH", value.NewList(value.Int(1)), value.String("x"))
	mustErr(t, r, "NTH", value.Int(1), value.Int(1))
}

func TestRegisterExtension(t *testing.T) {
	r := NewRegistry()
	// A database implementor adds an Interval overlap method — the
	// paper's extensibility story (Section 2.1).
	r.Register("OVERLAPS", 2, true, func(a []value.Value) (value.Value, error) {
		lo1, _ := a[0].Field("lo")
		hi1, _ := a[0].Field("hi")
		lo2, _ := a[1].Field("lo")
		hi2, _ := a[1].Field("hi")
		return value.Bool(value.Compare(lo1, hi2) <= 0 && value.Compare(lo2, hi1) <= 0), nil
	})
	iv := func(lo, hi int64) value.Value {
		return value.NewTuple([]string{"lo", "hi"}, []value.Value{value.Int(lo), value.Int(hi)})
	}
	if !call(t, r, "overlaps", iv(1, 5), iv(4, 9)).B() {
		t.Error("overlap expected")
	}
	if call(t, r, "OVERLAPS", iv(1, 2), iv(3, 4)).B() {
		t.Error("no overlap expected")
	}
	if !r.IsPure("OVERLAPS") {
		t.Error("registered function should be pure")
	}
	if r.IsPure("NOSUCH") {
		t.Error("unknown function is not pure")
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	r := NewRegistry()
	names := registeredNames(r)
	if !sortedStrings(names) {
		t.Error("Names() must be sorted")
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"MEMBER", "UNION", "CHOICE", "MAKESET", "APPEND", "ISEMPTY", "ALL", "EXIST"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Names() missing %s", want)
		}
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}

// --- property tests ---

type smallSet struct{ v value.Value }

func (smallSet) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(5)
	es := make([]value.Value, n)
	for i := range es {
		es[i] = value.Int(int64(r.Intn(6)))
	}
	return reflect.ValueOf(smallSet{value.NewSet(es...)})
}

// De Morgan over collections: INCLUDE(a,b) iff DIFFERENCE(a,b) empty.
func TestPropIncludeDifference(t *testing.T) {
	r := NewRegistry()
	f := func(a, b smallSet) bool {
		inc, err := r.Call("INCLUDE", []value.Value{a.v, b.v})
		if err != nil {
			return false
		}
		d, err := r.Call("DIFFERENCE", []value.Value{a.v, b.v})
		if err != nil {
			return false
		}
		return inc.B() == (d.Len() == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Insert then Remove returns a set equal to original when elem not present.
func TestPropInsertRemove(t *testing.T) {
	r := NewRegistry()
	f := func(a smallSet, x uint8) bool {
		e := value.Int(int64(x%6) + 100) // guaranteed absent
		ins, err := r.Call("INSERT", []value.Value{a.v, e})
		if err != nil {
			return false
		}
		rem, err := r.Call("REMOVE", []value.Value{ins, e})
		if err != nil {
			return false
		}
		return value.Equal(rem, a.v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// MEMBER distributes over UNION.
func TestPropMemberUnion(t *testing.T) {
	r := NewRegistry()
	f := func(a, b smallSet, x uint8) bool {
		e := value.Int(int64(x % 8))
		u, err := r.Call("UNION", []value.Value{a.v, b.v})
		if err != nil {
			return false
		}
		mu, _ := r.Call("MEMBER", []value.Value{e, u})
		ma, _ := r.Call("MEMBER", []value.Value{e, a.v})
		mb, _ := r.Call("MEMBER", []value.Value{e, b.v})
		return mu.B() == (ma.B() || mb.B())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// registeredNames returns all registered function names, sorted.
func registeredNames(r *Registry) []string {
	out := make([]string, 0, len(r.fns))
	for _, e := range r.fns {
		out = append(out, e.Name)
	}
	sort.Strings(out)
	return out
}
