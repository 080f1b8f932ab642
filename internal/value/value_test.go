package value

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KNull: "null", KBool: "bool", KInt: "int", KReal: "real",
		KString: "string", KTuple: "tuple", KSet: "set", KBag: "bag",
		KList: "list", KArray: "array", KOID: "oid",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
	if got := Kind(99).String(); got != "kind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestIsCollection(t *testing.T) {
	for _, k := range []Kind{KSet, KBag, KList, KArray} {
		if !k.IsCollection() {
			t.Errorf("%s should be a collection", k)
		}
	}
	for _, k := range []Kind{KNull, KBool, KInt, KReal, KString, KTuple, KOID} {
		if k.IsCollection() {
			t.Errorf("%s should not be a collection", k)
		}
	}
}

func TestSetDedupAndOrder(t *testing.T) {
	s := NewSet(Int(3), Int(1), Int(3), Int(2), Int(1))
	if s.Len() != 3 {
		t.Fatalf("set len = %d, want 3", s.Len())
	}
	want := []int64{1, 2, 3}
	for i, e := range s.Elems {
		if e.I != want[i] {
			t.Errorf("elem %d = %d, want %d", i, e.I, want[i])
		}
	}
}

func TestBagKeepsDuplicates(t *testing.T) {
	b := NewBag(Int(2), Int(1), Int(2))
	if b.Len() != 3 {
		t.Fatalf("bag len = %d, want 3", b.Len())
	}
	if b.Elems[0].I != 1 || b.Elems[1].I != 2 || b.Elems[2].I != 2 {
		t.Errorf("bag order wrong: %v", b)
	}
}

func TestListPreservesOrder(t *testing.T) {
	l := NewList(Int(3), Int(1), Int(2))
	got := []int64{l.Elems[0].I, l.Elems[1].I, l.Elems[2].I}
	if !reflect.DeepEqual(got, []int64{3, 1, 2}) {
		t.Errorf("list order = %v", got)
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	if Compare(Int(5), Real(5.0)) != 0 {
		t.Error("5 should equal 5.0")
	}
	if Compare(Int(5), Real(5.5)) >= 0 {
		t.Error("5 < 5.5")
	}
	if Compare(Real(6.0), Int(5)) <= 0 {
		t.Error("6.0 > 5")
	}
}

func TestCompareStringsAndBools(t *testing.T) {
	if Compare(String("a"), String("b")) >= 0 {
		t.Error("'a' < 'b'")
	}
	if Compare(Bool(false), Bool(true)) >= 0 {
		t.Error("false < true")
	}
	if Compare(Bool(true), Bool(true)) != 0 {
		t.Error("true = true")
	}
	if Compare(Bool(true), Bool(false)) <= 0 {
		t.Error("true > false")
	}
}

func TestCompareTuples(t *testing.T) {
	t1 := NewTuple([]string{"a", "b"}, []Value{Int(1), Int(2)})
	t2 := NewTuple([]string{"a", "b"}, []Value{Int(1), Int(3)})
	t3 := NewTuple([]string{"a", "b"}, []Value{Int(1), Int(2)})
	if Compare(t1, t2) >= 0 {
		t.Error("t1 < t2")
	}
	if !Equal(t1, t3) {
		t.Error("t1 = t3")
	}
	// Different field names break equality.
	t4 := NewTuple([]string{"a", "c"}, []Value{Int(1), Int(2)})
	if Equal(t1, t4) {
		t.Error("tuples with different field names must differ")
	}
}

func TestTupleField(t *testing.T) {
	tp := NewTuple([]string{"Name", "Salary"}, []Value{String("Quinn"), Int(12000)})
	v, ok := tp.Field("Salary")
	if !ok || v.I != 12000 {
		t.Errorf("Field(Salary) = %v, %v", v, ok)
	}
	// Case-insensitive, as ESQL identifiers are.
	v, ok = tp.Field("name")
	if !ok || v.S != "Quinn" {
		t.Errorf("Field(name) = %v, %v", v, ok)
	}
	if _, ok := tp.Field("missing"); ok {
		t.Error("missing field should not be found")
	}
	if _, ok := Int(1).Field("x"); ok {
		t.Error("non-tuple has no fields")
	}
}

func TestTupleArityPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on arity mismatch")
		}
	}()
	NewTuple([]string{"a"}, []Value{Int(1), Int(2)})
}

func TestKeyDistinguishes(t *testing.T) {
	pairs := []Value{
		Int(1), Real(1.5), String("1"), Bool(true), Null, OID(1),
		NewSet(Int(1)), NewBag(Int(1)), NewList(Int(1)), NewArray(Int(1)),
		NewTuple([]string{"a"}, []Value{Int(1)}),
		String("s3:abc"), String("s3"), // prefix-injection check
	}
	seen := map[string]Value{}
	for _, v := range pairs {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision: %v and %v both have key %q", prev, v, k)
		}
		seen[k] = v
	}
	// Int/real numeric equality must share a key.
	if Int(5).Key() != Real(5).Key() {
		t.Error("5 and 5.0 must share a key")
	}
}

// TestValueSize pins the compact layout: the kind, one payload word, a
// string, the elements and the tuple-names pointer. Every cell of every
// relation is one of these.
func TestValueSize(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 64 {
		t.Errorf("value.Value is %d bytes, want 64", got)
	}
}

// TestPayloadWordKinds: Int(1), True, OID(1) and the real whose bits are 1
// hold the same payload word, and the kind alone keeps them apart — under
// Compare, Key and Hash alike. Each accessor reads its own kind only, and a
// real keeps its bits through F exactly.
func TestPayloadWordKinds(t *testing.T) {
	vals := []Value{Int(1), True, OID(1), Real(math.Float64frombits(1))}
	for i, a := range vals {
		if a.I != 1 {
			t.Fatalf("%s holds payload word %d, want 1", a, a.I)
		}
		for j, b := range vals {
			if (Compare(a, b) == 0) != (i == j) || (a.Key() == b.Key()) != (i == j) {
				t.Errorf("%s and %s: Compare %d, keys %q and %q", a, b, Compare(a, b), a.Key(), b.Key())
			}
			if a.Key() == b.Key() && a.Hash() != b.Hash() {
				t.Errorf("%s and %s: equal keys, different hashes", a, b)
			}
		}
	}
	if Int(1).B() || OID(1).F() != 0 || True.OID() != 0 || Int(1).Names() != nil {
		t.Error("an accessor read another kind's payload word")
	}
	for _, bits := range []uint64{math.Float64bits(math.Copysign(0, -1)), 0x7ff8000000000001, 0xfff8000000000777} {
		if got := math.Float64bits(Real(math.Float64frombits(bits)).F()); got != bits {
			t.Errorf("Real(%#x).F() has bits %#x", bits, got)
		}
	}
}

// TestTupleNames: NewTuple copies its names and NewTupleNamed shares them,
// and the two build the same value as far as Compare, Key and Hash can
// tell. NewTuple allocates its two copies and nothing beside them, as
// before the names moved behind a pointer; NewTupleNamed allocates nothing.
func TestTupleNames(t *testing.T) {
	names, vals := []string{"a", "b"}, []Value{Int(1), String("x")}
	copied := NewTuple(names, vals)
	names[0] = "z"
	if got := copied.Names(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("NewTuple names = %q, want its own copy of [a b]", got)
	}
	schema := []string{"a", "b"}
	s1 := NewTupleNamed(schema, []Value{Int(1), String("x")})
	s2 := NewTupleNamed(schema, []Value{Int(2), String("y")})
	if &s1.Names()[0] != &s2.Names()[0] {
		t.Error("tuples built from one name slice do not share it")
	}
	if Compare(copied, s1) != 0 || copied.Key() != s1.Key() || copied.Hash() != s1.Hash() {
		t.Errorf("copied and shared names build different tuples: %s vs %s", copied, s1)
	}
	if Compare(s1, s2) >= 0 || s1.String() != "TUPLE(a: 1, b: 'x')" {
		t.Errorf("shared-name tuples %s, %s", s1, s2)
	}
	if e := NewTuple(nil, nil); e.Names() != nil || e.String() != "TUPLE()" {
		t.Errorf("empty tuple = %s with names %q", e, e.Names())
	}
	if n := testing.AllocsPerRun(20, func() { tupleSink = NewTuple(schema, vals) }); n > 2 {
		t.Errorf("NewTuple allocates %.0f times, want 2 (its names and its values)", n)
	}
	if n := testing.AllocsPerRun(20, func() { tupleSink = NewTupleNamed(schema, vals) }); n != 0 {
		t.Errorf("NewTupleNamed allocates %.0f times, want 0", n)
	}
}

var tupleSink Value

func TestString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null, "NULL"},
		{Bool(true), "TRUE"},
		{Bool(false), "FALSE"},
		{Int(42), "42"},
		{Real(2.5), "2.5"},
		{Real(3), "3.0"},
		{String("it's"), "'it''s'"},
		{OID(7), "@7"},
		{NewSet(String("b"), String("a")), "SET('a', 'b')"},
		{NewList(Int(1), Int(2)), "LIST(1, 2)"},
		{NewTuple([]string{"x"}, []Value{Int(1)}), "TUPLE(x: 1)"},
		{String(""), "''"},
		{String("'a''"), "'''a'''''"},
		{Int(-7), "-7"},
		{OID(-3), "@-3"},
		{Real(1e15), "1e+15"},
		{Real(-0.125), "-0.125"},
		{Real(math.Inf(1)), "+Inf"},
		{NewSet(), "SET()"},
		{NewBag(Int(2), Int(2)), "BAG(2, 2)"},
		{NewArray(NewList(String("q'"), Null), Bool(true)), "ARRAY(LIST('q''', NULL), TRUE)"},
		{NewTuple([]string{"a", "b"}, []Value{NewSet(Int(1)), Real(2)}), "TUPLE(a: SET(1), b: 2.0)"},
		{Value{K: Kind(99)}, "?"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%#v) = %q, want %q", c.v, got, c.want)
		}
		// AppendText extends the buffer it is given and is what String returns.
		if got := string(c.v.AppendText([]byte("x | "))); got != "x | "+c.want {
			t.Errorf("AppendText(%#v) = %q, want %q", c.v, got, "x | "+c.want)
		}
		// A short rendering costs the string and nothing else, nested or not
		// (the server renders every cell of a response through String).
		v := c.v
		if n := testing.AllocsPerRun(20, func() { stringSink = v.String() }); n > 1 {
			t.Errorf("String(%s) allocates %.0f times", c.want, n)
		}
	}
}

var stringSink string

func TestConvert(t *testing.T) {
	b := NewBag(Int(1), Int(1), Int(2))
	s, err := Convert(b, KSet)
	if err != nil {
		t.Fatal(err)
	}
	if s.K != KSet || s.Len() != 2 {
		t.Errorf("bag->set = %v", s)
	}
	l, err := Convert(s, KList)
	if err != nil {
		t.Fatal(err)
	}
	if l.K != KList || l.Len() != 2 {
		t.Errorf("set->list = %v", l)
	}
	if _, err := Convert(Int(1), KSet); err == nil {
		t.Error("convert of scalar must fail")
	}
	if _, err := Convert(s, KInt); err == nil {
		t.Error("convert to scalar must fail")
	}
}

func TestMember(t *testing.T) {
	s := NewSet(String("Comedy"), String("Adventure"))
	ok, err := Member(String("Adventure"), s)
	if err != nil || !ok {
		t.Errorf("member = %v, %v", ok, err)
	}
	ok, err = Member(String("Cartoon"), s)
	if err != nil || ok {
		t.Errorf("'Cartoon' should not be a member")
	}
	if _, err := Member(Int(1), Int(2)); err == nil {
		t.Error("member of non-collection must fail")
	}
}

func TestInsertRemove(t *testing.T) {
	s := NewSet(Int(1), Int(2))
	s2, err := Insert(s, Int(2))
	if err != nil || s2.Len() != 2 {
		t.Errorf("set insert dupe: %v %v", s2, err)
	}
	s3, _ := Insert(s, Int(3))
	if s3.Len() != 3 {
		t.Errorf("set insert: %v", s3)
	}
	l := NewList(Int(1), Int(2))
	l2, _ := Insert(l, Int(1))
	if l2.Len() != 3 {
		t.Errorf("list insert keeps dupes: %v", l2)
	}
	b := NewBag(Int(1), Int(1))
	b2, _ := Remove(b, Int(1))
	if b2.Len() != 1 {
		t.Errorf("bag remove removes one occurrence: %v", b2)
	}
	s4, _ := Remove(s, Int(9))
	if !Equal(s4, s) {
		t.Errorf("remove of absent element is identity")
	}
	if _, err := Insert(Int(1), Int(2)); err == nil {
		t.Error("insert into scalar must fail")
	}
	if _, err := Remove(Int(1), Int(2)); err == nil {
		t.Error("remove from scalar must fail")
	}
}

func TestUnionIntersectionDifference(t *testing.T) {
	a := NewSet(Int(1), Int(2), Int(3))
	b := NewSet(Int(2), Int(3), Int(4))
	u, err := Union(a, b)
	if err != nil || u.Len() != 4 {
		t.Errorf("union = %v, %v", u, err)
	}
	i, err := Intersection(a, b)
	if err != nil || i.Len() != 2 {
		t.Errorf("intersection = %v, %v", i, err)
	}
	d, err := Difference(a, b)
	if err != nil || d.Len() != 1 || d.Elems[0].I != 1 {
		t.Errorf("difference = %v, %v", d, err)
	}
	// Bag multiplicities.
	ba := NewBag(Int(1), Int(1), Int(2))
	bb := NewBag(Int(1), Int(2), Int(2))
	bi, _ := Intersection(ba, bb)
	if bi.Len() != 2 { // min(2,1) ones + min(1,2) twos
		t.Errorf("bag intersection = %v", bi)
	}
	bd, _ := Difference(ba, bb)
	if bd.Len() != 1 || bd.Elems[0].I != 1 {
		t.Errorf("bag difference = %v", bd)
	}
	bu, _ := Union(ba, bb)
	if bu.Len() != 6 {
		t.Errorf("bag union additive = %v", bu)
	}
	if _, err := Union(a, ba); err == nil {
		t.Error("union across kinds must fail")
	}
	if _, err := Union(Int(1), Int(2)); err == nil {
		t.Error("union of scalars must fail")
	}
	if _, err := Intersection(a, NewList(Int(1))); err == nil {
		t.Error("intersection across kinds must fail")
	}
	if _, err := Difference(a, Int(1)); err == nil {
		t.Error("difference with scalar must fail")
	}
}

func TestInclude(t *testing.T) {
	a := NewSet(Int(1), Int(2))
	b := NewSet(Int(1), Int(2), Int(3))
	if ok, _ := Include(a, b); !ok {
		t.Error("a ⊆ b")
	}
	if ok, _ := Include(b, a); ok {
		t.Error("b ⊄ a")
	}
	if _, err := Include(Int(1), a); err == nil {
		t.Error("include with scalar must fail")
	}
}

func TestChoice(t *testing.T) {
	s := NewSet(Int(5), Int(3))
	c, err := Choice(s)
	if err != nil || c.I != 3 {
		t.Errorf("choice = %v, %v (canonical first)", c, err)
	}
	if _, err := Choice(NewSet()); err == nil {
		t.Error("choice of empty set must fail")
	}
	if _, err := Choice(Int(1)); err == nil {
		t.Error("choice of scalar must fail")
	}
}

func TestAppend(t *testing.T) {
	a := NewList(Int(1))
	b := NewList(Int(2))
	ab, err := Append(a, b)
	if err != nil || ab.Len() != 2 || ab.Elems[0].I != 1 {
		t.Errorf("append = %v, %v", ab, err)
	}
	if _, err := Append(a, NewSet(Int(1))); err == nil {
		t.Error("append of list and set must fail")
	}
}

// --- property-based tests ---

func randValue(r *rand.Rand, depth int) Value {
	if depth <= 0 {
		switch r.Intn(4) {
		case 0:
			return Int(int64(r.Intn(20) - 10))
		case 1:
			return Real(float64(r.Intn(40))/4 - 5)
		case 2:
			return String(string(rune('a' + r.Intn(5))))
		default:
			return Bool(r.Intn(2) == 0)
		}
	}
	switch r.Intn(6) {
	case 0:
		n := r.Intn(4)
		es := make([]Value, n)
		for i := range es {
			es[i] = randValue(r, depth-1)
		}
		return NewSet(es...)
	case 1:
		n := r.Intn(4)
		es := make([]Value, n)
		for i := range es {
			es[i] = randValue(r, depth-1)
		}
		return NewBag(es...)
	case 2:
		n := r.Intn(4)
		es := make([]Value, n)
		for i := range es {
			es[i] = randValue(r, depth-1)
		}
		return NewList(es...)
	default:
		return randValue(r, 0)
	}
}

// Generator for quick tests over sets of small ints.
type intSet struct{ v Value }

func (intSet) Generate(r *rand.Rand, size int) reflect.Value {
	n := r.Intn(6)
	es := make([]Value, n)
	for i := range es {
		es[i] = Int(int64(r.Intn(8)))
	}
	return reflect.ValueOf(intSet{NewSet(es...)})
}

func TestPropUnionCommutative(t *testing.T) {
	f := func(a, b intSet) bool {
		u1, _ := Union(a.v, b.v)
		u2, _ := Union(b.v, a.v)
		return Equal(u1, u2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropUnionAssociative(t *testing.T) {
	f := func(a, b, c intSet) bool {
		ab, _ := Union(a.v, b.v)
		abc1, _ := Union(ab, c.v)
		bc, _ := Union(b.v, c.v)
		abc2, _ := Union(a.v, bc)
		return Equal(abc1, abc2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropIntersectionIdempotent(t *testing.T) {
	f := func(a intSet) bool {
		i, _ := Intersection(a.v, a.v)
		return Equal(i, a.v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropDifferenceDisjoint(t *testing.T) {
	f := func(a, b intSet) bool {
		d, _ := Difference(a.v, b.v)
		i, _ := Intersection(d, b.v)
		return i.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropConvertSetRoundTrip(t *testing.T) {
	f := func(a intSet) bool {
		l, err := Convert(a.v, KList)
		if err != nil {
			return false
		}
		s, err := Convert(l, KSet)
		if err != nil {
			return false
		}
		return Equal(s, a.v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropCompareTotalOrder(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	vals := make([]Value, 60)
	for i := range vals {
		vals[i] = randValue(r, 2)
	}
	// Antisymmetry and reflexivity.
	for _, a := range vals {
		if Compare(a, a) != 0 {
			t.Fatalf("Compare(%v, %v) != 0", a, a)
		}
		for _, b := range vals {
			if Compare(a, b) != -Compare(b, a) {
				t.Fatalf("antisymmetry violated for %v, %v", a, b)
			}
		}
	}
	// Sorting must be stable under the order (transitivity smoke test).
	sort.Slice(vals, func(i, j int) bool { return Compare(vals[i], vals[j]) < 0 })
	for i := 1; i < len(vals); i++ {
		if Compare(vals[i-1], vals[i]) > 0 {
			t.Fatalf("sort order violated at %d", i)
		}
	}
}

func TestPropKeyAgreesWithEqual(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	vals := make([]Value, 80)
	for i := range vals {
		vals[i] = randValue(r, 2)
	}
	for _, a := range vals {
		for _, b := range vals {
			if Equal(a, b) != (a.Key() == b.Key()) {
				t.Fatalf("Key/Equal disagree for %v and %v", a, b)
			}
		}
	}
}

// TestCompareTotalOrderWithNaN: Compare is a total order over values drawn
// with NaN — bare, beside -0.0 and 0.0, and inside collections — checked
// on every triple: reflexive, antisymmetric and transitive in both its
// order and its equality. NaN equals NaN only and sorts after every number.
func TestCompareTotalOrderWithNaN(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	vals := []Value{
		Real(nan), Real(-nan), Real(negZero), Real(0), Int(0), Int(5), Real(5), Real(5.5), Int(-3),
		Real(math.Inf(1)), Real(math.Inf(-1)), String("5"), Null, Bool(true),
		NewList(Real(nan)), NewList(Int(5)), NewList(Real(nan), Int(1)), NewList(Int(5), Int(1)),
	}
	for _, a := range vals {
		for _, b := range vals {
			ab := Compare(a, b)
			if Compare(a, a) != 0 || ab != -Compare(b, a) {
				t.Fatalf("Compare(%v, %v) = %d, Compare(%v, %v) = %d", a, b, ab, b, a, Compare(b, a))
			}
			for _, c := range vals {
				bc, ac := Compare(b, c), Compare(a, c)
				if ab <= 0 && bc <= 0 && ac > 0 || ab == 0 && bc == 0 && ac != 0 {
					t.Fatalf("not transitive: %v ? %v = %d, %v ? %v = %d, %v ? %v = %d", a, b, ab, b, c, bc, a, c, ac)
				}
			}
		}
	}
	if Compare(Real(nan), Real(-nan)) != 0 || Compare(Real(nan), Int(5)) <= 0 || Compare(Real(nan), Real(math.Inf(1))) <= 0 {
		t.Error("NaN must equal NaN and sort after every number")
	}
}

// TestSetCanonicalWithNaN: a set's canonical form does not depend on the
// order its elements arrive in, NaN among them.
func TestSetCanonicalWithNaN(t *testing.T) {
	elems := []Value{Int(5), Real(math.NaN()), Int(6), Real(5), Real(math.NaN()), String("5")}
	want := NewSet(elems...)
	if n := want.Len(); n != 4 {
		t.Fatalf("%v has %d elements, want 4: 5, 6, NaN and '5'", want, n)
	}
	var permute func(k int)
	permute = func(k int) {
		if k == len(elems) {
			if got := NewSet(elems...); got.Key() != want.Key() {
				t.Fatalf("NewSet(%v) = %v, want %v", elems, got, want)
			}
			return
		}
		for i := k; i < len(elems); i++ {
			elems[k], elems[i] = elems[i], elems[k]
			permute(k + 1)
			elems[k], elems[i] = elems[i], elems[k]
		}
	}
	permute(0)
}
