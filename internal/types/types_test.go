package types

import (
	"sort"
	"strings"
	"testing"

	"lera/internal/value"
)

// figure2 builds the paper's Figure 2 type definitions.
func figure2(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	if _, err := r.DeclareEnum("Category", []string{"Comedy", "Adventure", "Science Fiction", "Western"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.DeclareTuple("Point", []Field{{"ABS", r.Real}, {"ORD", r.Real}}, false, nil); err != nil {
		t.Fatal(err)
	}
	firstname := r.Collection(value.KSet, r.Char)
	caricature := r.Collection(value.KList, r.MustLookup("Point"))
	person, err := r.DeclareTuple("Person", []Field{
		{"Name", r.Char}, {"Firstname", firstname}, {"Caricature", caricature},
	}, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.DeclareTuple("Actor", []Field{{"Salary", r.Numeric}}, true, person); err != nil {
		t.Fatal(err)
	}
	if _, err := r.DeclareCollection("SetCategory", value.KSet, r.MustLookup("Category")); err != nil {
		t.Fatal(err)
	}
	pairsElem := &Type{Name: "_pair", Kind: Tuple, Fields: []Field{{"Pros", r.Int}, {"Cons", r.Int}}}
	if _, err := r.DeclareCollection("Pairs", value.KList, pairsElem); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBuiltins(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"INT", "REAL", "NUMERIC", "CHAR", "BOOLEAN", "ANY", "COLLECTION"} {
		if _, ok := r.Lookup(name); !ok {
			t.Errorf("builtin %s missing", name)
		}
	}
	// Case insensitive lookup.
	if _, ok := r.Lookup("int"); !ok {
		t.Error("lookup must be case-insensitive")
	}
}

func TestFigure2Schema(t *testing.T) {
	r := figure2(t)
	actor := r.MustLookup("Actor")
	if !actor.IsObject {
		t.Error("Actor must be an object type")
	}
	// Inherited field lookup through SUBTYPE OF.
	ft, ok := actor.FieldType("Name")
	if !ok || ft != r.Char {
		t.Errorf("Actor.Name type = %v, %v", ft, ok)
	}
	ft, ok = actor.FieldType("Salary")
	if !ok || ft != r.Numeric {
		t.Errorf("Actor.Salary type = %v, %v", ft, ok)
	}
	if _, ok := actor.FieldType("nope"); ok {
		t.Error("unknown field must not resolve")
	}
	fields := actor.AllFields()
	if len(fields) != 4 || fields[0].Name != "Name" || fields[3].Name != "Salary" {
		t.Errorf("AllFields order wrong: %v", fields)
	}
	cat := r.MustLookup("Category")
	if !cat.HasEnumValue("Adventure") {
		t.Error("Adventure must be a Category value")
	}
	if cat.HasEnumValue("Cartoon") {
		t.Error("'Cartoon' is not a Category value (paper Section 6.1)")
	}
	if r.Int.HasEnumValue("x") {
		t.Error("non-enum has no enum values")
	}
}

func TestISA(t *testing.T) {
	r := figure2(t)
	cases := []struct {
		sub, super string
		want       bool
	}{
		{"Actor", "Person", true},
		{"Actor", "Actor", true},
		{"Person", "Actor", false},
		{"INT", "NUMERIC", true},
		{"REAL", "NUMERIC", true},
		{"NUMERIC", "INT", false},
		{"SetCategory", "COLLECTION", true},
		{"Pairs", "COLLECTION", true},
		{"Category", "CHAR", true}, // enums are string-valued
		{"Actor", "ANY", true},
		{"INT", "ANY", true},
		{"Point", "Person", false},
		{"nosuch", "ANY", false},
		{"INT", "nosuch", false},
	}
	for _, c := range cases {
		if got := r.ISAName(c.sub, c.super); got != c.want {
			t.Errorf("ISA(%s, %s) = %v, want %v", c.sub, c.super, got, c.want)
		}
	}
}

func TestISACollectionStructural(t *testing.T) {
	r := figure2(t)
	setActor := r.Collection(value.KSet, r.MustLookup("Actor"))
	setPerson := r.Collection(value.KSet, r.MustLookup("Person"))
	listActor := r.Collection(value.KList, r.MustLookup("Actor"))
	if !r.ISA(setActor, setPerson) {
		t.Error("SET OF Actor ISA SET OF Person (covariant)")
	}
	if r.ISA(setPerson, setActor) {
		t.Error("SET OF Person is not a SET OF Actor")
	}
	if r.ISA(listActor, setActor) {
		t.Error("LIST is not a SET")
	}
	if !r.ISA(listActor, r.CollectionT) {
		t.Error("LIST OF Actor ISA COLLECTION")
	}
	if r.ISA(nil, setActor) || r.ISA(setActor, nil) {
		t.Error("nil types are unrelated")
	}
	// A named SET type matches the anonymous SET OF same-elem.
	sc := r.MustLookup("SetCategory")
	anonSC := r.Collection(value.KSet, r.MustLookup("Category"))
	if !r.ISA(sc, anonSC) || !r.ISA(anonSC, sc) {
		t.Error("named and anonymous SET OF Category should be mutual subtypes")
	}
}

func TestCollectionInterning(t *testing.T) {
	r := NewRegistry()
	a := r.Collection(value.KSet, r.Int)
	b := r.Collection(value.KSet, r.Int)
	if a != b {
		t.Error("anonymous collection types must be interned")
	}
	c := r.Collection(value.KList, r.Int)
	if a == c {
		t.Error("different kinds must differ")
	}
	if got := a.String(); got != "SET OF INT" {
		t.Errorf("anon collection String = %q", got)
	}
	if (*Type)(nil).String() != "<nil>" {
		t.Error("nil type String")
	}
}

func TestDeclareDuplicate(t *testing.T) {
	r := NewRegistry()
	if _, err := r.DeclareEnum("E", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.DeclareEnum("e", []string{"b"}); err == nil {
		t.Error("duplicate declaration (case-insensitive) must fail")
	}
	if _, err := r.DeclareCollection("C", value.KInt, r.Int); err == nil {
		t.Error("non-collection kind must fail")
	}
}

func TestMustLookupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustLookup of unknown type must panic")
		}
	}()
	NewRegistry().MustLookup("nope")
}

func TestTypeOfValue(t *testing.T) {
	r := NewRegistry()
	cases := []struct {
		v    value.Value
		want string
	}{
		{value.Int(1), "INT"},
		{value.Real(1), "REAL"},
		{value.String("x"), "CHAR"},
		{value.Bool(true), "BOOLEAN"},
		{value.NewSet(value.Int(1)), "SET OF INT"},
		{value.NewList(), "LIST OF ANY"},
	}
	for _, c := range cases {
		if got := r.TypeOfValue(c.v).String(); got != c.want {
			t.Errorf("TypeOfValue(%v) = %q, want %q", c.v, got, c.want)
		}
	}
	tv := r.TypeOfValue(value.NewTuple([]string{"a"}, []value.Value{value.Int(1)}))
	if tv.Kind != Tuple || len(tv.Fields) != 1 || tv.Fields[0].Name != "a" {
		t.Errorf("tuple TypeOfValue = %v", tv)
	}
}

func TestNames(t *testing.T) {
	r := figure2(t)
	names := declaredNames(r)
	joined := strings.Join(names, ",")
	for _, want := range []string{"Actor", "Category", "Person", "Point", "SetCategory", "Pairs", "INT"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Names() missing %s: %v", want, names)
		}
	}
	for _, n := range names {
		if strings.HasPrefix(n, "_") {
			t.Errorf("anonymous type leaked into Names(): %s", n)
		}
	}
}

// declaredNames returns all declared (non-anonymous) type names, sorted.
func declaredNames(r *Registry) []string {
	var out []string
	for k, t := range r.byName {
		if strings.HasPrefix(k, "_") || strings.HasPrefix(t.Name, "_") {
			continue
		}
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}
