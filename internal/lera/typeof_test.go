package lera

import (
	"testing"

	"lera/internal/term"
	"lera/internal/testdb"
	"lera/internal/types"
)

// TestTypeOfExpressions covers the §3.3 typing rules: attribute
// references, VALUE dereference, PROJECT with collection broadcast,
// attribute-as-function CALLs, comparisons, connectives, arithmetic and
// the built-in ADT function result types.
func TestTypeOfExpressions(t *testing.T) {
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	filmS, err := Infer(Rel("FILM"), cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	appearsS, err := Infer(Rel("APPEARS_IN"), cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	rels := []*Schema{appearsS, filmS}
	nested, err := Infer(Nest(Rel("APPEARS_IN"), []int{2}, "Actors"), cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	nrels := []*Schema{nested}

	cases := []struct {
		name string
		e    *term.Term
		rels []*Schema
		want string
	}{
		{"attr", Attr(2, 3), rels, "SetCategory"},
		{"const int", term.Num(5), rels, "INT"},
		{"const string", term.Str("x"), rels, "CHAR"},
		{"value deref", term.F(EValue, Attr(1, 2)), rels, "Actor"},
		{"project field", term.F(EProject, term.F(EValue, Attr(1, 2)), term.Str("Salary")), rels, "NUMERIC"},
		{"project missing field", term.F(EProject, term.F(EValue, Attr(1, 2)), term.Str("Nope")), rels, "ANY"},
		{"project broadcast", term.F(EProject, Attr(1, 2), term.Str("Salary")), nrels, "SET OF NUMERIC"},
		{"call attr-as-function", Call("Name", Attr(1, 2)), rels, "CHAR"},
		{"call broadcast", Call("Salary", Attr(1, 2)), nrels, "SET OF NUMERIC"},
		{"call unknown", Call("Frobnicate", Attr(1, 1)), rels, "ANY"},
		{"comparison", Cmp("=", Attr(1, 1), term.Num(1)), rels, "BOOLEAN"},
		{"ands", Ands(Cmp("=", Attr(1, 1), term.Num(1))), rels, "BOOLEAN"},
		{"not", Not(term.TrueT()), rels, "BOOLEAN"},
		{"arith", term.F("+", Attr(1, 1), term.Num(1)), rels, "NUMERIC"},
		{"member", term.F("MEMBER", term.Str("x"), Attr(2, 3)), rels, "BOOLEAN"},
		{"count", term.F("COUNT", Attr(2, 3)), rels, "INT"},
		{"concat", term.F("CONCAT", term.Str("a"), term.Str("b")), rels, "CHAR"},
		{"union preserves", term.F("UNION", Attr(2, 3), Attr(2, 3)), rels, "SetCategory"},
		{"choice element", term.F("CHOICE", Attr(2, 3)), rels, "Category"},
		{"makeset", term.F("MAKESET", Attr(1, 1)), rels, "SET OF NUMERIC"},
		{"set literal", term.Set(term.Str("a")), rels, "SET OF CHAR"},
		{"var is any", term.V("x"), rels, "ANY"},
	}
	for _, c := range cases {
		got, err := TypeOf(c.e, c.rels, cat)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if got.String() != c.want {
			t.Errorf("%s: TypeOf = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestTypeOfErrors(t *testing.T) {
	cat, _ := testdb.Catalog()
	filmS, _ := Infer(Rel("FILM"), cat, nil)
	rels := []*Schema{filmS}
	bad := []*term.Term{
		Attr(2, 1),  // relation index out of range
		Attr(1, 99), // column index out of range
		term.F(EValue, Attr(9, 9)),
		term.F(EProject, Attr(9, 9), term.Str("x")),
	}
	for _, e := range bad {
		if _, err := TypeOf(e, rels, cat); err == nil {
			t.Errorf("TypeOf(%s) should fail", e)
		}
	}
}

// Inference through FIX refines the provisional ANY column types from the
// seed (checked here against a non-trivial expression shape).
func TestInferSchemaStrings(t *testing.T) {
	cat, _ := testdb.Catalog()
	s, err := Infer(Rel("FILM"), cat, nil)
	if err != nil {
		t.Fatal(err)
	}
	str := s.String()
	if str != "(Numf:NUMERIC, Title:CHAR, Categories:SetCategory)" {
		t.Errorf("Schema.String = %q", str)
	}
	if s.Cols[2].Type.Kind != types.Collection {
		t.Errorf("Categories kind = %v", s.Cols[2].Type.Kind)
	}
}
