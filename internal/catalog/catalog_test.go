package catalog_test

import (
	"strings"
	"testing"

	"lera/internal/catalog"
	"lera/internal/lera"
	"lera/internal/rules"
	"lera/internal/term"
)

func sample(t *testing.T) *catalog.Catalog {
	t.Helper()
	c := catalog.New()
	if _, err := c.DeclareRelation("FILM", []catalog.Column{
		{Name: "Numf", Type: c.Types.Numeric},
		{Name: "Title", Type: c.Types.Char},
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestDeclareAndResolveRelation(t *testing.T) {
	c := sample(t)
	r, ok := c.Relation("film") // case-insensitive
	if !ok || r.Name != "FILM" {
		t.Fatalf("Relation = %v, %v", r, ok)
	}
	if _, ok := c.Relation("NOPE"); ok {
		t.Error("unknown relation must not resolve")
	}
	// Duplicates fail.
	if _, err := c.DeclareRelation("FILM", nil); err == nil {
		t.Error("duplicate relation must fail")
	}
}

func TestDeclareView(t *testing.T) {
	c := sample(t)
	v := &catalog.View{
		Name:    "Titles",
		Columns: []catalog.Column{{Name: "Title", Type: c.Types.Char}},
		Def: lera.Search([]*term.Term{lera.Rel("FILM")}, lera.TrueQual(),
			[]*term.Term{lera.Attr(1, 2)}),
	}
	if err := c.DeclareView(v); err != nil {
		t.Fatal(err)
	}
	got, ok := c.View("titles")
	if !ok || got != v {
		t.Fatalf("View = %v, %v", got, ok)
	}
	if err := c.DeclareView(v); err == nil {
		t.Error("duplicate view must fail")
	}
	// Name collisions across namespaces fail both ways.
	if err := c.DeclareView(&catalog.View{Name: "FILM"}); err == nil {
		t.Error("view named like a relation must fail")
	}
	if _, err := c.DeclareRelation("Titles", nil); err == nil {
		t.Error("relation named like a view must fail")
	}
}

func TestNames(t *testing.T) {
	c := sample(t)
	if _, err := c.DeclareRelation("ACTOR", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.DeclareView(&catalog.View{Name: "V1"}); err != nil {
		t.Fatal(err)
	}
	rn := c.RelationNames()
	if strings.Join(rn, ",") != "ACTOR,FILM" {
		t.Errorf("RelationNames = %v (must be sorted)", rn)
	}
	vn := c.ViewNames()
	if strings.Join(vn, ",") != "V1" {
		t.Errorf("ViewNames = %v", vn)
	}
}

func TestConstraints(t *testing.T) {
	c := catalog.New()
	rs := rules.MustParse("rule ic: F(x) / ISA(x, Point) --> F(x) AND ABS(x) > 0;")
	c.AddConstraint(rs.Rules["ic"])
	if got := c.Constraints(); len(got) != 1 || got[0].Name != "ic" {
		t.Errorf("Constraints = %v", got)
	}
}

func TestNewHasRegistries(t *testing.T) {
	c := catalog.New()
	if c.Types == nil || c.ADTs == nil {
		t.Fatal("registries must be initialised")
	}
	if _, ok := c.Types.Lookup("INT"); !ok {
		t.Error("built-in types missing")
	}
	if _, ok := c.ADTs.Lookup("MEMBER"); !ok {
		t.Error("built-in ADT functions missing")
	}
}
