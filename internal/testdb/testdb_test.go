package testdb

import (
	"testing"

	"lera/internal/value"
)

func TestCatalogShape(t *testing.T) {
	cat, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"FILM", "APPEARS_IN", "DOMINATE"} {
		if _, ok := cat.Relation(rel); !ok {
			t.Errorf("relation %s missing", rel)
		}
	}
	if !cat.Types.ISAName("Actor", "Person") {
		t.Error("Actor ISA Person")
	}
	// Catalog is rebuilt fresh each call (no shared registries).
	cat2, err := Catalog()
	if err != nil {
		t.Fatal(err)
	}
	if cat2 == cat {
		t.Error("Catalog must return fresh instances")
	}
}

func TestDataConsistency(t *testing.T) {
	inst, err := Data()
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Rows["FILM"]) != 4 || len(inst.Rows["APPEARS_IN"]) != 8 || len(inst.Rows["DOMINATE"]) != 5 {
		t.Fatalf("row counts: %d %d %d", len(inst.Rows["FILM"]), len(inst.Rows["APPEARS_IN"]), len(inst.Rows["DOMINATE"]))
	}
	// Every OID referenced by APPEARS_IN and DOMINATE resolves.
	check := func(rel string, cols ...int) {
		for _, row := range inst.Rows[rel] {
			for _, c := range cols {
				v := row[c]
				if v.K != value.KOID {
					t.Fatalf("%s col %d is %s, not an OID", rel, c, v.K)
				}
				if _, ok := inst.Objects[v.OID()]; !ok {
					t.Fatalf("%s references dangling OID %d", rel, v.OID())
				}
			}
		}
	}
	check("APPEARS_IN", 1)
	check("DOMINATE", 1, 2)
	// Quinn exists and is the expected object.
	quinn := inst.Objects[1]
	if name, _ := quinn.Field("Name"); name.S != "Quinn" {
		t.Errorf("OID 1 = %v", quinn)
	}
	if len(DominatorsOfQuinn()) != 5 {
		t.Errorf("oracle size = %d", len(DominatorsOfQuinn()))
	}
}
