package esql

import (
	"os"
	"path/filepath"
	"testing"

	"lera/internal/guard"
)

// FuzzParse: Parse and ParseQuery, which every query sent to the server
// goes through, never panic on any byte string, and an error comes with a
// nil result and is PARSE under guard.CodeOf. Seeds: the paper's figures, examples/*.esql and, under
// testdata/fuzz/FuzzParse, the strings of parser_test.go; plain go test
// replays them all.
//
//	go test -run '^$' -fuzz '^FuzzParse$' -fuzztime 30s ./internal/esql/
func FuzzParse(f *testing.F) {
	for _, src := range []string{Figure2DDL, Figure3Query, Figure4View, Figure4Query, Figure5View, Figure5Query} {
		f.Add(src)
	}
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "*.esql"))
	if err != nil || len(examples) == 0 {
		f.Fatalf("no examples/*.esql to seed from (%v)", err)
	}
	for _, path := range examples {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		if stmts, err := Parse(src); err != nil && (stmts != nil || guard.CodeOf(err) != guard.CodeParse) {
			t.Errorf("Parse: error %v (%s) with %d statements", err, guard.CodeOf(err), len(stmts))
		}
		if q, err := ParseQuery(src); err != nil && (q != nil || guard.CodeOf(err) != guard.CodeParse) {
			t.Errorf("ParseQuery: error %v (%s) with a query", err, guard.CodeOf(err))
		}
	})
}
