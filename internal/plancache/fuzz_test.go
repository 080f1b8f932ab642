package plancache

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lera/internal/esql"
	"lera/internal/term"
	"lera/internal/testdb"
	"lera/internal/translate"
)

// FuzzTemplatize: whatever ESQL text parses and translates over the
// Figure 2 catalog, templatizing the translated term and substituting its
// binding vector back gives the translated term again, and the template
// holds exactly one PARAM placeholder per binding. Seeds: every SELECT
// line of the repository's testdata corpora; plain go test replays them
// and the inputs under testdata/fuzz/FuzzTemplatize.
//
//	go test -run '^$' -fuzz FuzzTemplatize -fuzztime 30s ./internal/plancache/
func FuzzTemplatize(f *testing.F) {
	corpora, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.*sql"))
	if err != nil || len(corpora) == 0 {
		f.Fatalf("no testdata corpora to seed from (%v)", err)
	}
	for _, path := range corpora {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.ToUpper(line), "SELECT") {
				f.Add(line)
			}
		}
	}
	cat, err := testdb.Catalog()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sel, err := esql.ParseQuery(src)
		if err != nil {
			return
		}
		q, err := translate.Select(cat, sel)
		if err != nil {
			return
		}
		tmpl, params := Templatize(q)
		seen := make([]bool, len(params))
		placeholders := 0
		term.Walk(tmpl, func(s *term.Term, _ term.Path) bool {
			if i, ok := ParamIndex(s); ok {
				placeholders++
				if i < 1 || i > len(params) || seen[i-1] {
					t.Fatalf("placeholder $%d out of range or repeated (%d bindings) in %s", i, len(params), tmpl)
				}
				seen[i-1] = true
			}
			return true
		})
		if placeholders != len(params) {
			t.Fatalf("%d placeholders for %d bindings in %s", placeholders, len(params), tmpl)
		}
		back, err := Substitute(tmpl, params)
		if err != nil {
			t.Fatalf("Substitute: %v", err)
		}
		if !term.Equal(back, q) {
			t.Fatalf("round trip broke:\n  q    = %s\n  tmpl = %s\n  back = %s", q, tmpl, back)
		}
	})
}
