package engine_test

// The fixpoint strategies through the whole pipeline: a session's query,
// rewritten or not, gives the same answer whichever strategy evaluates
// its FIX. The strategy is a test-only switch (SetFixMode,
// export_test.go), so these tests live beside the engine and drive it
// through internal/core.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"lera/internal/core"
	"lera/internal/engine"
	"lera/internal/testdb"
	"lera/internal/value"
)

// The raw (unrewritten) engine agrees with the rewriter across the films
// workload even when fixpoint evaluation modes differ.
func TestRewriteAgreesAcrossFixModes(t *testing.T) {
	s := core.NewSession()
	if err := s.LoadFilms(); err != nil {
		t.Fatal(err)
	}
	engine.SetFixMode(s.DB, engine.Naive)
	res, err := s.Query("SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'Quinn'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(testdb.DominatorsOfQuinn()) {
		t.Errorf("naive rows = %d", len(res.Rows))
	}
}

// TestPropFixModesAgreeViaESQL: naive and semi-naive fixpoint evaluation
// agree on the recursive view for random graphs, with and without the
// rewriter.
func TestPropFixModesAgreeViaESQL(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		var links [][]value.Value
		n := 12 + r.Intn(10)
		for i := 0; i < 2*n; i++ {
			links = append(links, []value.Value{
				value.Int(int64(r.Intn(n) + 1)),
				value.Int(int64(r.Intn(n) + 1)),
			})
		}
		q := fmt.Sprintf("SELECT Src FROM REACH WHERE Dst = %d", r.Intn(n)+1)
		var results []string
		for _, mode := range []engine.FixMode{engine.SemiNaive, engine.Naive} {
			for _, rewriteOn := range []bool{true, false} {
				s := core.NewSession()
				s.MustExec(`
TABLE LINKS (Src : INT, Dst : INT);
CREATE VIEW REACH (Src, Dst) AS (
  SELECT Src, Dst FROM LINKS
  UNION
  SELECT R1.Src, R2.Dst FROM REACH R1, REACH R2 WHERE R1.Dst = R2.Src );
`)
				if err := s.DB.Load("LINKS", links); err != nil {
					t.Fatal(err)
				}
				engine.SetFixMode(s.DB, mode)
				s.Rewrite = rewriteOn
				res, err := s.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				results = append(results, distinctRows(res.Rows))
			}
		}
		for i := 1; i < len(results); i++ {
			if results[i] != results[0] {
				t.Fatalf("trial %d: configuration %d disagrees:\n%s\nvs\n%s", trial, i, results[i], results[0])
			}
		}
	}
}

// distinctRows renders the set of rows: each row's value keys, sorted,
// once each.
func distinctRows(rows [][]value.Value) string {
	seen := map[string]bool{}
	var keys []string
	for _, row := range rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.Key()
		}
		if k := strings.Join(parts, ","); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}
