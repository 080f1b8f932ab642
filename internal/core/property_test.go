package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"lera/internal/value"
)

// TestPropRewriteSoundness generates random ESQL queries over a synthetic
// schema (with a view stack, a union view, a nested view and a recursive
// view available as FROM targets) and checks that the rewritten program
// returns exactly the rows of the unrewritten one. This is the global
// soundness property: every rule in the default base preserves query
// semantics.
func TestPropRewriteSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(20260706))
	const queriesPerSchema = 40

	build := func(opts ...Option) *Session {
		s := NewSession(opts...)
		s.MustExec(`
TYPE Colour ENUMERATION OF ('red', 'green', 'blue');
TYPE SetColour SET OF Colour;
TABLE ITEMS (Id : INT, Grp : INT, Price : NUMERIC, Tags : SetColour);
TABLE LINKS (Src : INT, Dst : INT);
CREATE VIEW CHEAP (Id, Grp, Price, Tags) AS SELECT Id, Grp, Price, Tags FROM ITEMS WHERE Price < 70;
CREATE VIEW CHEAP2 (Id, Grp) AS SELECT Id, Grp FROM CHEAP WHERE Id > 2;
CREATE VIEW EITHER (Id, Grp) AS SELECT Id, Grp FROM ITEMS UNION SELECT Dst, Src FROM LINKS;
CREATE VIEW GROUPED (Grp, Ids) AS SELECT Grp, MakeSet(Id) FROM ITEMS GROUP BY Grp;
CREATE VIEW REACH (Src, Dst) AS (
  SELECT Src, Dst FROM LINKS
  UNION
  SELECT R1.Src, R2.Dst FROM REACH R1, REACH R2 WHERE R1.Dst = R2.Src );
`)
		colours := []string{"red", "green", "blue"}
		var items [][]value.Value
		for i := 1; i <= 40; i++ {
			items = append(items, []value.Value{
				value.Int(int64(i)),
				value.Int(int64(i % 5)),
				value.Int(int64((i * 13) % 100)),
				value.NewSet(value.String(colours[i%3]), value.String(colours[(i+1)%3])),
			})
		}
		if err := s.DB.Load("ITEMS", items); err != nil {
			t.Fatal(err)
		}
		var links [][]value.Value
		for i := 0; i < 50; i++ {
			links = append(links, []value.Value{
				value.Int(int64(r.Intn(20) + 1)),
				value.Int(int64(r.Intn(20) + 1)),
			})
		}
		if err := s.DB.Load("LINKS", links); err != nil {
			t.Fatal(err)
		}
		return s
	}

	on := build()
	off := build()
	// The second build consumes different random links; reuse on's data.
	off.DB = on.DB
	off.Rewrite = false

	randQuery := func() string {
		type target struct {
			name string
			cols []string
		}
		targets := []target{
			{"ITEMS", []string{"Id", "Grp", "Price"}},
			{"CHEAP", []string{"Id", "Grp", "Price"}},
			{"CHEAP2", []string{"Id", "Grp"}},
			{"EITHER", []string{"Id", "Grp"}},
			{"REACH", []string{"Src", "Dst"}},
		}
		tg := targets[r.Intn(len(targets))]
		col := func() string { return tg.cols[r.Intn(len(tg.cols))] }
		var preds []string
		for i := 0; i <= r.Intn(3); i++ {
			switch r.Intn(6) {
			case 0:
				preds = append(preds, fmt.Sprintf("%s = %d", col(), r.Intn(40)+1))
			case 1:
				preds = append(preds, fmt.Sprintf("%s < %d", col(), r.Intn(80)))
			case 2:
				preds = append(preds, fmt.Sprintf("%s > %d", col(), r.Intn(40)))
			case 3:
				preds = append(preds, fmt.Sprintf("%d + %d > %d", r.Intn(5), r.Intn(5), r.Intn(12)))
			case 4:
				if tg.name == "ITEMS" || tg.name == "CHEAP" {
					preds = append(preds, fmt.Sprintf("MEMBER('%s', Tags)", []string{"red", "green", "blue", "mauve"}[r.Intn(4)]))
				} else {
					preds = append(preds, fmt.Sprintf("%s <> %d", col(), r.Intn(40)))
				}
			default:
				preds = append(preds, fmt.Sprintf("%s <= %s", col(), col()))
			}
		}
		proj := col()
		return fmt.Sprintf("SELECT %s FROM %s WHERE %s", proj, tg.name, strings.Join(preds, " AND "))
	}

	for i := 0; i < queriesPerSchema; i++ {
		q := randQuery()
		if testing.Verbose() {
			t.Logf("q%d: %s", i, q)
		}
		r1, err := on.Query(q)
		if err != nil {
			t.Fatalf("rewritten %q: %v", q, err)
		}
		r2, err := off.Query(q)
		if err != nil {
			t.Fatalf("raw %q: %v", q, err)
		}
		if got, want := canon(r1.Rows), canon(r2.Rows); got != want {
			t.Fatalf("soundness violated for %q:\nrewritten %s\nraw       %s\nprogram: %s",
				q, got, want, r1.Rewritten)
		}
	}
}

// canon is a bag of rows as one comparable string: each row's value keys
// joined, the rows sorted.
func canon(rows [][]value.Value) string {
	var keys []string
	for _, row := range rows {
		var parts []string
		for _, v := range row {
			parts = append(parts, v.Key())
		}
		keys = append(keys, strings.Join(parts, ","))
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}
