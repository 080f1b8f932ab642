package engine

// Gates of the sliced final scan (docs/PERF.md "A projection of a stored
// row is the stored row"): a one-relation SEARCH whose projection is a run
// of columns hands out slices of the stored rows. Those slices must never
// let a caller's append reach the stored relation, must survive a later
// INSERT unchanged, and must cost no cells; which projections slice is
// pinned here too.

import (
	"context"
	"strings"
	"testing"
	"unsafe"

	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/value"
)

// TestColumnRun pins which final stages slice: a one-relation SEARCH whose
// projections are its columns [lo, hi) in order, each as it is.
func TestColumnRun(t *testing.T) {
	db := filmsN(t, 10)
	film := []*term.Term{lera.Rel("FILM")}
	numf, title, cats := lera.Attr(1, 1), lera.Attr(1, 2), lera.Attr(1, 3)
	for _, c := range []struct {
		name   string
		rels   []*term.Term
		projs  []*term.Term
		lo, hi int // hi 0: copies
	}{
		{"Numf, Title", film, []*term.Term{numf, title}, 0, 2},
		{"Title, Categories", film, []*term.Term{title, cats}, 1, 3},
		{"Categories", film, []*term.Term{cats}, 2, 3},
		{"every column", film, []*term.Term{numf, title, cats}, 0, 3},
		{"reordered", film, []*term.Term{title, numf}, 0, 0},
		{"a column skipped", film, []*term.Term{numf, cats}, 0, 0},
		{"a column twice", film, []*term.Term{numf, numf}, 0, 0},
		{"computed", film, []*term.Term{numf, lera.Call("+", numf, term.Num(1))}, 0, 0},
		{"a constant", film, []*term.Term{term.Num(1)}, 0, 0},
		{"no projection", film, nil, 0, 0},
		{"a join", []*term.Term{lera.Rel("FILM"), lera.Rel("FILM")}, []*term.Term{numf, title}, 0, 0},
	} {
		q := lera.Search(c.rels, lera.TrueQual(), c.projs)
		rels, _, err := db.searchInputs(q, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		st := db.compileSearch(q, rels).stages[len(rels)-1]
		if st.sliced != (c.hi > 0) || st.lo != c.lo || st.hi != c.hi {
			t.Errorf("%s: sliced %v [%d, %d), want %v [%d, %d)", c.name, st.sliced, st.lo, st.hi, c.hi > 0, c.lo, c.hi)
		}
	}
}

// relText renders rows, cells and all, for comparing them after the fact.
func relText(rows [][]value.Value) string {
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(rowKey(r))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestSlicedRowsDoNotAlias: every row a sliced final scan answers with has
// no capacity beyond its length, so growing it copies. Appending to the
// answer's rows and overwriting the cells of what the appends returned
// leaves the stored relation and a second evaluation's answer as they were,
// and an INSERT after the query leaves the earlier answer as it was — at
// pool sizes 1 and 2, through the index and by a scan, with the answer
// deduplicated or not, and under a memory grant that spills.
func TestSlicedRowsDoNotAlias(t *testing.T) {
	const n = 5000
	numf, title, cats := lera.Attr(1, 1), lera.Attr(1, 2), lera.Attr(1, 3)
	film := []*term.Term{lera.Rel("FILM")}
	queries := map[string]*term.Term{
		"index":  lera.Search(film, lera.Ands(lera.Cmp(">", numf, term.Num(5))), []*term.Term{numf, title}),
		"scan":   lera.Search(film, lera.Ands(lera.Cmp("<>", title, term.Str("none"))), []*term.Term{title, cats}),
		"dedup":  lera.Search(film, lera.Ands(lera.Cmp(">", numf, term.Num(5))), []*term.Term{cats}),
		"all":    lera.Search(film, lera.TrueQual(), []*term.Term{numf, title, cats}),
		"middle": lera.Search(film, lera.TrueQual(), []*term.Term{title}),
	}
	for _, cfg := range []runCfg{
		{par: 1},
		{par: 2},
		{par: 2, lim: guard.Limits{MaxMemBytes: 1}, spillDir: t.TempDir()},
	} {
		for name, q := range queries {
			db := filmsN(t, n)
			db.Parallelism, db.Limits, db.SpillDir = cfg.par, cfg.lim, cfg.spillDir
			storedBefore := relText(stored(db, "FILM").Rows)
			eval := func() [][]value.Value {
				rel, err := db.EvalCtx(context.Background(), q)
				if err != nil {
					t.Fatalf("%s (%s): %v", name, cfg, err)
				}
				return rel.Rows
			}
			rows := eval()
			answer := relText(rows)
			if len(rows) < 3 {
				t.Fatalf("%s (%s): %d rows", name, cfg, len(rows))
			}
			for i, row := range rows {
				if cap(row) != len(row) {
					t.Fatalf("%s (%s): row %d has %d cells and capacity %d", name, cfg, i, len(row), cap(row))
				}
				grown := append(row, value.Int(-1))
				for j := range grown {
					grown[j] = value.String("overwritten")
				}
			}
			if got := relText(rows); got != answer {
				t.Errorf("%s (%s): the answer changed under appends to its rows", name, cfg)
			}
			if got := relText(stored(db, "FILM").Rows); got != storedBefore {
				t.Errorf("%s (%s): the stored relation changed under appends to the answer's rows", name, cfg)
			}
			if got := relText(eval()); got != answer {
				t.Errorf("%s (%s): a second evaluation answers differently", name, cfg)
			}
			if err := db.Insert("FILM", []value.Value{value.Int(n + 1), value.String("late"), value.NewSet(value.String("Comedy"))}); err != nil {
				t.Fatal(err)
			}
			if got := relText(rows); got != answer {
				t.Errorf("%s (%s): an INSERT changed the earlier answer", name, cfg)
			}
		}
	}
}

// TestSlicedScanAllocs: a final scan that projects two contiguous columns
// of 2 000 stored rows allocates, beyond the one header slice it hands its
// rows over in (24 B a row), at most 8 B a row — its survivor ordinals,
// and nothing of the projected width — through the index and by a scan.
// The same scan copying its cells into arena rows (forceCopy) is over the
// limit, so the gate can fail.
func TestSlicedScanAllocs(t *testing.T) {
	const n, perRow = 2000, 8
	header := uint64(unsafe.Sizeof([]value.Value{}))
	numf, title := lera.Attr(1, 1), lera.Attr(1, 2)
	for name, qual := range map[string]*term.Term{
		"index": lera.Ands(lera.Cmp(">", numf, term.Num(0))),
		"scan":  lera.Ands(lera.Cmp("<>", title, term.Str("none"))),
	} {
		q := lera.Search([]*term.Term{lera.Rel("FILM")}, qual, []*term.Term{numf, title})
		got, rows := evalAllocBytes(t, filmsN(t, n), q)
		if rows != n {
			t.Fatalf("%s: %d rows, want %d", name, rows, n)
		}
		limit := uint64(rows) * (header + perRow)
		forceCopy = true
		copied, _ := evalAllocBytes(t, filmsN(t, n), q)
		forceCopy = false
		t.Logf("%s: %d B for %d rows (limit %d); copying the cells: %d B", name, got, rows, limit, copied)
		if got > limit {
			t.Errorf("%s: a sliced scan of %d rows allocated %d B, limit %d: %.1f B a row beyond the header", name, rows, got, limit, float64(got)/float64(rows)-float64(header))
		}
		if copied <= limit {
			t.Errorf("%s: the copying scan allocated %d B, within the limit %d: the gate cannot fail", name, copied, limit)
		}
	}
}
