package engine

// Allocation gates of the fused SEARCH pipeline (docs/PERF.md, "SEARCH
// pipeline: late materialisation"): a pair costs nothing until a row
// survives its stage, and the final stage allocates its output and nothing
// that scales with the join.

import (
	"runtime"
	"testing"
	"unsafe"

	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/testdb"
	"lera/internal/value"
)

// fanoutDB stores L (keys 1..keys, one column) and R (every key fanout
// times, wide columns), serial, with R's join index warm.
func fanoutDB(t *testing.T, keys, fanout, rwidth int) *DB {
	t.Helper()
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	db := New(cat)
	db.Parallelism = 1
	var l, r [][]value.Value
	for k := 1; k <= keys; k++ {
		l = append(l, []value.Value{value.Int(int64(k))})
		for f := 0; f < fanout; f++ {
			row := make([]value.Value, rwidth)
			row[0] = value.Int(int64(k))
			for c := 1; c < rwidth; c++ {
				row[c] = value.Int(int64(k*fanout + f + c))
			}
			r = append(r, row)
		}
	}
	if err := db.Load("L", l); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("R", r); err != nil {
		t.Fatal(err)
	}
	return db
}

// evalAllocBytes returns the bytes one evaluation of q allocates, after a
// warm-up evaluation (index build, lazy set-up), and its row count.
func evalAllocBytes(t *testing.T, db *DB, q *term.Term) (uint64, int) {
	t.Helper()
	if _, err := db.Eval(q); err != nil {
		t.Fatal(err)
	}
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rows := 0
	for i := 0; i < runs; i++ {
		rel, err := db.Eval(q)
		if err != nil {
			t.Fatal(err)
		}
		rows = len(rel.Rows)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs, rows
}

func TestSearchPipelineAllocs(t *testing.T) {
	const keys, rwidth = 500, 6
	join := func(conj *term.Term) *term.Term {
		return lera.Search(
			[]*term.Term{lera.Rel("L"), lera.Rel("R")},
			lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1)), conj),
			[]*term.Term{lera.Attr(1, 1), lera.Attr(2, 2)},
		)
	}

	// (a) Every pair rejected: eight times the pairs, not a byte more (at the
	// parent commit each pair cost a 7-value joined row and a row header).
	rejectAll := join(lera.Cmp("<", lera.Attr(2, 2), term.Num(0)))
	at1, n1 := evalAllocBytes(t, fanoutDB(t, keys, 1, rwidth), rejectAll)
	at8, n8 := evalAllocBytes(t, fanoutDB(t, keys, 8, rwidth), rejectAll)
	if n1 != 0 || n8 != 0 {
		t.Fatalf("reject-all join returned %d and %d rows", n1, n8)
	}
	if at8 > at1+1024 {
		t.Errorf("rejected pairs allocate: %d B at fan-out 1, %d B at fan-out 8", at1, at8)
	}

	// (b) Every pair kept: the output rows, plus per output row a header in
	// a slice grown by appending (measured ~90 B) and its share of the dedup
	// set's hash store and slot table (8 B + 8 to 16 B) — measured 112 B a
	// row in all. Nothing of the joined width (7 values a pair before the
	// fused pipeline), and no object per row: the bucket map the set used to
	// be cost ~195 B a row (282 B in all), which fails this limit.
	const fanout, projs = 8, 2
	keepAll := join(lera.Cmp(">", lera.Attr(2, 2), term.Num(0)))
	got, rows := evalAllocBytes(t, fanoutDB(t, keys, fanout, rwidth), keepAll)
	if rows != keys*fanout {
		t.Fatalf("keep-all join returned %d rows, want %d", rows, keys*fanout)
	}
	const perRowOverhead, slack = 128, 64 << 10
	limit := uint64(rows)*(projs*uint64(unsafe.Sizeof(value.Value{}))+perRowOverhead) + slack
	t.Logf("final-stage join: %d B for %d rows (limit %d, joined rows alone would be %d)",
		got, rows, limit, uint64(rows)*(1+rwidth)*uint64(unsafe.Sizeof(value.Value{})))
	if got > limit {
		t.Errorf("final-stage join allocated %d B for %d rows of %d values, limit %d", got, rows, projs, limit)
	}
}

// TestJoinIndexAllocs: a join index is its map, one ordinal per row and
// one 16-byte group per distinct key — no per-key or per-row objects. At
// the parent commit a distinct key cost four objects (key copy, group,
// bucket slice, row-header slice) and six at fan-out 3; exec_spill builds
// a bounded index per partition per query, so objects per key are its
// allocs_per_query.
func TestJoinIndexAllocs(t *testing.T) {
	const parentPerKey = 4
	for _, fanout := range []int{1, 3} {
		const keys = 1000
		var rows [][]value.Value
		for f := 0; f < fanout; f++ {
			for k := 0; k < keys; k++ {
				rows = append(rows, []value.Value{value.Int(int64(k)), value.Int(int64(f))})
			}
		}
		var ix *joinIndex
		allocs := testing.AllocsPerRun(10, func() { ix = buildJoinIndex(rows, []int{0}) })
		if len(ix.groups) != keys {
			t.Fatalf("fan-out %d: %d groups, want %d", fanout, len(ix.groups), keys)
		}
		t.Logf("fan-out %d: %.0f objects for %d distinct keys (parent: %d per key)", fanout, allocs, keys, parentPerKey)
		if allocs > parentPerKey*keys {
			t.Errorf("fan-out %d: %.0f objects for %d keys — more per key than the parent's %d", fanout, allocs, keys, parentPerKey)
		}
		// Stronger, and what the layout promises: nothing per key at all
		// (the map's and the group slice's growth steps only).
		if allocs > 64 {
			t.Errorf("fan-out %d: %.0f objects for %d keys — the index allocates per key again", fanout, allocs, keys)
		}
	}
}

// TestNestTupleAllocs: a multi-column NEST names its tuples' fields once per
// operator and every tuple shares the names, so a row costs the slice of its
// tuple's values and nothing else per row. At the parent commit each row also
// cost a fresh name slice, one Sprintf per field and NewTuple's two copies:
// 7.64 objects a row here, against 2.64 now (the rest is per group: its key,
// its element slice's growth, its set and output row).
func TestNestTupleAllocs(t *testing.T) {
	const keys, fanout, parentPerRow = 500, 8, 7.64
	db := fanoutDB(t, keys, fanout, 3)
	q := lera.Nest(lera.Rel("R"), []int{2, 3}, "N")
	var rel *Relation
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if rel, err = db.Eval(q); err != nil {
			t.Fatal(err)
		}
	})
	if len(rel.Rows) != keys || rel.Rows[0][1].Len() != fanout {
		t.Fatalf("NEST returned %d groups of %d, want %d of %d", len(rel.Rows), rel.Rows[0][1].Len(), keys, fanout)
	}
	perRow := allocs / (keys * fanout)
	t.Logf("two-column NEST: %.0f objects for %d rows, %.2f a row (parent %.2f)", allocs, keys*fanout, perRow, parentPerRow)
	if perRow > 3 {
		t.Errorf("two-column NEST allocates %.2f objects a row, want at most 3 (parent %.2f)", perRow, parentPerRow)
	}
	a, b := rel.Rows[0][1].Elems[0].Names(), rel.Rows[1][1].Elems[0].Names()
	if len(a) != 2 || a[0] != "a2" || a[1] != "a3" || &a[0] != &b[0] {
		t.Errorf("NEST tuples of two groups name their fields %q and %q, want one shared [a2 a3]", a, b)
	}
}
