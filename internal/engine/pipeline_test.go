package engine

// Allocation gates of the fused SEARCH pipeline (docs/PERF.md, "SEARCH
// pipeline: late materialisation"): a pair costs nothing until a row
// survives its stage, and the final stage allocates its output and nothing
// that scales with the join.

import (
	"context"
	"math"
	"runtime"
	"testing"
	"unsafe"

	"lera/internal/guard"
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
// TotalAlloc is process-wide, so it also counts what the runtime allocates
// for itself: under CPU contention a GC cycle that starts in the window can
// start an OS thread, whose m, g0 and signal g (1152 and 448 B objects; a
// failing run's MemStats.BySize diff showed 5 504 B of them and no engine
// object) land in the count. Each of several windows therefore starts
// after a forced GC, and the smallest is the evaluation's: interference
// only ever adds bytes.
func evalAllocBytes(t *testing.T, db *DB, q *term.Term) (uint64, int) {
	t.Helper()
	if _, err := db.EvalCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	const runs, windows = 4, 3
	least, rows := uint64(math.MaxUint64), 0
	for range windows {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			rel, err := db.EvalCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			rows = len(rel.Rows)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least / runs, rows
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

	// (b) Every pair kept: the output rows, plus per output row its header
	// in the one exactly sized slice the stage hands over (24 B) and its
	// share of the dedup set's hash store and slot table (8 B + 8 to 16 B)
	// — measured 46 B a row over the projected cells. Nothing of the joined
	// width (7 values a pair before the fused pipeline), no object per row,
	// and no header slice grown by appending: that cost ~90 B a row (109 B
	// over the cells in all), and the bucket map the set used to be ~195 B,
	// each of which fails this limit.
	const fanout, projs = 8, 2
	keepAll := join(lera.Cmp(">", lera.Attr(2, 2), term.Num(0)))
	got, rows := evalAllocBytes(t, fanoutDB(t, keys, fanout, rwidth), keepAll)
	if rows != keys*fanout {
		t.Fatalf("keep-all join returned %d rows, want %d", rows, keys*fanout)
	}
	const perRowOverhead, slack = 64, 64 << 10
	limit := uint64(rows)*(projs*uint64(unsafe.Sizeof(value.Value{}))+perRowOverhead) + slack
	t.Logf("final-stage join: %d B for %d rows (limit %d, joined rows alone would be %d)",
		got, rows, limit, uint64(rows)*(1+rwidth)*uint64(unsafe.Sizeof(value.Value{})))
	if got > limit {
		t.Errorf("final-stage join allocated %d B for %d rows of %d values, limit %d", got, rows, projs, limit)
	}

	// (c) No header slice grown by appending, in any producer.
	checkStageOutputsExact(t)

	// (d) A reject-all conjunct of OR, NOT ISEMPTY, MEMBER and a CALL
	// field costs no more per pair than (a)'s comparison: its calls take
	// their arguments on the worker's stack. Each pair evaluates all of it.
	at1, n1 = evalAllocBytes(t, adtFanoutDB(t, keys, 1), join(adtRejectAll(2)))
	at8, n8 = evalAllocBytes(t, adtFanoutDB(t, keys, 8), join(adtRejectAll(2)))
	if n1 != 0 || n8 != 0 {
		t.Fatalf("reject-all ADT join returned %d and %d rows", n1, n8)
	}
	t.Logf("reject-all ADT join: %d B at fan-out 1, %d B at fan-out 8", at1, at8)
	if at8 > at1+1024 {
		t.Errorf("rejected pairs allocate in ADT calls: %d B at fan-out 1, %d B at fan-out 8", at1, at8)
	}

	// (e) The same qualification in FILTER and JOIN, each evaluated as the
	// SEARCH it is (the JOIN's stage 2 pre-filters R with it): 1 000 rows
	// allocate no more than 10.
	for _, op := range []struct {
		name string
		q    *term.Term
	}{
		{"FILTER", lera.Filter(lera.Rel("R"), adtRejectAll(1))},
		{"JOIN", lera.Join(lera.Rel("L"), lera.Rel("R"), adtRejectAll(2))},
	} {
		at10, n10 := evalAllocBytes(t, adtFanoutDB(t, 1, 10), op.q)
		at1000, n1000 := evalAllocBytes(t, adtFanoutDB(t, 1, 1000), op.q)
		if n10 != 0 || n1000 != 0 {
			t.Fatalf("reject-all %s returned %d and %d rows", op.name, n10, n1000)
		}
		t.Logf("reject-all %s: %d B over 10 rows, %d B over 1 000", op.name, at10, at1000)
		if at1000 > at10+1024 {
			t.Errorf("rejected %s rows allocate: %d B over 10 rows, %d B over 1 000", op.name, at10, at1000)
		}
	}

	// (f) Read through the sorted column index (docs/PERF.md "Index access
	// paths"), a point query and a narrow range over 2 000 stored rows
	// allocate no more than over 20: nothing per row of the relation. The
	// scan they replace tested every row.
	for _, q := range []struct {
		name  string
		qual  *term.Term
		nrows int
	}{
		{"point", lera.Ands(lera.Cmp("=", lera.Attr(1, 1), term.Num(14))), 1},
		{"narrow range", lera.Ands(lera.Cmp(">", lera.Attr(1, 1), term.Num(10)), lera.Cmp("<=", lera.Attr(1, 1), term.Num(14))), 4},
	} {
		search := lera.Search([]*term.Term{lera.Rel("L")}, q.qual, []*term.Term{lera.Attr(1, 1)})
		var allocs [2]float64
		for i, n := range []int{20, 2000} {
			db := fanoutDB(t, n, 1, 1)
			if rel := evalOK(t, db, search); len(rel.Rows) != q.nrows || len(db.idx.sorted) != 1 {
				t.Fatalf("%s over %d rows: %d rows, %d sorted indexes", q.name, n, len(rel.Rows), len(db.idx.sorted))
			}
			allocs[i] = testing.AllocsPerRun(50, func() { evalOK(t, db, search) })
		}
		t.Logf("indexed %s: %.0f allocations over 20 rows, %.0f over 2 000", q.name, allocs[0], allocs[1])
		if allocs[1] > allocs[0] {
			t.Errorf("indexed %s allocates %.0f times over 2 000 rows, %.0f over 20", q.name, allocs[1], allocs[0])
		}
	}
}

// adtFanoutDB is fanoutDB whose R rows are (key, int, SET('t'),
// TUPLE(tag: 't')).
func adtFanoutDB(t *testing.T, keys, fanout int) *DB {
	db := fanoutDB(t, keys, 1, 1)
	set, tup := value.NewSet(value.String("t")), value.NewTuple([]string{"tag"}, []value.Value{value.String("t")})
	var r [][]value.Value
	for k := 1; k <= keys; k++ {
		for f := 0; f < fanout; f++ {
			r = append(r, []value.Value{value.Int(int64(k)), value.Int(int64(k*fanout + f)), set, tup})
		}
	}
	if err := db.Load("R", r); err != nil {
		t.Fatal(err)
	}
	return db
}

// adtRejectAll is false on every row of relation i of adtFanoutDB, after
// evaluating each of its parts: i.2 < 0 OR NOT (NOT ISEMPTY(i.3) AND
// MEMBER(tag(i.4), i.3)).
func adtRejectAll(i int) *term.Term {
	return lera.Ors(
		lera.Cmp("<", lera.Attr(i, 2), term.Num(0)),
		lera.Not(lera.Ands(
			lera.Not(term.F("ISEMPTY", lera.Attr(i, 3))),
			term.F("MEMBER", lera.Call("tag", lera.Attr(i, 4)), lera.Attr(i, 3)),
		)),
	)
}

// checkStageOutputsExact: every SEARCH producer hands its stage's output
// over in one slice of exactly the stage's rows (len == cap), built after
// its last pair — the scan (final, and passing stored rows on), the
// cartesian step (a non-final stage: joined rows, or after a zero-width
// prefix the relation's rows themselves), the join driven from
// the prefix and from the relation, the grace join under a 1-byte grant,
// and a zero-width projection, whose rows are nil.
func checkStageOutputsExact(t *testing.T) {
	t.Helper()
	const keys, fanout, rwidth = 60, 3, 4
	db := fanoutDB(t, keys, fanout, rwidth)
	db.g = &evalGuard{ctx: context.Background(), rows: &guard.Budget{}}
	defer func() { db.g = nil }()
	l, r := stored(db, "L"), stored(db, "R")
	eq := lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1))
	some := lera.Cmp(">", lera.Attr(1, 1), term.Num(keys/2))
	projs := []*term.Term{lera.Attr(1, 1), lera.Attr(2, 2)}
	// stage compiles q over rels and returns its stage ri, held by db.
	stage := func(q *term.Term, ri int, rels ...*Relation) *stageScratch {
		prog := db.compileSearch(q, rels)
		return (*searchScratch)(nil).stage(ri, &prog.stages[ri-1], db)
	}
	join := stage(lera.Search([]*term.Term{lera.Rel("L"), lera.Rel("R")}, eq, projs), 2, l, r)
	cases := []struct {
		name  string
		width int // of every row
		want  int
		run   func() ([][]value.Value, error)
	}{
		{"scan, final", 1, keys / 2, func() ([][]value.Value, error) {
			q := lera.Search([]*term.Term{lera.Rel("L")}, some, []*term.Term{lera.Attr(1, 1)})
			return db.scanStage(stage(q, 1, l), l.Rows, indexRead{})
		}},
		{"scan, stored rows on", 1, keys / 2, func() ([][]value.Value, error) {
			q := lera.Search([]*term.Term{lera.Rel("L"), lera.Rel("R")}, lera.Ands(eq, some), projs)
			return db.scanStage(stage(q, 1, l, r), l.Rows, indexRead{})
		}},
		{"index read, final", 1, keys / 2, func() ([][]value.Value, error) {
			q := lera.Search([]*term.Term{lera.Rel("L")}, some, []*term.Term{lera.Attr(1, 1)})
			ss := stage(q, 1, l)
			return db.scanStage(ss, l.Rows, mustRead(t, db, ss, l.Rows))
		}},
		{"index read, stored rows on", 1, keys / 2, func() ([][]value.Value, error) {
			q := lera.Search([]*term.Term{lera.Rel("L"), lera.Rel("R")}, lera.Ands(some, eq), projs)
			ss := stage(q, 1, l, r)
			return db.scanStage(ss, l.Rows, mustRead(t, db, ss, l.Rows))
		}},
		{"cartesian, non-final", 1 + rwidth, keys * keys * fanout, func() ([][]value.Value, error) {
			q := lera.Search([]*term.Term{lera.Rel("L"), lera.Rel("R"), lera.Rel("L")},
				lera.Cmp("=", lera.Attr(3, 1), lera.Attr(2, 1)), projs)
			return db.cartesian(stage(q, 2, l, r, l), l.Rows, r.Rows)
		}},
		{"cartesian, zero-width prefix", rwidth, 2 * keys * fanout, func() ([][]value.Value, error) {
			// The joined row is the relation's row itself, passed on.
			z := &Relation{Rows: [][]value.Value{{}, {}}}
			q := lera.Search([]*term.Term{lera.Rel("Z"), lera.Rel("R"), lera.Rel("L")},
				lera.Cmp("=", lera.Attr(3, 1), lera.Attr(2, 1)), projs)
			rows, err := db.cartesian(stage(q, 2, z, r, l), z.Rows, r.Rows)
			for i, row := range rows {
				if &row[0] != &r.Rows[i%len(r.Rows)][0] {
					t.Fatalf("zero-width prefix: row %d is not R's row %d", i, i%len(r.Rows))
				}
			}
			return rows, err
		}},
		{"join from the prefix", 2, keys * fanout, func() ([][]value.Value, error) {
			return db.hashJoin(join, l.Rows, buildJoinIndex(r.Rows, join.st.rightKeys))
		}},
		{"join from the relation", 2, keys * fanout, func() ([][]value.Value, error) {
			return db.hashJoinFromRight(join, buildJoinIndex(l.Rows, join.st.leftKeys), r.Rows)
		}},
		{"grace join, 1-byte grant", 2, keys * fanout, func() ([][]value.Value, error) {
			g := db.g
			db.g = &evalGuard{ctx: context.Background(), lim: guard.Limits{MaxMemBytes: 1},
				rows: &guard.Budget{}, spill: &spillState{base: t.TempDir()}}
			defer func() { db.g.spill.cleanup(); db.g = g }()
			before := db.Spill.Partitions
			rows, err := db.graceJoin(l.Rows, r.Rows, join.st.leftKeys, join.st.rightKeys, join.kernel(db, 1))
			if db.Spill.Partitions == before {
				t.Error("grace join did not partition")
			}
			return rows, err
		}},
		{"zero-width projection", 0, keys * fanout, func() ([][]value.Value, error) {
			q := lera.Search([]*term.Term{lera.Rel("L"), lera.Rel("R")}, eq, nil)
			return db.hashJoin(stage(q, 2, l, r), l.Rows, buildJoinIndex(r.Rows, []int{0}))
		}},
	}
	for _, c := range cases {
		rows, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(rows) != c.want || cap(rows) != len(rows) {
			t.Errorf("%s: len %d cap %d, want len == cap == %d", c.name, len(rows), cap(rows), c.want)
		}
		for i, row := range rows {
			if len(row) != c.width || (c.width == 0) != (row == nil) {
				t.Fatalf("%s: row %d is %v, want %d values (nil when none)", c.name, i, row, c.width)
			}
		}
	}
}

// TestJoinIndexAllocs: a join index is a fixed set of arrays — the slot
// table, the runs of row headers, an ordinal per row, the build's group of
// each row — plus one 16-byte group per distinct key, grown by appending:
// no per-key or per-row objects and no map. When a key cost objects of its
// own it cost four (key copy, group, bucket slice, row-header slice), six
// at fan-out 3; exec_spill builds a bounded index per partition per query,
// so objects per key are its allocs_per_query. The chained index over a
// map took 22 objects for 1 000 keys at fan-out 1 and 26 at fan-out 3; the
// clustered one takes 19 at both.
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
		// (the fixed arrays and the group slice's growth steps only).
		if allocs > 24 {
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
		if rel, err = db.EvalCtx(context.Background(), q); err != nil {
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

// mustRead is stage ss's index read of L's rows, which must take place.
func mustRead(t *testing.T, db *DB, ss *stageScratch, rows [][]value.Value) indexRead {
	t.Helper()
	rd := db.readIndex(nil, ss.st, lera.Rel("L"), env{}, rows)
	if rd.ix == nil {
		t.Fatal("stage 1 over L scans where the sorted index should serve it")
	}
	return rd
}
