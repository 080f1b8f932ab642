package engine

// Gates of the delta-driven join (docs/PERF.md, "Delta-driven rounds"): a
// stage-2 equi-join whose first relation comes unfiltered from storage and
// whose second is smaller is driven from the second through the first's
// persistent index. Which side drives must be unobservable: rows (order
// included), every Counters field and the timing-free stats tree equal the
// prefix-driven join's — forced through forceLeftDrive — and the rows equal
// the reference's, at every batch size, pool size and memory grant, under
// forced hash collisions and with a fault injector armed.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/testdb"
	"lera/internal/value"
)

// driveKeyPool holds the join-key values that stress key equality: 5 ≡ 5.0,
// -0.0 ≡ 0.0 ≡ 0, every NaN one key, NULL a key like any other.
func driveKeyPool() []value.Value {
	return []value.Value{
		value.Int(5), value.Real(5), value.Int(0), value.Real(0), value.Real(negZero()),
		value.Real(nanValue()), value.Real(nanPayload()), value.Null,
		value.String("a"), value.String(""), value.Bool(true), value.Int(7),
	}
}

// driveCase is one stored BIG ⋈ SMALL join: both relations are (k1, k2,
// id) with keys drawn from the first nkeys pool values — so both sides
// repeat keys — and id a random payload the filter and projection use.
type driveCase struct {
	name       string
	big, small int
	nkeys      int
	twoCols    bool // join on (k1, k2), not k1 alone
	filter     bool // a final-stage conjunct 1.id < 2.id: an injector hit per pair when one is armed
}

func (c driveCase) String() string {
	return fmt.Sprintf("%s(big=%d small=%d keys=%d two=%v filter=%v)", c.name, c.big, c.small, c.nkeys, c.twoCols, c.filter)
}

func (c driveCase) query() *term.Term {
	conjs := []*term.Term{lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1))}
	if c.twoCols {
		conjs = append(conjs, lera.Cmp("=", lera.Attr(2, 2), lera.Attr(1, 2)))
	}
	if c.filter {
		conjs = append(conjs, lera.Cmp("<", lera.Attr(1, 3), lera.Attr(2, 3)))
	}
	return lera.Search(
		[]*term.Term{lera.Rel("BIG"), lera.Rel("SMALL")},
		lera.Ands(conjs...),
		[]*term.Term{lera.Attr(1, 3), lera.Attr(2, 3), lera.Attr(1, 1)},
	)
}

func (c driveCase) keyCols() []int {
	if c.twoCols {
		return []int{0, 1}
	}
	return []int{0}
}

// db builds the case's database from seed.
func (c driveCase) db(t *testing.T, seed uint64) *DB {
	t.Helper()
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	state := seed*2862933555777941757 + 3037000493
	next := func(mod int) int {
		state = state*2862933555777941757 + 3037000493
		return int(state>>33) % mod
	}
	pool := driveKeyPool()[:c.nkeys]
	rows := func(n int) [][]value.Value {
		out := make([][]value.Value, n)
		for i := range out {
			out[i] = []value.Value{pool[next(len(pool))], pool[next(len(pool))], value.Int(int64(next(2*n + 1)))}
		}
		return out
	}
	db := New(cat)
	if err := db.Load("BIG", rows(c.big)); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("SMALL", rows(c.small)); err != nil {
		t.Fatal(err)
	}
	return db
}

func driveCases() []driveCase {
	return []driveCase{
		{name: "dups", big: 60, small: 12, nkeys: 5},
		{name: "dups-filter", big: 60, small: 12, nkeys: 5, filter: true},
		{name: "edge-keys", big: 90, small: 30, nkeys: 12, filter: true},
		{name: "two-cols", big: 80, small: 25, nkeys: 4, twoCols: true, filter: true},
		{name: "one-row-small", big: 40, small: 1, nkeys: 3},
		{name: "one-row-each", big: 1, small: 1, nkeys: 1},
		{name: "equal-sizes", big: 20, small: 20, nkeys: 4, filter: true},
		{name: "small-is-bigger", big: 10, small: 30, nkeys: 4},
		{name: "empty-small", big: 10, small: 0, nkeys: 2},
		{name: "empty-big", big: 0, small: 10, nkeys: 2},
		// Enough rows and pairs to cross the parallel-chunk threshold in
		// either direction.
		{name: "chunked", big: 2500, small: 600, nkeys: 12, twoCols: true, filter: true},
	}
}

// runDriven evaluates the case under cfg with the driving side chosen by
// size (left=false) or forced to the prefix, on a fresh database prepared
// by arm. When the run succeeds it checks that the index acquired is the
// one the direction implies.
func runDriven(t *testing.T, c driveCase, cfg runCfg, left bool, arm func(*DB)) (engineRun, *DB) {
	t.Helper()
	forceLeftDrive = left
	defer func() { forceLeftDrive = false }()
	db := c.db(t, 7)
	if arm != nil {
		arm(db)
	}
	run := runOn(db, c.query(), cfg)
	if run.Err != "" {
		return run, db
	}
	inMemory := c.big > 0 && c.small > 0 && db.Spill.Partitions == 0
	wantBig := inMemory && c.small < c.big && !left
	wantSmall := inMemory && !wantBig
	onBig := db.idx.lookup("BIG", c.keyCols()) != nil
	onSmall := db.idx.lookup("SMALL", c.keyCols()) != nil
	if onBig != wantBig || onSmall != wantSmall {
		t.Errorf("%s (%s, forced-left=%v): index on BIG %v (want %v), on SMALL %v (want %v)", c, cfg, left, onBig, wantBig, onSmall, wantSmall)
	}
	return run, db
}

func TestJoinDirectionEquivalence(t *testing.T) {
	for _, c := range driveCases() {
		ref := referenceRows(t, c.db(t, 7), c.query(), SemiNaive)
		base, _ := runDriven(t, c, runCfg{par: 1}, true, nil)
		if base.Err != "" {
			t.Fatalf("%s: %s", c, base.Err)
		}
		if d := diffRows(ref, base); d != "" {
			t.Errorf("%s prefix-driven: %s", c, d)
		}
		for _, bs := range []int{1, 2, 1024} {
			for _, par := range []int{1, 4} {
				cfg := runCfg{batch: bs, par: par}
				for _, left := range []bool{false, true} {
					got, _ := runDriven(t, c, cfg, left, nil)
					if d := diffRuns(base, got); d != "" {
						t.Errorf("%s (%s, forced-left=%v): %s", c, cfg, left, d)
					}
				}
			}
		}
	}
}

// TestDeltaDrivenFixpointGolden pins the left-linear closure over a random
// graph — semi-naive rounds whose delta holds many rows, so the re-sorting
// of delta-driven pairs is what keeps the row order — to its golden entry
// and to the reference at every batch and pool size, and checks the rounds
// really were driven from the delta.
func TestDeltaDrivenFixpointGolden(t *testing.T) {
	g := loadGolden(t)
	for _, mode := range []FixMode{SemiNaive, Naive} {
		ref := referenceRows(t, graphDB(t, 1), linearFix(), mode)
		want := golden(t, g, "delta-driven-fixpoint/"+modeName(mode))
		for _, bs := range []int{1, 2, 1024} {
			for _, par := range []int{1, 4} {
				for _, left := range []bool{false, true} {
					forceLeftDrive = left
					c := runCfg{batch: bs, par: par, mode: mode}
					db := graphDB(t, 1)
					got := runOn(db, linearFix(), c)
					forceLeftDrive = false
					if d := diffRuns(want, got); d != "" {
						t.Errorf("%s forced-left=%v vs golden: %s", c, left, d)
					}
					if d := diffRows(ref, got); d != "" {
						t.Errorf("%s forced-left=%v: %s", c, left, d)
					}
					// (Naive rounds drive too, while the total is still the
					// smaller side.)
					if driven := db.idx.lookup("DOMINATE", []int{2}) != nil; driven == left {
						t.Errorf("%s forced-left=%v: DOMINATE indexed on its join column = %v", c, left, driven)
					}
				}
			}
		}
	}
}

// TestJoinDirectionUnderCollisions repeats the gate with every hash equal,
// so each index is one chain of colliding groups and key equality alone
// separates them — in both directions.
func TestJoinDirectionUnderCollisions(t *testing.T) {
	savedRow, savedKey := hashRowFn, hashKeyFn
	hashRowFn = func([]value.Value) uint64 { return 0xDEAD }
	hashKeyFn = func([]value.Value, []int) uint64 { return 0xDEAD }
	defer func() { hashRowFn, hashKeyFn = savedRow, savedKey }()
	for _, c := range driveCases() {
		if c.big > 1000 {
			continue // one bucket makes dedup quadratic
		}
		ref := referenceRows(t, c.db(t, 7), c.query(), SemiNaive)
		base, _ := runDriven(t, c, runCfg{par: 1}, true, nil)
		if d := diffRows(ref, base); d != "" {
			t.Errorf("%s prefix-driven: %s", c, d)
		}
		for _, par := range []int{1, 4} {
			got, _ := runDriven(t, c, runCfg{batch: 2, par: par}, false, nil)
			if d := diffRuns(base, got); d != "" {
				t.Errorf("%s (par %d): %s", c, par, d)
			}
		}
	}
}

// TestJoinDirectionFaultParity arms a fault on the n-th "<" call. With an
// injector armed the compiled comparison hits it once per pair, so the n-th
// hit must land on the same pair — same error, same counters at the point
// of failure — whichever side drives and at every batch size.
func TestJoinDirectionFaultParity(t *testing.T) {
	c := driveCases()[2] // edge-keys, filtered
	clean, _ := runDriven(t, c, runCfg{par: 1}, true, nil)
	pairs := clean.Counters.JoinPairs
	if pairs < 20 {
		t.Fatalf("%s: only %d pairs", c, pairs)
	}
	for _, call := range []int{1, 2, pairs / 2, pairs} {
		arm := func(db *DB) {
			db.Injector = guard.NewInjector()
			db.Injector.Set("<", guard.Fault{OnCall: call, Mode: guard.FaultError})
		}
		want, _ := runDriven(t, c, runCfg{par: 1}, true, arm)
		if want.Err == "" {
			t.Fatalf("call %d: no fault fired", call)
		}
		for _, bs := range []int{1, 1024} {
			got, _ := runDriven(t, c, runCfg{batch: bs, par: 1}, false, arm)
			if d := diffRuns(want, got); d != "" {
				t.Errorf("call %d batch %d: %s", call, bs, d)
			}
		}
	}
	// One call beyond the last pair: the armed run completes, on the
	// compiled comparison path, with the clean run's rows and counters.
	arm := func(db *DB) {
		db.Injector = guard.NewInjector()
		db.Injector.Set("<", guard.Fault{OnCall: pairs + 1, Mode: guard.FaultError})
	}
	got, _ := runDriven(t, c, runCfg{par: 1}, false, arm)
	if d := diffRuns(clean, got); d != "" {
		t.Errorf("armed but never fired: %s", d)
	}
}

// TestCompiledComparisonFaults: a panic injected on the third "<" call
// comes out of the compiled kernel as the typed ADT external panic the
// generic evaluator raised for it when an injector switched compilation
// off — the same message, code and counters at the point of failure. And a
// collection compared with a scalar hits the injector per element before
// failing, as the generic broadcast does.
func TestCompiledComparisonFaults(t *testing.T) {
	c := driveCases()[2] // edge-keys, filtered
	db := c.db(t, 7)
	db.Parallelism = 1
	db.Injector = guard.NewInjector()
	db.Injector.Set("<", guard.Fault{OnCall: 3, Mode: guard.FaultPanic})
	q := c.query()
	prog := db.compileSearch(q, []*Relation{stored(db, "BIG"), stored(db, "SMALL")})
	preds := prog.stages[1].preds
	if _, ok := preds[len(preds)-1].(*cmpNode); !ok {
		t.Fatalf("the armed %q conjunct compiled to %T, not the kernel", "<", preds[len(preds)-1])
	}

	_, err := db.EvalCtx(context.Background(), q)
	var ext *guard.ExternalError
	if !errors.As(err, &ext) || ext.Kind != guard.ExtADT || ext.External != "<" || ext.Panic != "injected panic (< call 3)" || ext.Err != nil {
		t.Fatalf("injected panic on <: %#v, want an ADT external panic", err)
	}
	if got, want := err.Error(), "guard: adt function < panicked: injected panic (< call 3)"; got != want {
		t.Errorf("error %q, want %q", got, want)
	}
	if code := guard.CodeOf(err); code != guard.CodeExternalPanic {
		t.Errorf("code %s, want %s", code, guard.CodeExternalPanic)
	}
	if want := (Counters{Scanned: 120, JoinPairs: 343, PredEvals: 3}); db.Count != want {
		t.Errorf("counters at the failure %+v, want %+v", db.Count, want)
	}

	// FILM's first row holds a one-element category set: its broadcast
	// makes the first "=" call, which fires.
	db = loadedDB(t)
	db.Parallelism = 1
	db.Injector = guard.NewInjector()
	db.Injector.Set("=", guard.Fault{OnCall: 1, Mode: guard.FaultError})
	_, err = db.EvalCtx(context.Background(), lera.Search([]*term.Term{lera.Rel("FILM")},
		lera.Ands(lera.Cmp("=", lera.Attr(1, 3), term.Str("Western"))), []*term.Term{lera.Attr(1, 1)}))
	if guard.CodeOf(err) != guard.CodeInjected || db.Injector.Calls("=") != 1 {
		t.Errorf("set = scalar with the first = call armed: %v after %d calls, want the injected fault after 1", err, db.Injector.Calls("="))
	}
}

// TestJoinDirectionUnderMemGrant: the governor's decision is taken on
// relation 2 before the driving side is chosen. A grant that admits SMALL
// keeps the join in memory (and delta-driven); a one-byte grant sends it
// through the grace join, which always builds on relation 2 — same rows,
// counters and spill totals in both directions. (The tracked-memory peak is
// a reporting gauge that includes arena blocks, which the delta-driven join
// sizes from its known pair count; it is not part of the contract.)
func TestJoinDirectionUnderMemGrant(t *testing.T) {
	c := driveCases()[3] // two-cols, filtered
	base, _ := runDriven(t, c, runCfg{par: 1}, true, nil)
	for _, grant := range []int64{1, 1 << 30} {
		var spill [2]SpillStats
		for i, left := range []bool{false, true} {
			cfg := runCfg{par: 1, lim: guard.Limits{MaxMemBytes: grant}, spillDir: t.TempDir()}
			got, db := runDriven(t, c, cfg, left, nil)
			if d := diffRuns(base, got); d != "" {
				t.Errorf("grant %d forced-left=%v: %s", grant, left, d)
			}
			spill[i] = db.Spill
			dirEmpty(t, cfg.spillDir, "after governed join")
		}
		if spill[0] != spill[1] {
			t.Errorf("grant %d: spill %+v vs %+v", grant, spill[0], spill[1])
		}
		if spilled := spill[0].Partitions > 0; spilled != (grant == 1) {
			t.Errorf("grant %d: spilled = %v", grant, spilled)
		}
	}
	// Over the grant with nowhere to spill: the typed failure, either way.
	for _, left := range []bool{false, true} {
		got, _ := runDriven(t, c, runCfg{par: 1, lim: guard.Limits{MaxMemBytes: 1}}, left, nil)
		if !strings.Contains(got.Err, "SEARCH join build") {
			t.Errorf("forced-left=%v: over-grant join without a spill directory: %q", left, got.Err)
		}
	}
}

// TestIndexInvalidationDrivenRelation extends the invalidation gates to
// the index a delta-driven join keeps on relation 1: Insert and Load must
// drop it, and the next evaluation must pair against the new rows.
func TestIndexInvalidationDrivenRelation(t *testing.T) {
	c := driveCases()[0]
	db := c.db(t, 7)
	db.Parallelism = 1
	q, key := c.query(), c.keyCols()
	check := func(when string) {
		t.Helper()
		got, err := db.EvalCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ReferenceEval(context.Background(), db, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: %d rows, reference %d", when, len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			if rowKey(got.Rows[i]) != rowKey(want.Rows[i]) {
				t.Fatalf("%s: row %d differs from the reference", when, i)
			}
		}
	}
	check("cold")
	first := db.idx.lookup("BIG", key)
	if first == nil {
		t.Fatal("no index on the driven relation after the first evaluation")
	}
	check("warm")
	if db.idx.lookup("BIG", key) != first {
		t.Error("second evaluation rebuilt a valid index")
	}

	// Insert a row that pairs with every SMALL row of its key.
	small := stored(db, "SMALL").Rows
	if err := db.Insert("BIG", []value.Value{small[0][0], small[0][1], value.Int(-1)}); err != nil {
		t.Fatal(err)
	}
	if db.idx.lookup("BIG", key) != nil {
		t.Error("Insert did not invalidate the driven relation's index")
	}
	check("after Insert")
	rebuilt := db.idx.lookup("BIG", key)
	if rebuilt == nil || rebuilt == first || rebuilt.nrows != c.big+1 {
		t.Errorf("index not rebuilt over the inserted row: %+v", rebuilt)
	}

	// Load the same number of rows, reversed: BIG is undeclared, so the
	// data version does not move and only the explicit drop can tell.
	rows := stored(db, "BIG").Rows
	reversed := make([][]value.Value, len(rows))
	for i, r := range rows {
		reversed[len(rows)-1-i] = r
	}
	if err := db.Load("BIG", reversed); err != nil {
		t.Fatal(err)
	}
	if db.idx.lookup("BIG", key) != nil {
		t.Error("Load did not invalidate the driven relation's index")
	}
	check("after Load")
}

// chainClosure is the plan the Alexander rule leaves of "ancestors of c"
// over a chain: fix(TC, union({search((EDGE), [1.2=c], (1.1, 1.2)),
// search((EDGE, TC), [1.2=2.1], (1.1, 2.2))})) — each round joins the
// stored EDGE with a one-row delta.
func chainClosure(c int) *term.Term {
	seed := lera.Search([]*term.Term{lera.Rel("EDGE")},
		lera.Ands(lera.Cmp("=", lera.Attr(1, 2), term.Num(int64(c)))),
		[]*term.Term{lera.Attr(1, 1), lera.Attr(1, 2)})
	return lera.Fix("TC", lera.Union(seed, chainStep()), []string{"Src", "Dst"})
}

// chainStep is chainClosure's recursive member.
func chainStep() *term.Term {
	return lera.Search([]*term.Term{lera.Rel("EDGE"), lera.Rel("TC")},
		lera.Ands(lera.Cmp("=", lera.Attr(1, 2), lera.Attr(2, 1))),
		[]*term.Term{lera.Attr(1, 1), lera.Attr(2, 2)})
}

// TestDeltaDrivenClosureIsLinear is the machine-independent work gate: the
// focused closure from the far end of a chain of n edges (guard_test.go's
// chainDB) runs n rounds, and a round must hash its delta, not EDGE — so twice the chain hashes twice the keys
// (prefix-driven it was four times: n rounds × n probes). Counted through
// the hashKeyFn indirection with the index warm.
func TestDeltaDrivenClosureIsLinear(t *testing.T) {
	saved := hashKeyFn
	defer func() { hashKeyFn = saved }()
	count := func(n int) int {
		db := chainDB(t, n)
		db.Parallelism = 1
		q := chainClosure(n + 1)
		if _, err := db.EvalCtx(context.Background(), q); err != nil { // builds EDGE's index
			t.Fatal(err)
		}
		calls := 0
		hashKeyFn = func(row []value.Value, keyIdx []int) uint64 {
			calls++
			return hashKey(row, keyIdx)
		}
		rel, err := db.EvalCtx(context.Background(), q)
		hashKeyFn = saved
		if err != nil {
			t.Fatal(err)
		}
		if len(rel.Rows) != n {
			t.Fatalf("chain(%d): %d ancestors, want %d", n, len(rel.Rows), n)
		}
		if db.Count.FixIterations < n {
			t.Fatalf("chain(%d): only %d rounds", n, db.Count.FixIterations)
		}
		return calls
	}
	c200, c400 := count(200), count(400)
	t.Logf("join-key hashes: chain(200) %d, chain(400) %d (ratio %.2f)", c200, c400, float64(c400)/float64(c200))
	if c200 < 150 {
		t.Fatalf("chain(200) hashed only %d join keys — the closure is not probing", c200)
	}
	if lo, hi := c200*18/10, c200*22/10; c400 < lo || c400 > hi {
		t.Errorf("join-key hashes grew %d → %d for twice the chain; want ×2 ±10%% (a round must cost its delta, not EDGE)", c200, c400)
	}
}

// TestSemiNaiveRoundAllocs is the allocation gate of docs/PERF.md "Rounds
// that allocate only their rows": a semi-naive round of the focused closure
// keeps its member results, row buffers, delta, pair words, stage kernels
// and relation list from the round before, so what it allocates is its share
// of the rows it adds — amortized arena blocks and set growth — and the
// SEARCH's own output. Measured as the extra objects of chain(400) over
// chain(200): 200 more rounds, the same query otherwise.
func TestSemiNaiveRoundAllocs(t *testing.T) {
	allocs := func(n int) float64 {
		db := chainDB(t, n)
		db.Parallelism = 1
		q := chainClosure(n + 1)
		if _, err := db.EvalCtx(context.Background(), q); err != nil { // builds EDGE's index
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if rel, err := db.EvalCtx(context.Background(), q); err != nil || len(rel.Rows) != n {
				t.Fatalf("chain(%d): %v", n, err)
			}
		})
	}
	a200, a400 := allocs(200), allocs(400)
	perRound := (a400 - a200) / 200
	t.Logf("objects per query: chain(200) %.0f, chain(400) %.0f — %.2f per extra round", a200, a400, perRound)
	if perRound > 3 {
		t.Errorf("%.2f objects per semi-naive round, want at most 3: a round allocates buffers again instead of only its rows", perRound)
	}
}

// TestSearchProgramCompiledOncePerFix: under a FIX the rounds share one
// compilation per SEARCH term, revalidated — not trusted — when a
// relation's width changes; an injector appearing changes nothing, the
// compiled comparisons consult it per call. Outside a FIX nothing is
// cached. Beside the program, the entry's scratch goes to one evaluation
// at a time: a second claim while it is held gets none.
func TestSearchProgramCompiledOncePerFix(t *testing.T) {
	db := chainDB(t, 50)
	db.Parallelism = 1
	db.g = &evalGuard{ctx: context.Background(), rows: &guard.Budget{}}
	defer func() { db.g = nil }()
	q := chainStep()
	edge := stored(db, "EDGE")
	rels := []*Relation{edge, {Rows: edge.Rows[:1]}}
	programFor := func(rels []*Relation) *searchProgram { return db.programFor(db.searchEntry(q), q, rels) }

	if a, b := programFor(rels), programFor(rels); a == b {
		t.Error("a program was cached outside a FIX")
	}
	if db.searchEntry(q).claim() != nil {
		t.Error("a scratch was handed out outside a FIX")
	}
	db.g.progs = &searchCache{}
	first := programFor(rels)
	if programFor(rels) != first {
		t.Error("second round recompiled")
	}
	db.Injector = guard.NewInjector()
	if programFor(rels) != first {
		t.Error("an armed injector invalidated the program")
	}
	db.Injector = nil
	wide := []*Relation{edge, {Rows: [][]value.Value{{value.Int(1), value.Int(2), value.Int(3)}}}}
	if p := programFor(wide); p == first || p.stages[1].widths[1] != 3 {
		t.Error("program reused over a relation of another width")
	}

	// The round's delta is TC: three rows, so the join is driven from them
	// through EDGE's index and judged by the stage scratch's pair judge.
	e := env{"TC": {Rows: edge.Rows[:3]}}
	eval := func() []string {
		t.Helper()
		r, err := db.evalSearchBatch(q, e)
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, row := range r.Rows {
			keys = append(keys, rowKey(row))
		}
		return keys
	}
	claimed := eval()
	ent := db.searchEntry(q)
	held := ent.claim()
	if held == nil || ent.claim() != nil {
		t.Fatal("the scratch is not handed to exactly one evaluation")
	}
	if held.stages[1].judge == nil {
		t.Error("the claimed evaluation did not keep its pair judge")
	}
	if unclaimed := eval(); strings.Join(unclaimed, " ") != strings.Join(claimed, " ") || len(claimed) != 2 {
		t.Errorf("without the scratch %v, with it %v", unclaimed, claimed)
	}
	ent.release(held)
	if again := ent.claim(); again != held {
		t.Error("a released scratch did not go back to its entry")
	}
}
