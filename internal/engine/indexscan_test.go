package engine

// Gates of the index access path (docs/PERF.md "Index access paths"):
// stage 1 of a SEARCH read through a sorted column index must be
// indistinguishable from the scan it replaces — rows (order included),
// every Counters field, the timing-free stats tree and the first error's
// text — whatever the column holds, whatever the leading comparisons and
// constants, wherever the stage sits; the index follows its relation
// through INSERT and Load; and the read allocates nothing per row. The
// same runs pin a SEARCH that skips its dedup pass on a distinct projected
// column against the one that dedups (forceDedup), before and after an
// INSERT that duplicates the column, and a final scan that slices its
// projection out of the stored rows against the one that copies its cells
// (forceCopy).

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"lera/internal/catalog"
	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/testdb"
	"lera/internal/value"
)

// fuzzSource turns fuzz bytes into choices; past the end every choice is 0.
type fuzzSource struct {
	data []byte
	i    int
}

func (s *fuzzSource) next(n int) int {
	if s.i >= len(s.data) {
		return 0
	}
	s.i++
	return int(s.data[s.i-1]) % n
}

// Column modes of an indexed-scan case: what the cells of a column are.
const (
	colInts = iota
	colReals
	colRealsNaN // reals with NaN among them: not indexable
	colStrings
	colMixed // ints, reals, strings, NULL and sets: not indexable
	colIntsNull
	colModes
)

// scanCell draws one cell of a column of the given mode.
func scanCell(s *fuzzSource, mode int) value.Value {
	reals := []float64{negZero(), 0, 1.5, 2.5, 7, -3, 1e9}
	strs := []string{"", "a", "b", "c", "m", "z"}
	switch mode {
	case colInts:
		return value.Int(int64(s.next(16) - 3))
	case colReals:
		return value.Real(reals[s.next(len(reals))])
	case colRealsNaN:
		if s.next(4) == 0 {
			return value.Real(nanValue())
		}
		return value.Real(reals[s.next(len(reals))])
	case colStrings:
		return value.String(strs[s.next(len(strs))])
	case colIntsNull:
		if s.next(8) == 0 {
			return value.Null
		}
		return value.Int(int64(s.next(16) - 3))
	}
	switch s.next(5) {
	case 0:
		return value.Int(int64(s.next(16) - 3))
	case 1:
		return value.Real(reals[s.next(len(reals))])
	case 2:
		return value.String(strs[s.next(len(strs))])
	case 3:
		return value.Null
	}
	return value.NewSet(value.Int(int64(s.next(4))))
}

// scanConst draws a comparison constant: of the column's kind — below, at,
// between and above its cells — or of another kind.
func scanConst(s *fuzzSource, mode int) *term.Term {
	kind := mode
	if s.next(4) == 0 || mode == colMixed {
		kind = s.next(colModes)
	}
	switch kind {
	case colInts, colIntsNull:
		return term.Num(int64(s.next(22) - 6))
	case colReals, colRealsNaN:
		fs := []float64{-100, -3, negZero(), 0, 1.5, 2, 2.5, 7, 8, 1e9, 1e10, nanValue()}
		return &term.Term{Kind: term.Const, Val: value.Real(fs[s.next(len(fs))])}
	case colStrings:
		strs := []string{"", "0", "a", "aa", "b", "c", "m", "n", "z", "zz"}
		return term.Str(strs[s.next(len(strs))])
	}
	if s.next(2) == 0 {
		return &term.Term{Kind: term.Const, Val: value.Bool(true)}
	}
	return &term.Term{Kind: term.Const, Val: value.Null}
}

// scanCase is one random stored relation T(c1, c2, c3, id) — id the row's
// ordinal, c1..c3 of the drawn modes — a second relation U(k, v), and a
// qualification over T: 1 to 4 leading comparisons, mostly of one column,
// then perhaps FAILAT(1.4), which fails on row failAt, and perhaps a
// comparison of another column.
type scanCase struct {
	modes    [3]int
	rows     [][]value.Value
	u        [][]value.Value
	qual     *term.Term
	failAt   int64 // -1: FAILAT never fails
	failProj bool  // FAILAT is in the projection, not the qualification
	insert   bool  // a copy of row 0 is inserted into T, and the query run again
}

func newScanCase(data []byte) scanCase {
	s := &fuzzSource{data: data}
	c := scanCase{failAt: -1}
	for i := range c.modes {
		c.modes[i] = s.next(colModes)
	}
	n := 1 + s.next(40)
	if s.next(6) == 0 {
		n = 200 + s.next(200) // several batches, and a tick boundary
	}
	for id := 0; id < n; id++ {
		c.rows = append(c.rows, []value.Value{scanCell(s, c.modes[0]), scanCell(s, c.modes[1]), scanCell(s, c.modes[2]), value.Int(int64(id))})
	}
	for k := 0; k < 6; k++ {
		c.u = append(c.u, []value.Value{value.Int(int64(k * 3)), value.String(fmt.Sprint("u", k))})
	}
	col := 1 + s.next(3)
	var conjs []*term.Term
	ops := []string{"=", "<", "<=", ">", ">=", "=", "<", ">", "<>"}
	for i, lead := 0, 1+s.next(4); i < lead; i++ {
		cc := col
		if s.next(6) == 0 {
			cc = 1 + s.next(4)
		}
		mode := colInts
		if cc <= 3 {
			mode = c.modes[cc-1]
		}
		a, b := lera.Attr(1, cc), scanConst(s, mode)
		if s.next(2) == 0 {
			a, b = b, a
		}
		conjs = append(conjs, lera.Cmp(ops[s.next(len(ops))], a, b))
	}
	if s.next(2) == 0 {
		c.failAt = int64(s.next(n + 1)) // n: never
		c.failProj = s.next(3) == 0
		if !c.failProj {
			conjs = append(conjs, lera.Call("FAILAT", lera.Attr(1, 4)))
		}
	}
	if s.next(3) == 0 {
		cc := 1 + s.next(3)
		conjs = append(conjs, lera.Cmp(ops[s.next(5)], lera.Attr(1, cc), scanConst(s, c.modes[cc-1])))
	}
	c.qual = lera.Ands(conjs...)
	c.insert = s.next(2) == 1
	return c
}

// db returns a fresh database holding the case's relations and FAILAT.
func (c scanCase) db(t *testing.T) *DB {
	t.Helper()
	db := New(catalog.New())
	if err := db.Load("T", c.rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("U", c.u); err != nil {
		t.Fatal(err)
	}
	db.Cat.ADTs.Register("FAILAT", 1, true, func(a []value.Value) (value.Value, error) {
		if a[0].K == value.KInt && a[0].I == c.failAt {
			return value.Null, fmt.Errorf("FAILAT: row %d", a[0].I)
		}
		if c.failProj {
			return a[0], nil
		}
		return value.Bool(a[0].I%3 != 1), nil
	})
	return db
}

// queries places the case's stage 1 as the final stage — projecting the
// distinct id and c1, c1 and c2, the contiguous c2 and c3 a final scan
// slices out of each stored row, and c3 and c1, which it copies — as a
// non-final stage joined (and, separately, crossed) with U, and inside a
// FIX.
func (c scanCase) queries() map[string]*term.Term {
	projs := []*term.Term{lera.Attr(1, 4), lera.Attr(1, 1)}
	if c.failProj {
		projs = append(projs, lera.Call("FAILAT", lera.Attr(1, 4)))
	}
	join := func(extra ...*term.Term) *term.Term {
		return lera.Search([]*term.Term{lera.Rel("T"), lera.Rel("U")},
			lera.Ands(append(lera.Conjuncts(c.qual), extra...)...),
			append(projs[:1:1], lera.Attr(2, 2)))
	}
	final := lera.Search([]*term.Term{lera.Rel("T")}, c.qual, projs)
	rec := lera.Search([]*term.Term{lera.Rel("X")}, lera.Ands(lera.Cmp("<", lera.Attr(1, 1), term.Num(-1000))), []*term.Term{lera.Attr(1, 1), lera.Attr(1, 2)})
	cells := append([]*term.Term{lera.Attr(1, 1), lera.Attr(1, 2)}, projs[2:]...)
	return map[string]*term.Term{
		"final":     final,
		"cells":     lera.Search([]*term.Term{lera.Rel("T")}, c.qual, cells),
		"c2c3":      lera.Search([]*term.Term{lera.Rel("T")}, c.qual, []*term.Term{lera.Attr(1, 2), lera.Attr(1, 3)}),
		"c3c1":      lera.Search([]*term.Term{lera.Rel("T")}, c.qual, []*term.Term{lera.Attr(1, 3), lera.Attr(1, 1)}),
		"join":      join(lera.Cmp("=", lera.Attr(1, 4), lera.Attr(2, 1))),
		"cartesian": join(),
		"fix":       lera.Fix("X", lera.Union(lera.Search([]*term.Term{lera.Rel("T")}, c.qual, projs[:2]), rec), []string{"A", "B"}),
	}
}

// run evaluates q on a fresh database of the case and, with insert, again
// after a copy of row 0 is inserted into T. It reports how many of the runs
// read an index and how many skipped a dedup pass.
func (c scanCase) run(t *testing.T, q *term.Term, cfg runCfg) (runs []engineRun, read, elided int) {
	t.Helper()
	db := c.db(t)
	once := func() {
		run := runOn(db, q, cfg)
		runs = append(runs, run)
		if run.Err == "" {
			read += len(statsLabels(db.LastExecStats(), func(o *OpStats) string { return o.Index }))
			elided += len(statsLabels(db.LastExecStats(), func(o *OpStats) string { return o.Distinct }))
		}
	}
	once()
	if c.insert {
		if err := db.Insert("T", append([]value.Value(nil), c.rows[0]...)); err != nil {
			t.Fatal(err)
		}
		once()
	}
	return runs, read, elided
}

// statsLabels returns the non-empty labels of the nodes of a stats tree.
func statsLabels(o *OpStats, label func(*OpStats) string) []string {
	var out []string
	if l := label(o); l != "" {
		out = append(out, l)
	}
	for _, ch := range o.Children {
		out = append(out, statsLabels(ch, label)...)
	}
	return out
}

// checkIndexedScan runs every placement of the case through the index path
// and the scan, with and without the dedup pass forced, and with the final
// scan slicing stored rows and copying their cells (forceCopy), at batch
// sizes 1, 2 and 1024 and in both fixpoint modes, and requires the same
// runs. It reports how many runs read an index and how many skipped a dedup
// pass.
func checkIndexedScan(t *testing.T, c scanCase) (read, elided int) {
	t.Helper()
	for name, q := range c.queries() {
		for _, mode := range []FixMode{SemiNaive, Naive} {
			for _, bs := range []int{1, 2, 1024} {
				cfg := runCfg{batch: bs, par: 1, mode: mode}
				forceScan = true
				scanned, _, _ := c.run(t, q, cfg)
				forceScan = false
				forceDedup = true
				deduped, _, _ := c.run(t, q, cfg)
				forceDedup = false
				forceCopy = true
				copied, _, _ := c.run(t, q, cfg)
				forceCopy = false
				got, r, e := c.run(t, q, cfg)
				read, elided = read+r, elided+e
				for i := range got {
					if d := diffRuns(scanned[i], got[i]); d != "" {
						t.Fatalf("%s (%s) over T%v, %s, run %d: index path vs scan: %s", name, cfg, c.modes, lera.Format(c.qual), i+1, d)
					}
					if d := diffRuns(deduped[i], got[i]); d != "" {
						t.Fatalf("%s (%s) over T%v, %s, run %d: dedup skipped vs forced: %s", name, cfg, c.modes, lera.Format(c.qual), i+1, d)
					}
					if d := diffRuns(copied[i], got[i]); d != "" {
						t.Fatalf("%s (%s) over T%v, %s, run %d: sliced vs copied: %s", name, cfg, c.modes, lera.Format(c.qual), i+1, d)
					}
				}
			}
		}
	}
	return read, elided
}

// FuzzIndexedScan: over a random stored relation whose columns are
// indexable or not (ints, reals with ±0.0 and NaN, strings, NULL, sets), a
// qualification leading with comparisons of a column against constants of
// its kind or another, all five operators, either operand order, followed
// by a function that fails on a chosen row: the index path and the scan
// (forceScan) give the same run, with stage 1 final, joined, crossed and
// inside a FIX; so do a SEARCH that skips its dedup pass and the one that
// runs it (forceDedup), also after an INSERT duplicating row 0, and a final
// scan that slices its projection out of the stored rows and one that
// copies it (forceCopy).
func FuzzIndexedScan(f *testing.F) {
	for _, seed := range indexedScanSeeds() {
		f.Add(seed.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkIndexedScan(t, newScanCase(data))
	})
}

// scanSeed is a hand-made input for newScanCase and what it decodes to:
// the qualification as lera.Format prints it, the row count, where FAILAT
// fails (-1: nowhere) and sits, and whether row 0 is inserted again.
type scanSeed struct {
	data     []byte
	qual     string
	rows     int
	failAt   int64
	failProj bool
	insert   bool
}

// seedBytes assembles an input for newScanCase: the column modes, the row
// count n, the cell choices of each row i (cells(i), as scanCell reads
// them), then tail, the choices that draw the qualification and the INSERT.
func seedBytes(modes [3]int, n int, cells func(i int) []byte, tail ...byte) []byte {
	b := []byte{byte(modes[0]), byte(modes[1]), byte(modes[2])}
	if n <= 40 {
		b = append(b, byte(n-1), 1)
	} else {
		b = append(b, 0, 0, byte(n-200)) // 200 + n-200 rows
	}
	for i := 0; i < n; i++ {
		b = append(b, cells(i)...)
	}
	return append(b, tail...)
}

// mixedCell is the choice of a colMixed cell drawn from i: an int, a real,
// a string, NULL or a set, in turn.
func mixedCell(i int) []byte {
	switch i % 5 {
	case 0:
		return []byte{0, byte(i % 16)}
	case 1:
		return []byte{1, byte(i % 7)}
	case 2:
		return []byte{2, byte(i % 6)}
	case 3:
		return []byte{3}
	}
	return []byte{4, byte(i % 4)}
}

// intNullCell is the choice of a colIntsNull cell drawn from i: NULL on
// every ninth row, an int otherwise.
func intNullCell(i int) []byte {
	if i%9 == 0 {
		return []byte{0}
	}
	return []byte{1, byte(i % 16)}
}

// indexedScanSeeds are the seeds of FuzzIndexedScan. A leading comparison's
// choices in a tail are: another column or not, the constant's kind, the
// constant, operand order (0: constant left), operator. The qualification
// is a set: its conjuncts print, and meet the rows, in the set's order.
func indexedScanSeeds() []scanSeed {
	return []scanSeed{
		// ints, 30 rows, a point query on c1 (rows 7 and 19) then FAILAT
		// in the qualification, failing on row 19.
		{data: seedBytes([3]int{colInts, colReals, colStrings}, 30,
			func(i int) []byte { return []byte{byte(i % 12), byte(i % 7), byte(i % 6)} },
			0, 0, 1, 1, 10, 1, 0, 0, 19, 1, 1, 0),
			qual: "1.1=4 ∧ failat(1.4)", rows: 30, failAt: 19},
		// strings, 40 rows, two comparisons of c1 with the constant on the
		// left, then row 0 inserted again.
		{data: seedBytes([3]int{colStrings, colStrings, colInts}, 40,
			func(i int) []byte { return []byte{byte(i % 6), byte(i * 5 % 6), byte(i % 16)} },
			0, 1, 1, 1, 4, 0, 1, 1, 1, 8, 0, 4, 1, 1, 1),
			qual: "'b'<1.1 ∧ 'z'>=1.1", rows: 40, failAt: -1, insert: true},
		// reals with NaN in every column, never indexed: comparisons of c2
		// with 2.5 and of c3 with NaN; then row 0 inserted again.
		{data: seedBytes([3]int{colRealsNaN, colRealsNaN, colRealsNaN}, 35,
			func(i int) []byte {
				var b []byte
				for j := 0; j < 3; j++ {
					if (i+j)%5 == 0 {
						b = append(b, 0) // NaN
					} else {
						b = append(b, 1, byte((i+j)%7))
					}
				}
				return b
			},
			1, 0, 1, 1, 6, 1, 3, 1, 0, 2, 1, 1, 11, 1),
			qual: "1.3<NaN ∧ 1.2>2.5", rows: 35, failAt: -1, insert: true},
		// a large relation, 300 rows: an int range on c1 read through a
		// bitmap, FAILAT in the projection failing on row 150, inside it.
		{data: seedBytes([3]int{colInts, colIntsNull, colMixed}, 300,
			func(i int) []byte { return append(append([]byte{byte(i % 16)}, intNullCell(i)...), mixedCell(i)...) },
			0, 1, 1, 1, 5, 1, 4, 1, 1, 15, 1, 1, 0, 150, 0, 1, 0),
			qual: "1.1<9 ∧ 1.1>=-1", rows: 300, failAt: 150, failProj: true},
		// mixed kinds in c1 and constants of other kinds: an int against
		// c1, a string against c2 (ints and NULL) and an int against c3
		// (reals); then row 0 inserted again.
		{data: seedBytes([3]int{colMixed, colIntsNull, colReals}, 20,
			func(i int) []byte { return append(append(mixedCell(i), intNullCell(i)...), byte(i%7)) },
			0, 1, 1, 1, 0, 8, 1, 0, 0, 1, 0, 3, 6, 0, 8, 1, 0, 2, 3, 0, 5, 7, 1),
			qual: "'m'<>1.2 ∧ 1.1=2 ∧ 1.3>1", rows: 20, failAt: -1, insert: true},
		// The seeds below list each row's cells, then c1 > 0 or the like
		// selecting every row, and whether row 0 is inserted again.
		// Duplicate rows: 8 rows of ints and strings, each twice; (c1, c2)
		// has no distinct column and dedups to 4 rows.
		{data: []byte{colInts, colStrings, colInts, 7, 1,
			4, 1, 4, 4, 1, 4, 5, 2, 5, 5, 2, 5, 6, 3, 6, 6, 3, 6, 7, 4, 7, 7, 4, 7,
			0, 0, 1, 1, 6, 1, 3, 1, 1, 0},
			qual: "1.1>0", rows: 8, failAt: -1},
		// Duplicate cells in c1, strings, beside distinct ints in c2: (c1,
		// c2) skips its dedup on c2. c1 < 'zz', then two comparisons of c2.
		{data: []byte{colStrings, colInts, colReals, 5, 1,
			1, 4, 3, 1, 5, 3, 2, 6, 4, 2, 7, 4, 5, 8, 1, 5, 9, 0,
			1, 1, 1, 1, 7, 1, 4, 1, 1, 12, 0, 4, 1, 0, 0, 1, 1, 9, 0},
			qual: "1.1<'zz' ∧ 6>=1.2 ∧ 1.2>=1", rows: 6, failAt: -1},
		// NULL cells in c1 and c2, distinct ints in c3; then row 0 again.
		{data: []byte{colIntsNull, colIntsNull, colInts, 5, 1,
			0, 1, 4, 4, 0, 1, 4, 5, 1, 5, 0, 6, 1, 5, 0, 7, 0, 0, 8, 0, 0, 9,
			2, 0, 1, 1, 6, 1, 4, 1, 1, 1},
			qual: "1.3>=0", rows: 6, failAt: -1, insert: true},
		// Reals: 0.0 beside −0.0 (two dedup keys), and (2.5, 7) and
		// (−0.0, 1.5) twice: a real column is never taken as distinct.
		{data: []byte{colReals, colReals, colInts, 5, 1,
			1, 2, 4, 0, 2, 5, 3, 4, 6, 3, 4, 7, 6, 5, 8, 0, 2, 9,
			0, 0, 1, 1, 0, 1, 4, 1, 1, 0},
			qual: "1.1>=-100.0", rows: 6, failAt: -1},
		// Mixed kinds in c1 and c2 (ints, a real, strings, NULL, sets),
		// distinct strings in c3; then row 0 again.
		{data: []byte{colMixed, colMixed, colStrings, 5, 1,
			0, 5, 2, 1, 1, 1, 3, 2, 1, 2, 0, 5, 2, 1, 3, 3, 4, 1, 4, 3, 4, 1, 5, 2, 2, 0, 8, 0,
			2, 0, 1, 1, 0, 1, 4, 1, 1, 1},
			qual: "1.3>=''", rows: 6, failAt: -1, insert: true},
		// Distinct ints in c1 and strings in c2, then an INSERT of row 0
		// that duplicates both, and id, between two reads.
		{data: []byte{colInts, colStrings, colInts, 5, 1,
			4, 1, 4, 5, 2, 5, 6, 3, 6, 7, 4, 7, 8, 5, 8, 9, 0, 9,
			0, 0, 1, 1, 7, 1, 4, 1, 1, 1},
			qual: "1.1>=1", rows: 6, failAt: -1, insert: true},
	}
}

// TestIndexedScanSeedsDecode: each seed decodes to the case its comment
// names — a seed that reads its cells as the qualification, say, tests a
// case nobody chose.
func TestIndexedScanSeedsDecode(t *testing.T) {
	for i, seed := range indexedScanSeeds() {
		c := newScanCase(seed.data)
		if got := lera.Format(c.qual); got != seed.qual || len(c.rows) != seed.rows || c.failAt != seed.failAt || c.failProj != seed.failProj || c.insert != seed.insert {
			t.Errorf("seed %d decodes to %s over %d rows, FAILAT on row %d (in the projection: %v), insert %v; want %s over %d rows, %d (%v), %v",
				i, got, len(c.rows), c.failAt, c.failProj, c.insert, seed.qual, seed.rows, seed.failAt, seed.failProj, seed.insert)
		}
	}
}

// TestIndexedScanSeeds runs the seeds and requires that the index path was
// taken by some of them, and the dedup pass skipped — a fuzz target that
// never reads an index or never skips a dedup checks nothing.
func TestIndexedScanSeeds(t *testing.T) {
	read, elided := 0, 0
	for _, seed := range indexedScanSeeds() {
		r, e := checkIndexedScan(t, newScanCase(seed.data))
		read, elided = read+r, elided+e
	}
	if read == 0 || elided == 0 {
		t.Fatalf("of the seeds' runs %d read through an index and %d skipped a dedup pass, want some of each", read, elided)
	}
}

// filmsN returns a database of n films (Numf 1..n, Title 'film-<n>', a
// Category) with its sorted index state cold, serial.
func filmsN(t *testing.T, n int) *DB {
	t.Helper()
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	db := New(cat)
	db.Parallelism = 1
	cats := []string{"Comedy", "Adventure", "Western"}
	rows := make([][]value.Value, n)
	for i := range rows {
		rows[i] = []value.Value{value.Int(int64(i + 1)), value.String(fmt.Sprint("film-", i+1)), value.NewSet(value.String(cats[i%3]))}
	}
	if err := db.Load("FILM", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

func titleWhere(conjs ...*term.Term) *term.Term {
	return lera.Search([]*term.Term{lera.Rel("FILM")}, lera.Ands(conjs...), []*term.Term{lera.Attr(1, 2)})
}

// explainIndex evaluates q with statistics and returns its SEARCH node's
// Index and its rows.
func explainIndex(t *testing.T, db *DB, q *term.Term) (string, []string) {
	t.Helper()
	db.CollectStats = true
	defer func() { db.CollectStats = false }()
	rel := evalOK(t, db, q)
	var rows []string
	for _, r := range rel.Rows {
		rows = append(rows, rowKey(r))
	}
	return db.LastExecStats().Children[0].Index, rows
}

// TestSortedIndexLifecycle: the sorted index follows its relation. An
// INSERT after it is warm is seen by the session and by forks made before
// and after; a Load that replaces the rows and keeps their count is seen;
// a LET or FIX binding that shadows the stored name is scanned; and two
// forks racing to build the index first both answer right.
func TestSortedIndexLifecycle(t *testing.T) {
	db := filmsN(t, 50)
	point := titleWhere(lera.Cmp("=", lera.Attr(1, 1), term.Num(51)))
	if ix, rows := explainIndex(t, db, point); ix != "FILM.Numf" || len(rows) != 0 {
		t.Fatalf("cold point query: index %q, rows %v", ix, rows)
	}
	before := db.Fork()
	if err := db.Insert("FILM", []value.Value{value.Int(51), value.String("late"), value.NewSet(value.String("Comedy"))}); err != nil {
		t.Fatal(err)
	}
	after := db.Fork()
	for name, d := range map[string]*DB{"session": db, "fork before": before, "fork after": after} {
		if ix, rows := explainIndex(t, d, point); ix != "FILM.Numf" || strings.Join(rows, ",") != "s4:late|" {
			t.Errorf("%s after INSERT: index %q, rows %v", name, ix, rows)
		}
	}

	// Same count, other rows.
	rows := stored(db, "FILM").Rows
	moved := make([][]value.Value, len(rows))
	for i, r := range rows {
		moved[i] = []value.Value{value.Int(r[0].I + 1000), r[1], r[2]}
	}
	if err := db.Load("FILM", moved); err != nil {
		t.Fatal(err)
	}
	if _, rows := explainIndex(t, db, point); len(rows) != 0 {
		t.Errorf("after a Load of as many rows: %v, want none", rows)
	}
	if _, rows := explainIndex(t, db, titleWhere(lera.Cmp("=", lera.Attr(1, 1), term.Num(1051)))); strings.Join(rows, ",") != "s4:late|" {
		t.Errorf("after a Load of as many rows, Numf = 1051: %v", rows)
	}

	// A binding that shadows FILM is no stored relation: only a SEARCH of
	// stored FILM reads an index, not one of the LET's or the FIX's FILM.
	pair := []*term.Term{lera.Attr(1, 1), lera.Attr(1, 2)}
	def := lera.Search([]*term.Term{lera.Rel("FILM")}, lera.Ands(lera.Cmp("<", lera.Attr(1, 1), term.Num(1003))), pair)
	onBinding := lera.Search([]*term.Term{lera.Rel("FILM")}, lera.Ands(lera.Cmp("=", lera.Attr(1, 1), term.Num(1002))), pair)
	if err := db.Load("SRC", [][]value.Value{{value.Int(1002), value.String("x")}, {value.Int(7), value.String("y")}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		q     *term.Term
		reads int
		rows  int
	}{
		{"LET", term.F(lera.OpLet, term.Str("FILM"), def, onBinding), 1, 1},
		{"FIX", lera.Fix("FILM", lera.Union(lera.Search([]*term.Term{lera.Rel("SRC")}, lera.TrueQual(), pair), onBinding), []string{"Numf", "Title"}), 0, 2},
	} {
		db.CollectStats = true
		rel := evalOK(t, db, c.q)
		db.CollectStats = false
		read := statsLabels(db.LastExecStats(), func(o *OpStats) string { return o.Index })
		if len(read) != c.reads || len(rel.Rows) != c.rows {
			t.Errorf("%s: %d rows, %d SEARCHes read an index (%v), want %d and %d", c.name, len(rel.Rows), len(read), read, c.rows, c.reads)
		}
	}

	// Two forks race to build a cold index.
	cold := filmsN(t, 400)
	var wg sync.WaitGroup
	got := make([]string, 2)
	for i := range got {
		f := cold.Fork()
		wg.Add(1)
		go func() {
			defer wg.Done()
			rel, err := f.EvalCtx(context.Background(), titleWhere(lera.Cmp(">=", lera.Attr(1, 1), term.Num(399))))
			if err != nil {
				got[i] = err.Error()
				return
			}
			for _, r := range rel.Rows {
				got[i] += rowKey(r)
			}
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != "s8:film-399|s8:film-400|" {
			t.Errorf("racing fork %d: %s", i, g)
		}
	}
}

// TestIndexedScanParallel: over a relation large enough to be read in
// parallel chunks, the index path and the scan give the same run at pool
// sizes 1 and 2, with leading comparisons on one column, on two, and
// followed by a conjunct the index does not answer. A query on Numf builds
// two sorted indexes: the one it reads and, as its answer has more than one
// row, the projected Title's, whose distinct cells spare the dedup pass.
func TestIndexedScanParallel(t *testing.T) {
	const n = 5000
	quals := [][]*term.Term{
		{lera.Cmp(">", lera.Attr(1, 1), term.Num(100))},
		{lera.Cmp(">", lera.Attr(1, 1), term.Num(100)), lera.Cmp("<=", term.Num(4900), lera.Attr(1, 1))},
		{lera.Cmp("<", lera.Attr(1, 1), term.Num(4000)), lera.Cmp(">", lera.Attr(1, 1), term.Num(10)), term.F("MEMBER", term.Str("Western"), lera.Attr(1, 3))},
		{lera.Cmp("=", lera.Attr(1, 2), term.Str("film-77"))},
	}
	indexes := []int{2, 2, 2, 1}
	for qi, qual := range quals {
		q := titleWhere(qual...)
		for _, par := range []int{1, 2} {
			cfg := runCfg{par: par}
			forceScan = true
			want := runOn(filmsN(t, n), q, cfg)
			forceScan = false
			db := filmsN(t, n)
			got := runOn(db, q, cfg)
			if d := diffRuns(want, got); d != "" {
				t.Errorf("%s par=%d: index path vs scan: %s", lera.Format(qual[0]), par, d)
			}
			if len(db.idx.sorted) != indexes[qi] {
				t.Errorf("%s par=%d: %d sorted indexes, want %d", lera.Format(qual[0]), par, len(db.idx.sorted), indexes[qi])
			}
		}
	}
}

// TestDistinctColumnSkipsDedup: over 3 000 films, a SEARCH that projects a
// distinct column of stored FILM as is skips its dedup pass and names the
// column, at pool sizes 1 and 2, and gives the run the forced dedup gives;
// one whose projection holds no distinct column, whose answer has one row,
// that joins, or that reads a LET binding of the name, dedups. A grant no
// dedup set fits in fails only the query that dedups.
func TestDistinctColumnSkipsDedup(t *testing.T) {
	const n = 3000
	numf, title, cats := lera.Attr(1, 1), lera.Attr(1, 2), lera.Attr(1, 3)
	above := lera.Ands(lera.Cmp(">", numf, term.Num(5)))
	film := []*term.Term{lera.Rel("FILM")}
	for _, c := range []struct {
		name     string
		q        *term.Term
		distinct string
	}{
		{"Numf, Title", lera.Search(film, above, []*term.Term{numf, title}), "FILM.Numf"},
		{"Title", lera.Search(film, above, []*term.Term{title}), "FILM.Title"},
		{"Categories, Title", lera.Search(film, above, []*term.Term{cats, title}), "FILM.Title"},
		{"Categories", lera.Search(film, above, []*term.Term{cats}), ""},
		{"Numf + 1", lera.Search(film, above, []*term.Term{lera.Call("+", numf, term.Num(1))}), ""},
		{"one row", lera.Search(film, lera.Ands(lera.Cmp("=", numf, term.Num(7))), []*term.Term{title}), ""},
		{"self-join", lera.Search([]*term.Term{lera.Rel("FILM"), lera.Rel("FILM")},
			lera.Ands(lera.Cmp("=", numf, lera.Attr(2, 1)), lera.Cmp(">", numf, term.Num(5))), []*term.Term{numf}), ""},
		{"LET", term.F(lera.OpLet, term.Str("FILM"), lera.Search(film, above, []*term.Term{numf, title}),
			lera.Search(film, lera.TrueQual(), []*term.Term{numf})), "FILM.Numf"},
	} {
		for _, par := range []int{1, 2} {
			cfg := runCfg{par: par}
			forceDedup = true
			want := runOn(filmsN(t, n), c.q, cfg)
			forceDedup = false
			db := filmsN(t, n)
			got := runOn(db, c.q, cfg)
			if d := diffRuns(want, got); d != "" || got.Err != "" {
				t.Errorf("%s par=%d: dedup skipped vs forced: %s %s", c.name, par, d, got.Err)
			}
			labels := statsLabels(db.LastExecStats(), func(o *OpStats) string { return o.Distinct })
			if strings.Join(labels, ",") != c.distinct {
				t.Errorf("%s par=%d: distinct columns %v, want %q", c.name, par, labels, c.distinct)
			}
		}
	}

	// No grant fits a dedup set of 2 995 rows, and there is no spill
	// directory: only the forced dedup fails.
	q := lera.Search(film, above, []*term.Term{numf, title})
	cfg := runCfg{par: 1, lim: guard.Limits{MaxMemBytes: 1}}
	if run := runOn(filmsN(t, n), q, cfg); run.Err != "" || run.NRows != n-5 {
		t.Errorf("under a 1-byte grant: %d rows, error %q; want %d rows", run.NRows, run.Err, n-5)
	}
	forceDedup = true
	run := runOn(filmsN(t, n), q, cfg)
	forceDedup = false
	if !strings.Contains(run.Err, "dedup set") {
		t.Errorf("forced dedup under a 1-byte grant: error %q, want the dedup set over the grant", run.Err)
	}
}

// TestSortedIndexSpan pins span against a scan of CompareRef outcomes for
// each operator and constant over a column with duplicates and ±0.0.
func TestSortedIndexSpan(t *testing.T) {
	cells := []float64{2.5, negZero(), 7, 0, 2.5, -3, 1e9, 0, 2.5}
	rows := make([][]value.Value, len(cells))
	for i, f := range cells {
		rows[i] = []value.Value{value.Real(f)}
	}
	ix := buildSortedIndex(rows, 0)
	if ix.kind != value.KReal {
		t.Fatalf("kind %s, want real", ix.kind)
	}
	for op, mask := range map[string]uint8{"=": 2, "<": 1, "<=": 3, ">": 4, ">=": 6} {
		for _, c := range []float64{-100, -3, 0, negZero(), 1, 2.5, 7, 1e9, math.Inf(1)} {
			v := value.Real(c)
			lo, hi := ix.span(mask, &v)
			for p, o := range ix.ord {
				in := mask>>(value.CompareRef(&rows[o][0], &v)+1)&1 != 0
				if in != (lo <= p && p < hi) {
					t.Errorf("cell %v %s %v: position %d in span [%d, %d) = %v", rows[o][0], op, c, p, lo, hi, !in)
				}
			}
		}
	}
	rows = append(rows, []value.Value{value.Real(nanValue())})
	if k := buildSortedIndex(rows, 0).kind; k != value.KNull {
		t.Errorf("a column with NaN indexed as %s", k)
	}
}
