package engine

// The flat row set (hash.go; docs/PERF.md, "Row sets and by-reference
// values") against its definition: a map[string]bool over rowKey strings,
// which is what the reference evaluator deduplicates with. A table-driven
// differential test, a fuzzer over rows decoded by the spill codec, and the
// allocation gates that keep the set from allocating per row again. Beside
// it the join index's fuzzer, over the same rows, against a map from key
// strings to ordinals.

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"lera/internal/value"
)

// sameRow reports whether a and b are the very same row — not merely
// key-equal: the set must keep the first occurrence, with its Kinds and its
// NaN payload, and hand back that slice.
func sameRow(a, b []value.Value) bool {
	return len(a) == len(b) && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// checkRowSet feeds rows to a rowSet and to dedupRows and checks every
// has/add answer, and the first-occurrence order of what is kept, against a
// map[string]bool over rowKey strings. It returns the set for the caller to
// look at.
func checkRowSet(t testing.TB, rows [][]value.Value) *rowSet {
	t.Helper()
	ref := map[string]bool{}
	var want [][]value.Value
	s := &rowSet{}
	for i, row := range rows {
		k := rowKey(row)
		if got := s.has(row); got != ref[k] {
			t.Fatalf("row %d (%s): has = %v before its add, reference says %v", i, k, got, ref[k])
		}
		if got := s.add(row); got == ref[k] {
			t.Fatalf("row %d (%s): add = %v, reference had it: %v", i, k, got, ref[k])
		}
		if !ref[k] {
			ref[k] = true
			want = append(want, row)
		}
		if !s.has(row) {
			t.Fatalf("row %d (%s): not a member right after its add", i, k)
		}
	}
	sameRows := func(what string, got [][]value.Value) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s keeps %d rows, reference %d", what, len(got), len(want))
		}
		for i := range got {
			if !sameRow(got[i], want[i]) {
				t.Fatalf("%s row %d is %s, the reference's first occurrence is %s", what, i, rowKey(got[i]), rowKey(want[i]))
			}
		}
	}
	sameRows("rowSet", s.rows)
	if len(s.hashes) != len(s.rows) || (len(s.rows) > 0 && 2*len(s.rows) > len(s.slots)) {
		t.Fatalf("%d rows, %d hashes, %d slots: store out of step or load over 1/2", len(s.rows), len(s.hashes), len(s.slots))
	}
	// Every row is still a member once the table has stopped growing.
	for i, row := range rows {
		if !s.has(row) {
			t.Fatalf("row %d (%s) lost from the set", i, rowKey(row))
		}
	}
	sameRows("dedupRows", dedupRows(append([][]value.Value(nil), rows...)))
	return s
}

// cornerRows are the equalities hash.go documents, each beside what it must
// and must not collapse with.
func cornerRows() [][]value.Value {
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0x7ff8000000000002)
	tuple := func(names []string, vals ...value.Value) value.Value { return value.NewTuple(names, vals) }
	cells := []value.Value{
		value.Int(5), value.Real(5), value.Real(5.5), value.Int(-5),
		value.Real(math.Copysign(0, -1)), value.Real(0), value.Int(0),
		value.Real(nan1), value.Real(nan2), value.Real(math.Inf(1)),
		value.Null, value.False, value.True, value.String(""), value.String("5"), value.OID(5),
		tuple([]string{"a,b", "c"}, value.Int(1), value.Int(2)),
		tuple([]string{"a", "b,c"}, value.Int(1), value.Int(2)),
		tuple([]string{"a", "b"}, value.Int(1), value.Int(2)),
		tuple([]string{"a", "b"}, value.Real(1), value.Int(2)),
		value.NewSet(value.Int(1), value.Int(2)), value.NewBag(value.Int(1), value.Int(2)),
		value.NewList(value.Int(1), value.Int(2)), value.NewList(value.Int(2), value.Int(1)),
		value.NewList(), value.NewSet(),
		// Four kinds, one payload word: only the kind tells them apart.
		value.Int(1), value.True, value.OID(1), value.Real(math.Float64frombits(1)),
	}
	var rows [][]value.Value
	for i := range cells {
		rows = append(rows, []value.Value{cells[i]})
	}
	for i := range cells {
		rows = append(rows, []value.Value{cells[i], cells[(i+1)%len(cells)]})
	}
	rows = append(rows, []value.Value{}, []value.Value{})
	// Every row a second time, as a distinct slice, in reverse.
	for i := len(rows) - 1; i >= 0; i-- {
		rows = append(rows, append([]value.Value{}, rows[i]...))
	}
	return rows
}

// intRows returns n two-column rows over distinct keys 0..distinct-1, so
// every key past the first round is a duplicate.
func intRows(n, distinct int) [][]value.Value {
	rows := make([][]value.Value, n)
	for i := range rows {
		k := int64(i % distinct)
		rows[i] = []value.Value{value.Int(k), value.Int(k * 7)}
	}
	return rows
}

// homeLast is the hash whose home is the last slot of a table of any size:
// times the slot multiplier it is all ones (−1/m mod 2^64, by Newton's
// iteration on the odd m).
var homeLast = func() uint64 {
	inv := uint64(slotMul)
	for i := 0; i < 6; i++ {
		inv *= 2 - slotMul*inv
	}
	return -inv
}()

func TestRowSetDifferential(t *testing.T) {
	if i := homeSlot(homeLast, 64-4); i != 15 {
		t.Fatalf("homeLast is at home in slot %d of 16", i)
	}
	constant := func([]value.Value) uint64 { return 0xDEAD }
	cases := []struct {
		name      string
		rows      [][]value.Value
		hash      func([]value.Value) uint64 // nil: the production hasher
		doublings int                        // the table must have doubled at least this often
	}{
		{name: "doublings", rows: intRows(3000, 1000), doublings: 7},
		{name: "doublings, one probe chain", rows: intRows(400, 100), hash: constant, doublings: 4},
		// Three hashes: chains of rows that collide run into chains that do
		// not, so the stored hash decides before rowKeyEq does.
		{name: "three hashes", rows: intRows(400, 100), doublings: 4,
			hash: func(r []value.Value) uint64 { return uint64(r[0].I % 3) }},
		// Every probe starts in the last slot of the table and wraps.
		{name: "wrap-around", rows: intRows(400, 100), doublings: 4,
			hash: func([]value.Value) uint64 { return homeLast }},
		{name: "corner cases", rows: cornerRows()},
		{name: "corner cases, one probe chain", rows: cornerRows(), hash: constant},
		{name: "no rows", rows: nil},
		{name: "one row", rows: intRows(1, 1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.hash != nil {
				saved := hashRowFn
				hashRowFn = c.hash
				defer func() { hashRowFn = saved }()
			}
			s := checkRowSet(t, c.rows)
			if min := 2 * rowSetMinRows << c.doublings; c.doublings > 0 && len(s.slots) < min {
				t.Errorf("%d slots: the table doubled fewer than %d times", len(s.slots), c.doublings)
			}
		})
	}

	// The corner cases themselves, spelled out once: what collapses and what
	// does not is rowKey's decision, and the set's.
	one := func(v value.Value) []value.Value { return []value.Value{v} }
	var s rowSet
	for _, step := range []struct {
		v     value.Value
		fresh bool
	}{
		{value.Int(5), true}, {value.Real(5), false},
		{value.Real(0), true}, {value.Real(math.Copysign(0, -1)), true}, {value.Int(0), false},
		{value.Real(math.NaN()), true}, {value.Real(math.Float64frombits(0x7ff8000000000777)), false},
		{value.NewTuple([]string{"a,b", "c"}, []value.Value{value.Int(1), value.Int(2)}), true},
		{value.NewTuple([]string{"a", "b,c"}, []value.Value{value.Int(1), value.Int(2)}), false},
		{value.NewTuple([]string{"a", "b", "c"}, []value.Value{value.Int(1), value.Int(2), value.Int(3)}), true},
		{value.Int(1), true}, {value.True, true}, {value.OID(1), true}, {value.Real(math.Float64frombits(1)), true},
	} {
		if got := s.add(one(step.v)); got != step.fresh {
			t.Errorf("add(%s) = %v, want %v", step.v, got, step.fresh)
		}
	}
}

// fuzzRows turns fuzz bytes into rows through the spill codec: the rows of
// whatever framed records data starts with, data as one row payload, and —
// so that a single decoded row still exercises the set — each such row's
// cells and prefixes as rows of their own. Then all of it again in reverse,
// as duplicates.
func fuzzRows(data []byte) [][]value.Value {
	var decoded [][]value.Value
	for pos := 0; pos < len(data) && len(decoded) < 64; {
		rec, _, next, err := decodeRecord(data, pos, nil)
		if err != nil {
			break
		}
		decoded = append(decoded, rec.row)
		pos = next
	}
	if row, err := decodeRow(data); err == nil {
		decoded = append(decoded, row)
	}
	var rows [][]value.Value
	for _, row := range decoded {
		rows = append(rows, row)
		for i := 0; i < len(row) && i < 32; i++ {
			rows = append(rows, row[i:i+1:i+1], row[:i:i])
		}
	}
	for i := len(rows) - 1; i >= 0; i-- {
		rows = append(rows, rows[i])
	}
	return rows
}

// FuzzRowSet: whatever rows the spill codec can decode, the flat set agrees
// with a map over rowKey strings on every answer and on first-occurrence
// order — under the production hasher and with every row forced into one
// probe chain.
func FuzzRowSet(f *testing.F) {
	addRowSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := fuzzRows(data)
		checkRowSet(t, rows)
		saved := hashRowFn
		hashRowFn = func([]value.Value) uint64 { return 0xDEAD }
		defer func() { hashRowFn = saved }()
		checkRowSet(t, rows)
	})
}

// addRowSeeds seeds a fuzzer of fuzzRows from the committed FuzzSpillCodec
// corpus (read here, not copied) and from the corner-case rows, framed as
// partition records.
func addRowSeeds(f *testing.F) {
	seeds, _ := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzSpillCodec", "*"))
	if len(seeds) == 0 {
		f.Fatal("no FuzzSpillCodec corpus to seed from")
	}
	for _, path := range seeds {
		file, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(<quoted>)\n"
		_, lit, _ := bytes.Cut(bytes.TrimSpace(file), []byte("\n[]byte("))
		seed, err := strconv.Unquote(string(bytes.TrimSuffix(lit, []byte(")"))))
		if err != nil {
			f.Fatalf("%s: %v", path, err)
		}
		f.Add([]byte(seed))
	}
	var framed []byte
	for _, row := range cornerRows()[:40] {
		payload := appendRow(make([]byte, 16), row) // a record's hash and index: unused here
		framed = append(binary.AppendUvarint(framed, uint64(len(payload))), payload...)
	}
	f.Add(framed)
}

// FuzzJoinIndex: whatever rows the spill codec can decode, the clustered
// join index answers a probe with exactly the rows a map from the key
// columns' rowKey strings to ordinals lists, in insertion order, as one
// run — on key column 0 and, over the rows wide enough, on columns 0 and
// 1; under the production hasher, with every key in one probe chain, and
// with that chain wrapping past the table's last slot. Seeded like
// FuzzRowSet.
func FuzzJoinIndex(f *testing.F) {
	addRowSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		rows := fuzzRows(data)
		saved := hashKeyFn
		defer func() { hashKeyFn = saved }()
		constant := func(h uint64) func([]value.Value, []int) uint64 {
			return func([]value.Value, []int) uint64 { return h }
		}
		for _, hashKeyFn = range []func([]value.Value, []int) uint64{saved, constant(0xDEAD), constant(homeLast)} {
			for _, keys := range [][]int{{0}, {0, 1}} {
				var src [][]value.Value
				for _, row := range rows {
					if len(row) > keys[len(keys)-1] {
						src = append(src, row)
					}
				}
				// Half the rows indexed, all of them probing: the other
				// half brings keys the index does not hold.
				checkJoinIndex(t, src[:len(src)/2], src, keys)
				checkJoinIndex(t, src, src, keys)
			}
		}
	})
}

// checkJoinIndex indexes src on keys and probes it with every row of
// drive, against a map from the key columns' rowKey, with -0.0 made 0.0, to
// src ordinals. The grace join's index of the same rows as partition
// records must lay out the same groups and runs.
func checkJoinIndex(t *testing.T, src, drive [][]value.Value, keys []int) {
	t.Helper()
	key := func(row []value.Value) string {
		cols := make([]value.Value, len(keys))
		for i, k := range keys {
			cols[i] = foldZero(row[k])
		}
		return rowKey(cols)
	}
	want := map[string][]int32{}
	for o, row := range src {
		want[key(row)] = append(want[key(row)], int32(o))
	}
	ix := buildJoinIndex(src, keys)
	if len(ix.groups) != len(want) || len(ix.rows) != len(src) || len(ix.ord) != len(src) {
		t.Fatalf("keys %v: %d groups over %d rows (%d ordinals), want %d over %d",
			keys, len(ix.groups), len(ix.rows), len(ix.ord), len(want), len(src))
	}
	recs := make([]spillRecord, len(src))
	for o, row := range src {
		recs[o] = spillRecord{hash: hashKeyFn(row, keys), row: row}
	}
	if rx := indexRecords(recs, keys); !slices.Equal(rx.groups, ix.groups) || !slices.EqualFunc(rx.rows, ix.rows, sameRow) {
		t.Fatalf("keys %v: the index of the rows as records lays out other runs", keys)
	}
	for d, row := range drive {
		start, n := ix.probe(row, keys)
		ords := want[key(row)]
		if n != len(ords) || !slices.Equal(ix.ord[start:start+n], ords) {
			t.Fatalf("keys %v, probe row %d (%s): run ordinals %v, want %v", keys, d, key(row), ix.ord[start:start+n], ords)
		}
		for c := start; c < start+n; c++ {
			if !sameRow(ix.rows[c], src[ix.ord[c]]) {
				t.Fatalf("keys %v: run position %d holds a row other than src[%d]", keys, c, ix.ord[c])
			}
		}
	}
}

// TestRowSetAllocs: the set allocates when its table is sized, never per
// row. At the parent commit every distinct row cost a map bucket slice —
// 1 020 allocations to deduplicate 1 000 rows, 100 530 for 100 000, 7 for a
// four-row seen-set.
func TestRowSetAllocs(t *testing.T) {
	distinct := func(n int) [][]value.Value { return intRows(n, n) }

	// dedupRows: the hash store and the slot table, sized once. Distinct
	// rows stay where they are, so the same slice serves every run.
	var dedup [2]float64
	for i, n := range []int{1_000, 100_000} {
		rows := distinct(n)
		dedup[i] = testing.AllocsPerRun(3, func() {
			if got := dedupRows(rows); len(got) != n {
				t.Fatalf("dedupRows kept %d of %d distinct rows", len(got), n)
			}
		})
	}
	t.Logf("dedupRows: %.0f allocations for 1 000 rows, %.0f for 100 000", dedup[0], dedup[1])
	if dedup[0] != dedup[1] || dedup[1] > 2 {
		t.Errorf("dedupRows allocates %.0f times for 1 000 rows and %.0f for 100 000, want the same two", dedup[0], dedup[1])
	}

	// memSet: one allocation for itself and three per doubling of a table
	// that starts at rowSetMinRows rows. AllocsPerRun counts the whole
	// process's mallocs, and this bound has no slack: with the collector
	// off, no cleanup the runtime queues after a GC (net/netip's unique
	// handles register one) is counted against the set.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	db := &DB{}
	feed := func(rows [][]value.Value) float64 {
		return testing.AllocsPerRun(3, func() {
			m := db.newMemSet("test seen-set")
			for _, row := range rows {
				if fresh, err := m.add(row); err != nil || !fresh {
					t.Fatalf("add = %v, %v", fresh, err)
				}
			}
			m.close()
		})
	}
	const n = 100_000
	got, limit := feed(distinct(n)), float64(1+3*(bits.Len(n/rowSetMinRows)+1))
	t.Logf("memSet: %.0f allocations for %d rows (limit %.0f)", got, n, limit)
	if got > limit {
		t.Errorf("memSet allocated %.0f times for %d rows, want O(log n) <= %.0f", got, n, limit)
	}

	// The few-row seen-sets of a fixpoint workload: no dearer than the
	// bucket map was (2, 4 and 7 allocations at the parent commit).
	for rows, parent := range map[int]float64{0: 2, 1: 4, 4: 7} {
		got := feed(distinct(rows))
		t.Logf("memSet: %.0f allocations for %d rows (parent %.0f)", got, rows, parent)
		if got > parent || got > 4 {
			t.Errorf("a %d-row seen-set allocates %.0f times, the parent's took %.0f", rows, got, parent)
		}
	}
}

// foldZero returns v with every -0.0 in it, at any depth, made 0.0: a join
// key's equality is rowKey equality with the two zeros one value.
func foldZero(v value.Value) value.Value {
	switch {
	case v.K == value.KReal && v.F() == 0:
		return value.Real(0)
	case len(v.Elems) > 0:
		w := v
		w.Elems = make([]value.Value, len(v.Elems))
		for i, e := range v.Elems {
			w.Elems[i] = foldZero(e)
		}
		return w
	}
	return v
}
