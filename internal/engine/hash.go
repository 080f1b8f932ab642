package engine

// 64-bit hashed row keys — the engine's replacement for the reference
// evaluator's rowKey strings (reference_test.go). A row hashes to one
// uint64 (FNV-1a over the per-value structural hashes); equality is
// decided by a collision-checked structural comparison that reproduces
// rowKey-string equality exactly without materializing the key:
//
//   - ints and reals compare by their float64 bit pattern (Key encodes
//     both through strconv.FormatFloat of the float64 value, so 5 and 5.0
//     collapse while -0.0 and 0.0 stay distinct), with every NaN payload
//     treated as equal, mirroring FormatFloat's single "NaN" rendering;
//   - tuples compare field names as Key does — by their ","-joined
//     concatenation — so the (pathological) name lists that Key cannot
//     distinguish stay indistinguishable here too;
//   - everything else compares structurally, which is what the
//     length-prefixed, self-delimiting Key encoding boils down to.
//
// value.Hash is consistent with this equality (Key-equal values hash
// identically), so hash buckets only ever split rowKey-distinct rows.
//
// A join key is matched by `=`, not by row identity: keyColsEq is the same
// comparison with -0.0 equal to 0.0, as value.CompareRef has them, and
// value.Hash already folds the two into one hash.

import (
	"math"
	"math/bits"
	"strings"

	"lera/internal/value"
)

// rowHash folds a row into a single 64-bit hash. Rows with equal rowKey
// strings hash identically.
func rowHash(row []value.Value) uint64 {
	h := uint64(value.HashOffset)
	for i := range row {
		h = value.HashUint(h, row[i].Hash())
	}
	return h
}

// hashKey folds the key columns of a row (by index) into a 64-bit hash —
// the join-build/probe hash. Rows whose key columns are keyColsEq-equal
// hash identically.
func hashKey(row []value.Value, keyIdx []int) uint64 {
	h := uint64(value.HashOffset)
	for _, k := range keyIdx {
		h = value.HashUint(h, row[k].Hash())
	}
	return h
}

// hashRowFn and hashKeyFn are the indirection points every hashed
// structure routes through — rowSet, joinIndex, the grace-hash
// partitioner and the spilled membership sets. Production code always
// runs the FNV hashers above; the collision-audit tests swap in a
// constant hasher to force every row into one probe chain of a row set or
// join index and one spill partition, proving the collision-checked
// equality fallback carries correctness on its own.
var (
	hashRowFn = rowHash
	hashKeyFn = hashKey
)

// valueKeyEq reports whether a and b encode to the same Key string — the
// exact equality the string-keyed reference evaluator uses — without
// building the strings. The values are compared where they lie: the hot
// loops (join probes, dedup buckets) call this per candidate, and a
// value.Value is too wide to pass by value there.
func valueKeyEq(a, b *value.Value) bool { return valueEq(a, b, false) }

// valueEq is valueKeyEq, except that with zeroes set -0.0 equals 0.0 at
// any depth: the equality of a join key.
func valueEq(a, b *value.Value, zeroes bool) bool {
	aNum := a.K == value.KInt || a.K == value.KReal
	bNum := b.K == value.KInt || b.K == value.KReal
	if aNum || bNum {
		if !aNum || !bNum {
			return false
		}
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		if math.Float64bits(af) == math.Float64bits(bf) || zeroes && af == 0 && bf == 0 {
			return true
		}
		return math.IsNaN(af) && math.IsNaN(bf)
	}
	if a.K != b.K {
		return false
	}
	switch a.K {
	case value.KNull:
		return true
	case value.KBool:
		return a.B() == b.B()
	case value.KOID:
		return a.OID() == b.OID()
	case value.KString:
		return a.S == b.S
	}
	// Tuples and collections: element-wise, then tuple field names.
	if len(a.Elems) != len(b.Elems) {
		return false
	}
	for i := range a.Elems {
		if !valueEq(&a.Elems[i], &b.Elems[i], zeroes) {
			return false
		}
	}
	if a.K == value.KTuple {
		return tupleNamesKeyEq(a.Names(), b.Names())
	}
	return true
}

// tupleNamesKeyEq compares tuple field-name lists the way Key encodes
// them: as their ","-joined concatenation. Tuples of one schema built by
// one operator share their names, which the pointer test settles at once;
// the element-wise path covers every other realistic schema; the join
// fallback keeps the comparison exactly Key-faithful for names that
// themselves contain commas.
func tupleNamesKeyEq(a, b []string) bool {
	if len(a) == len(b) {
		if len(a) == 0 || &a[0] == &b[0] {
			return true
		}
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return strings.Join(a, ",") == strings.Join(b, ",")
}

// rowKeyEq reports whether two rows encode to the same rowKey string.
func rowKeyEq(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !valueKeyEq(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// keyColsEq reports whether columns acols of row a and bcols of row b are
// pairwise equal as join keys — rowKeyEq over two key projections, with
// -0.0 equal to 0.0, without materialising either.
func keyColsEq(a []value.Value, acols []int, b []value.Value, bcols []int) bool {
	for i, ac := range acols {
		if !valueEq(&a[ac], &b[bcols[i]], true) {
			return false
		}
	}
	return true
}

// rowSet is the hashed replacement for a map[string]bool over rowKey
// strings (dedup, fixpoint accumulation, INTERN/DIFF membership, grace
// dedup's leaf): one open-addressed table in joinIndex's style. The rows
// sit in a row store in insertion order with their hashes beside them, and
// a power-of-two slot array holds ordinals into the store — linear probing
// at load ≤ ½, the stored hash compared before the collision-checked
// structural equality. First-seen semantics are the string map's, without a
// key string per row and without anything allocated per row: the set
// allocates only when its table doubles, and a doubling re-seats the
// ordinals from the stored hashes, so a row is hashed once in its life.
// The zero rowSet is empty and ready.
type rowSet struct {
	rows   [][]value.Value // the distinct rows, first occurrences in insertion order
	hashes []uint64        // hashes[o] is the hash rows[o] was added under
	slots  []int32         // ordinal+1 of the row seated there; 0 = empty
	shift  uint            // 64 − log2(len(slots)): a hash's home slot is its top bits
}

// rowSetMinRows is what a set's first table holds: small, so that the
// many few-row seen-sets of a fixpoint workload pay next to nothing.
const rowSetMinRows = 4

// reserve sizes the set to hold n rows in all without growing again: the slot
// table at load ≤ ½, the row and hash stores at capacity n. Rows already
// held are re-seated from their stored hashes, in insertion order.
func (s *rowSet) reserve(n int) {
	if cap(s.rows) < n {
		s.rows = append(make([][]value.Value, 0, n), s.rows...)
	}
	if cap(s.hashes) < n {
		s.hashes = append(make([]uint64, 0, n), s.hashes...)
	}
	s.slots, s.shift = newSlots(n, rowSetMinRows)
	mask := len(s.slots) - 1
	for o, h := range s.hashes {
		i := homeSlot(h, s.shift)
		for s.slots[i] != 0 {
			i = (i + 1) & mask
		}
		s.slots[i] = int32(o) + 1
	}
}

// newSlots makes an empty slot table for n entries, and at least least, at
// load ≤ ½: the smallest power of two of at least twice that many slots,
// and its shift, 64 − log2 of its size.
func newSlots(n, least int) ([]int32, uint) {
	size := 2 * least
	for size < 2*n {
		size *= 2
	}
	return make([]int32, size), uint(64 - bits.TrailingZeros(uint(size)))
}

// homeSlot returns the slot a probe for hash h starts at in a table whose
// shift newSlots returned: the top bits of a Fibonacci multiply, so the
// table does not lean on the low bits of FNV.
func homeSlot(h uint64, shift uint) int { return int((h * slotMul) >> shift) }

const slotMul = 0x9E3779B97F4A7C15 // 2^64 / the golden ratio, odd

// find probes for row under hash h. It returns the slot holding the equal
// row and true, or the empty slot that ended the probe and false. The table
// must exist.
func (s *rowSet) find(h uint64, row []value.Value) (int, bool) {
	mask := len(s.slots) - 1
	i := homeSlot(h, s.shift)
	for ; s.slots[i] != 0; i = (i + 1) & mask {
		if o := s.slots[i] - 1; s.hashes[o] == h && rowKeyEq(s.rows[o], row) {
			return i, true
		}
	}
	return i, false
}

// add inserts row and reports whether it was newly added.
func (s *rowSet) add(row []value.Value) bool { return s.addHashed(hashRowFn(row), row) }

// addHashed is add for a caller that already holds row's hash (a spill
// record carries it).
func (s *rowSet) addHashed(h uint64, row []value.Value) bool {
	if 2*(len(s.rows)+1) > len(s.slots) {
		s.reserve(max(rowSetMinRows, 2*len(s.rows)))
	}
	i, found := s.find(h, row)
	if found {
		return false
	}
	s.slots[i] = int32(len(s.rows)) + 1
	s.rows = append(s.rows, row)
	s.hashes = append(s.hashes, h)
	return true
}

// has reports membership without inserting.
func (s *rowSet) has(row []value.Value) bool {
	if len(s.rows) == 0 {
		return false
	}
	_, found := s.find(hashRowFn(row), row)
	return found
}

// dedupRows removes duplicate rows in place (first occurrence wins),
// matching the reference evaluator's Relation.Dedup (reference_test.go)
// exactly. The caller must own the slice: it is the set's row store — a
// row is only ever written at or before the position it was read from —
// and the table beside it is sized once, so the pass allocates twice
// however many rows there are.
func dedupRows(rows [][]value.Value) [][]value.Value {
	if len(rows) < 2 {
		return rows
	}
	s := rowSet{rows: rows[:0]}
	s.reserve(len(rows))
	for _, row := range rows {
		s.add(row)
	}
	return s.rows
}

// joinGroup is one distinct join key of a joinIndex: the run of its rows in
// the index's rows. The key itself is not stored — it is the key columns of
// the run's first row.
type joinGroup struct {
	hash     uint64 // the key's hash
	start, n int32  // the run: rows[start : start+n]
}

// joinIndex is the hashed side of a batch hash join (and the persistent
// per-relation index, index.go): the rows of src grouped by their key
// columns, and one open-addressed table over the groups — linear probing
// at load ≤ ½, a group's stored hash compared before the collision-checked
// key equality. A group's rows lie in rows as one contiguous run in
// insertion order, so a probe reads one slot, one group and one run, and
// emits the matches in the sequence the reference's string-keyed map
// gives. ord maps a run position back to the row's ordinal in src, so one
// index serves both join directions: the rows of a build side for a
// driving prefix row, and the prefix rows a driving relation row pairs
// with (batchsearch.go). Nothing is allocated per key or per row: a header
// and an ordinal per row, a 16-byte group per distinct key and the slot
// table. Positions are int32 — far beyond what an in-memory relation of
// row slices can hold.
type joinIndex struct {
	keyIdx []int
	src    [][]value.Value // the indexed slice, as given; nil in a grace partition's index
	rows   [][]value.Value // the indexed rows, group by group
	ord    []int32         // ord[c] is the ordinal in src of rows[c]; nil with src
	groups []joinGroup
	slots  []int32 // group+1 of the key seated there; 0 = empty
	shift  uint    // 64 − log2(len(slots))
}

// newJoinIndex returns an empty index on keyIdx for n rows: the slot table
// at load ≤ ½ however many keys they hold, and the run store.
func newJoinIndex(keyIdx []int, n int) *joinIndex {
	ix := &joinIndex{keyIdx: append([]int(nil), keyIdx...), rows: make([][]value.Value, n)}
	ix.slots, ix.shift = newSlots(n, 1)
	return ix
}

// buildJoinIndex indexes src by the columns in keyIdx: one hashing pass
// that seats each row in its key's group, then a counting sort into runs.
func buildJoinIndex(src [][]value.Value, keyIdx []int) *joinIndex {
	ix := newJoinIndex(keyIdx, len(src))
	group := make([]int32, len(src))
	for i, row := range src {
		group[i] = ix.seat(hashKeyFn(row, keyIdx), row)
	}
	ix.runs()
	ix.src, ix.ord = src, make([]int32, len(src))
	for i, g := range group {
		c := ix.place(g)
		ix.rows[c], ix.ord[c] = src[i], int32(i)
	}
	return ix
}

// indexRecords indexes a loaded grace partition by the columns in keyIdx,
// under the key hashes its records were routed by: no row is hashed again,
// and the rows go straight into the runs, the partition's one header
// slice. The index has no src and no ord.
func indexRecords(recs []spillRecord, keyIdx []int) *joinIndex {
	ix := newJoinIndex(keyIdx, len(recs))
	group := make([]int32, len(recs))
	for i, rec := range recs {
		group[i] = ix.seat(rec.hash, rec.row)
	}
	ix.runs()
	for i, g := range group {
		ix.rows[ix.place(g)] = recs[i].row
	}
	return ix
}

// seat is the build's first pass for one row of key hash h: it counts the
// row in its key's group, opening the group when the key is new, and
// returns the group. Until runs, a group's start is its own number and
// rows[g] holds group g's first row, which stands for its key.
func (ix *joinIndex) seat(h uint64, row []value.Value) int32 {
	s, g := ix.find(h, row, ix.keyIdx)
	if g < 0 {
		g = int32(len(ix.groups))
		ix.slots[s] = g + 1
		ix.rows[g] = row
		ix.groups = append(ix.groups, joinGroup{hash: h, start: g})
	}
	ix.groups[g].n++
	return g
}

// runs lays the groups' runs end to end, in the order their keys were
// first seen, and empties them for place to fill.
func (ix *joinIndex) runs() {
	at := int32(0)
	for g := range ix.groups {
		grp := &ix.groups[g]
		grp.start, at, grp.n = at, at+grp.n, 0
	}
}

// place returns the run position of group g's next row. Rows placed in
// insertion order fill each run in insertion order.
func (ix *joinIndex) place(g int32) int {
	grp := &ix.groups[g]
	grp.n++
	return int(grp.start + grp.n - 1)
}

// find probes for the group whose key equals row's columns at cols under
// hash h. It returns the group's slot and the group, or the empty slot that
// ended the probe and -1.
func (ix *joinIndex) find(h uint64, row []value.Value, cols []int) (int, int32) {
	mask := len(ix.slots) - 1
	i := homeSlot(h, ix.shift)
	for ; ix.slots[i] != 0; i = (i + 1) & mask {
		g := ix.slots[i] - 1
		if grp := &ix.groups[g]; grp.hash == h && keyColsEq(ix.rows[grp.start], ix.keyIdx, row, cols) {
			return i, g
		}
	}
	return i, -1
}

// probe looks up the group whose key equals row's columns at cols and
// returns its run, the matches ix.rows[start : start+n] in insertion
// order; n is 0 when no key matches.
func (ix *joinIndex) probe(row []value.Value, cols []int) (start, n int) {
	if _, g := ix.find(hashKeyFn(row, cols), row, cols); g >= 0 {
		return int(ix.groups[g].start), int(ix.groups[g].n)
	}
	return 0, 0
}
