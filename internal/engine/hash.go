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
// the join-build/probe hash. Rows whose key columns are rowKey-equal
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
// constant hasher to force every row into one probe chain, one index
// bucket and one spill partition, proving the collision-checked equality
// fallback carries correctness on its own.
var (
	hashRowFn = rowHash
	hashKeyFn = hashKey
)

// valueKeyEq reports whether a and b encode to the same Key string — the
// exact equality the string-keyed reference evaluator uses — without
// building the strings. The values are compared where they lie: the hot
// loops (join probes, dedup buckets) call this per candidate, and a
// value.Value is too wide to pass by value there.
func valueKeyEq(a, b *value.Value) bool {
	aNum := a.K == value.KInt || a.K == value.KReal
	bNum := b.K == value.KInt || b.K == value.KReal
	if aNum || bNum {
		if !aNum || !bNum {
			return false
		}
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		if math.Float64bits(af) == math.Float64bits(bf) {
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
		if !valueKeyEq(&a.Elems[i], &b.Elems[i]) {
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
// pairwise key-equal — rowKeyEq over two key projections, without
// materialising either.
func keyColsEq(a []value.Value, acols []int, b []value.Value, bcols []int) bool {
	for i, ac := range acols {
		if !valueKeyEq(&a[ac], &b[bcols[i]]) {
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

// reserve sizes the set to hold n rows in all without growing again: the
// slot table at the power of two that keeps the load at or under ½, the row
// and hash stores at capacity n. Rows already held are re-seated from their
// stored hashes, in insertion order.
func (s *rowSet) reserve(n int) {
	size := 2 * rowSetMinRows
	for size < 2*n {
		size *= 2
	}
	if cap(s.rows) < n {
		s.rows = append(make([][]value.Value, 0, n), s.rows...)
	}
	if cap(s.hashes) < n {
		s.hashes = append(make([]uint64, 0, n), s.hashes...)
	}
	s.slots = make([]int32, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for o, h := range s.hashes {
		i := s.home(h)
		for s.slots[i] != 0 {
			i = (i + 1) & (size - 1)
		}
		s.slots[i] = int32(o) + 1
	}
}

// home returns the slot a probe for hash h starts at: the top bits of a
// Fibonacci multiply, so the table does not lean on the low bits of FNV.
func (s *rowSet) home(h uint64) int { return int((h * slotMul) >> s.shift) }

const slotMul = 0x9E3779B97F4A7C15 // 2^64 / the golden ratio, odd

// find probes for row under hash h. It returns the slot holding the equal
// row and true, or the empty slot that ended the probe and false. The table
// must exist.
func (s *rowSet) find(h uint64, row []value.Value) (int, bool) {
	mask := len(s.slots) - 1
	i := s.home(h)
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

// joinGroup is one distinct join key of a joinIndex: the chain of its rows'
// ordinals. The key itself is not stored — it is the key columns of the
// head row.
type joinGroup struct {
	head, tail int32 // first and last row of the chain
	n          int32 // rows in the chain
	link       int32 // next group under the same hash (a collision); -1 = none
}

// joinIndex is the hashed side of a batch hash join (and the persistent
// per-relation index): the ordinals of rows grouped by their key columns
// under a 64-bit hash with collision-checked key groups. It answers a probe
// with row ordinals, so one index serves both join directions: the rows of
// a build side for a driving prefix row, and the prefix rows a driving
// relation row pairs with (batchsearch.go). A group's rows are chained
// through next in insertion order, matching the reference's string-keyed
// map, so probes emit matches in the same sequence. Nothing is allocated
// per key or per row: the index is the map, one ordinal per row and one
// 16-byte group per distinct key. Ordinals are int32 — far beyond what an
// in-memory relation of row slices can hold.
type joinIndex struct {
	keyIdx []int
	rows   [][]value.Value  // the indexed slice; ordinals index it
	byHash map[uint64]int32 // key hash → first group under it
	groups []joinGroup
	next   []int32 // next[o] = the row after o in its group's chain; -1 at the end
}

// buildJoinIndex indexes rows by the columns in keyIdx.
func buildJoinIndex(rows [][]value.Value, keyIdx []int) *joinIndex {
	ix := &joinIndex{
		keyIdx: append([]int(nil), keyIdx...),
		rows:   rows,
		byHash: make(map[uint64]int32, len(rows)),
		next:   make([]int32, len(rows)),
	}
	for i, row := range rows {
		o := int32(i)
		ix.next[o] = -1
		h := hashKeyFn(row, keyIdx)
		first, ok := ix.byHash[h]
		if !ok {
			first = -1
		}
		g := first
		for g >= 0 && !keyColsEq(rows[ix.groups[g].head], keyIdx, row, keyIdx) {
			g = ix.groups[g].link
		}
		if g < 0 {
			ix.byHash[h] = int32(len(ix.groups))
			ix.groups = append(ix.groups, joinGroup{head: o, tail: o, n: 1, link: first})
			continue
		}
		grp := &ix.groups[g]
		ix.next[grp.tail] = o
		grp.tail = o
		grp.n++
	}
	return ix
}

// probe looks up the group whose key equals row's columns at slots. It
// returns the ordinal of the group's first row and its row count — (-1, 0)
// when no key matches; ix.next chains the rest in insertion order.
func (ix *joinIndex) probe(row []value.Value, slots []int) (first int32, n int) {
	g, ok := ix.byHash[hashKeyFn(row, slots)]
	if !ok {
		return -1, 0
	}
	for ; g >= 0; g = ix.groups[g].link {
		grp := &ix.groups[g]
		if keyColsEq(ix.rows[grp.head], ix.keyIdx, row, slots) {
			return grp.head, int(grp.n)
		}
	}
	return -1, 0
}
