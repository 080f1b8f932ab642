package engine

// 64-bit hashed row keys — the engine's replacement for the reference
// evaluator's rowKey strings (reference.go). A row hashes to one uint64
// (FNV-1a over the per-value structural hashes); equality is decided by a
// collision-checked structural comparison that reproduces rowKey-string
// equality exactly without materializing the key:
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
	"strings"

	"lera/internal/value"
)

// rowHash folds a row into a single 64-bit hash. Rows with equal rowKey
// strings hash identically.
func rowHash(row []value.Value) uint64 {
	h := uint64(value.HashOffset)
	for _, v := range row {
		h = value.HashUint(h, v.Hash())
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
// constant hasher to force every row into one bucket (and one spill
// partition), proving the collision-checked equality fallback carries
// correctness on its own.
var (
	hashRowFn = rowHash
	hashKeyFn = hashKey
)

// valueKeyEq reports whether a and b encode to the same Key string — the
// exact equality the string-keyed reference evaluator uses — without
// building the strings.
func valueKeyEq(a, b value.Value) bool {
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if aok || bok {
		if !aok || !bok {
			return false
		}
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
		return a.B == b.B
	case value.KString:
		return a.S == b.S
	case value.KOID:
		return a.OID == b.OID
	}
	// Tuples and collections: element-wise, then tuple field names.
	if len(a.Elems) != len(b.Elems) {
		return false
	}
	for i := range a.Elems {
		if !valueKeyEq(a.Elems[i], b.Elems[i]) {
			return false
		}
	}
	if a.K == value.KTuple {
		return tupleNamesKeyEq(a.Names, b.Names)
	}
	return true
}

// tupleNamesKeyEq compares tuple field-name lists the way Key encodes
// them: as their ","-joined concatenation. The element-wise fast path
// covers every realistic schema; the join fallback keeps the comparison
// exactly Key-faithful for names that themselves contain commas.
func tupleNamesKeyEq(a, b []string) bool {
	if len(a) == len(b) {
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
		if !valueKeyEq(a[i], b[i]) {
			return false
		}
	}
	return true
}

// rowSet is the hashed replacement for a map[string]bool over rowKey
// strings (dedup, fixpoint accumulation, INTERN/DIFF membership):
// rows bucket under their 64-bit hash with collision-checked structural
// equality, preserving the first-seen semantics of the string map without
// building a key string per row.
type rowSet struct {
	m map[uint64][][]value.Value
}

func newRowSet() *rowSet { return &rowSet{m: map[uint64][][]value.Value{}} }

// add inserts row and reports whether it was newly added.
func (s *rowSet) add(row []value.Value) bool {
	h := hashRowFn(row)
	b := s.m[h]
	for _, r := range b {
		if rowKeyEq(r, row) {
			return false
		}
	}
	s.m[h] = append(b, row)
	return true
}

// has reports membership without inserting.
func (s *rowSet) has(row []value.Value) bool {
	for _, r := range s.m[hashRowFn(row)] {
		if rowKeyEq(r, row) {
			return true
		}
	}
	return false
}

// dedupRows removes duplicate rows in place (first occurrence wins),
// matching Relation.Dedup's output order exactly. The caller must own the
// slice.
func dedupRows(rows [][]value.Value) [][]value.Value {
	if len(rows) == 0 {
		return rows
	}
	s := newRowSet()
	out := rows[:0]
	for _, row := range rows {
		if s.add(row) {
			out = append(out, row)
		}
	}
	return out
}

// joinGroup is one distinct join key with its build rows in insertion
// order.
type joinGroup struct {
	key  []value.Value
	rows [][]value.Value
}

// joinIndex is the hashed build side of a batch hash join (and the
// persistent per-relation index): rows grouped by their key columns under
// a 64-bit hash with collision-checked key groups. Per-key row order is
// build insertion order, matching the reference's string-keyed map, so
// probes emit matches in the same sequence.
type joinIndex struct {
	keyIdx []int
	groups map[uint64][]*joinGroup
}

// buildJoinIndex indexes rows by the columns in keyIdx.
func buildJoinIndex(rows [][]value.Value, keyIdx []int) *joinIndex {
	ix := &joinIndex{
		keyIdx: append([]int(nil), keyIdx...),
		groups: make(map[uint64][]*joinGroup, len(rows)),
	}
	for _, row := range rows {
		h := hashKeyFn(row, keyIdx)
		var g *joinGroup
		for _, cand := range ix.groups[h] {
			match := true
			for i, k := range keyIdx {
				if !valueKeyEq(cand.key[i], row[k]) {
					match = false
					break
				}
			}
			if match {
				g = cand
				break
			}
		}
		if g == nil {
			key := make([]value.Value, len(keyIdx))
			for i, k := range keyIdx {
				key[i] = row[k]
			}
			g = &joinGroup{key: key}
			ix.groups[h] = append(ix.groups[h], g)
		}
		g.rows = append(g.rows, row)
	}
	return ix
}

// probe returns the build rows whose key equals the probe row's columns
// at slots, in build insertion order (nil when no key matches).
func (ix *joinIndex) probe(row []value.Value, slots []int) [][]value.Value {
	h := hashKeyFn(row, slots)
	for _, g := range ix.groups[h] {
		match := true
		for i, s := range slots {
			if !valueKeyEq(g.key[i], row[s]) {
				match = false
				break
			}
		}
		if match {
			return g.rows
		}
	}
	return nil
}
