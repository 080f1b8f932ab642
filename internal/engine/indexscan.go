package engine

// Index access paths (docs/PERF.md "Index access paths"): stage 1 of a
// SEARCH over a stored relation whose qualification leads with comparisons
// of one column against constants — what the permutation rules leave when
// they push a selection onto a stored relation (§5.2) — reads through the
// relation's sorted column index (index.go) and visits only the rows those
// comparisons select, instead of testing them on every row.
//
// Which path ran cannot be told from the outcome. The survivors meet the
// stage's other conjuncts and the projection in ordinal order, as in the
// scan; the leading comparisons are charged to PredEvals as short-circuit
// evaluation would charge them, row by row, up to the row at which the
// stage failed if it did; the guard ticks every batch of the relation the
// scan would tick; and the scan's arena is sized the same. Rows (order
// included), Counters, the timing-free stats tree and the first error's
// text are the scan's. Only EXPLAIN ANALYZE with timings says which path
// read a stage (OpStats.Index).
//
// The path is taken per evaluation, when the first relation is served
// straight from storage (storedRelName), no fault injector is armed — so
// the comparisons run the compiled kernel's CompareRef fast path, which
// cannot fail — and the column's cells are all of the constant's kind with
// a total order; a FILTER of a stored relation is such a SEARCH. Everything
// else — join stages, OR, a relation bound by LET or FIX, a column of mixed
// kinds — is scanned.

import (
	"math"
	"math/bits"
	"slices"

	"lera/internal/term"
	"lera/internal/value"
)

// forceScan makes every stage 1 scan its relation, as all did before the
// sorted column index. Only tests set it, to pin the two paths against each
// other; no option, flag or DB field reaches it.
var forceScan bool

// leadOf reports whether p is a leading comparison the sorted index can
// answer: a builtin =, <, <=, > or >= of a column of the relation with a
// constant of an indexable kind (not NaN). It returns the column, the
// constant and the CompareRef(cell, constant) outcomes p holds for — bit
// r+1 for outcome r — whichever side the constant was written on.
func leadOf(p pred) (col int, c *value.Value, mask uint8, ok bool) {
	n, isCmp := p.(*cmpNode)
	if !isCmp || !n.builtin || n.op == "<>" {
		return 0, nil, 0, false
	}
	cell, cst, mask := &n.a, &n.b, n.mask
	if cell.kind == opConst {
		// c op cell holds for the outcomes of cell op c mirrored.
		cell, cst, mask = &n.b, &n.a, mask&2|mask&1<<2|mask&4>>2
	}
	if cell.kind != opSlot || cst.kind != opConst {
		return 0, nil, 0, false
	}
	if k := cst.cval.K; k != value.KInt && k != value.KString && (k != value.KReal || math.IsNaN(cst.cval.F())) {
		return 0, nil, 0, false
	}
	return cell.slot, cst.cval, mask, true
}

// indexRead is one evaluation's read of stage 1 through a sorted index: the
// leading conjuncts the index answered — comparisons of its column with a
// constant of its kind — and the rows that pass them all: their ordinals
// ascending in sel or, for a wide span, set in the bitmap bits. Its zero
// value, with no index, is a scan.
type indexRead struct {
	ix   *sortedIndex
	lead []pred
	n    int // the rows that pass
	sel  []int32
	bits []uint64
}

// next returns the first ordinal at or after from of a row that passes the
// leading comparisons, or math.MaxInt; *i is the position in sel to look
// from, which it advances.
func (rd indexRead) next(from int, i *int) int {
	if rd.bits == nil {
		for *i < len(rd.sel) && int(rd.sel[*i]) < from {
			*i++
		}
		if *i < len(rd.sel) {
			return int(rd.sel[*i])
		}
		return math.MaxInt
	}
	w := from >> 6
	if w >= len(rd.bits) {
		return math.MaxInt
	}
	for word := rd.bits[w] &^ (1<<(from&63) - 1); ; word = rd.bits[w] {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		if w++; w == len(rd.bits) {
			return math.MaxInt
		}
	}
}

// readIndex returns the index read of rows, the stored relation rt names,
// for stage 1 of a program, st — the zero indexRead when the stage must
// scan. Under a FIX its buffers are the scratch's, scr.
func (db *DB) readIndex(scr *searchScratch, st *searchStage, rt *term.Term, e env, rows [][]value.Value) (rd indexRead) {
	preds := st.preds
	if len(preds) == 0 || db.Injector != nil || forceScan || db.idx == nil {
		return rd
	}
	col, _, _, ok := leadOf(preds[0])
	name := db.storedRelName(rt, e)
	if !ok || name == "" {
		return rd
	}
	ix := db.sortedIndex(name, rows, col)
	lo, hi, m := 0, len(ix.ord), 0
	point := false // the span lies in one run of equal cells
	for _, p := range preds {
		pc, c, mask, ok := leadOf(p)
		if !ok || pc != col || c.K != ix.kind {
			break
		}
		a, b := ix.span(mask, c)
		lo, hi, m = max(lo, a), min(hi, b), m+1
		point = point || mask == 2 // =
	}
	if m == 0 {
		return rd
	}
	hi = max(lo, hi)
	rd.ix, rd.lead, rd.n = ix, preds[:m], hi-lo
	sel, bm := scr.readBufs()
	switch span, k := ix.ord[lo:hi], hi-lo; {
	case point:
		// The stable sort left a run of equal cells in ordinal order.
		rd.sel = span
	case k*bits.Len(uint(k)) < len(ix.ord)/32:
		if cap(sel) < k {
			sel = make([]int32, 0, k)
		}
		rd.sel = append(sel[:0], span...)
		slices.Sort(rd.sel)
		scr.keepReadBufs(rd.sel, bm)
	default:
		// A wide span: a bitmap over the ordinals, not a sort of k·log k.
		words := (len(ix.ord) + 63) / 64
		if cap(bm) < words {
			bm = make([]uint64, words)
		}
		rd.bits = bm[:words]
		clear(rd.bits)
		for _, o := range span {
			rd.bits[o>>6] |= 1 << (o & 63)
		}
		scr.keepReadBufs(sel, rd.bits)
	}
	if g := db.g; g != nil && g.cur != nil {
		g.cur.Index = ix.label
	}
	return rd
}

// sortedIndex returns the sorted index of column col of rows, the stored
// relation name, labelled with the column's declared name.
func (db *DB) sortedIndex(name string, rows [][]value.Value, col int) *sortedIndex {
	var colName string
	if r, ok := db.Cat.Relation(name); ok && col < len(r.Columns) {
		colName = r.Columns[col].Name
	}
	return db.idx.acquireSorted(db.Cat.DataVersion(), name, rows, col, colName)
}

// evals returns the PredEvals the scan spends on the leading comparisons
// over the rows of ordinals [a, e): each row meets the first, and a row
// meets the next while it passed all before it.
func (rd indexRead) evals(a, e int) int {
	n := e - a
	if n <= 0 {
		return 0
	}
	whole := a == 0 && e == len(rd.ix.ord)
	lo, hi := 0, len(rd.ix.ord)
	for _, p := range rd.lead[:len(rd.lead)-1] {
		_, c, mask, _ := leadOf(p)
		s, t := rd.ix.span(mask, c)
		if lo, hi = max(lo, s), min(hi, t); lo >= hi {
			break
		}
		if whole {
			n += hi - lo
			continue
		}
		for _, o := range rd.ix.ord[lo:hi] {
			if a <= int(o) && int(o) < e {
				n++
			}
		}
	}
	return n
}

// readChunk is scanStage's chunk step through an index read. chunk is rows
// [base, base+len(chunk)) of the relation; it is ticked batch by batch as
// the scan ticks it, and of each batch only the rows that pass the leading
// comparisons meet the stage's other conjuncts, in ordinal order.
func (w *DB) readChunk(k *searchKernel, rd indexRead, chunk [][]value.Value, base, bs int) ([][]value.Value, error) {
	k.skip = int32(len(rd.lead))
	i, _ := slices.BinarySearch(rd.sel, int32(base))
	covered := len(chunk) // the rows the scan would have judged
	for start := 0; start < len(chunk) && k.err == nil; start += bs {
		stop := min(start+bs, len(chunk))
		if err := w.tickRows(stop - start); err != nil {
			w.Count.PredEvals += rd.evals(base, base+start)
			return nil, err
		}
		for o := rd.next(base+start, &i) - base; o < stop; o = rd.next(base+o+1, &i) - base {
			if k.copies() {
				k.pair(nil, chunk[o])
			} else if k.judge(nil, chunk[o]) {
				k.keep(int32(o), min(rd.n, len(chunk)))
			}
			if k.err != nil {
				covered = o + 1
				break
			}
		}
	}
	w.Count.PredEvals += rd.evals(base, base+covered)
	if k.err != nil || k.copies() {
		return k.output()
	}
	return k.picked(chunk), nil
}
