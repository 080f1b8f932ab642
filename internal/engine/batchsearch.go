package engine

// Evaluation of the compound SEARCH operator (§3.1) — and of FILTER and
// JOIN, the SEARCHes that project every column (searchParts): the
// relation list is joined left-to-right, using a hash join whenever the
// qualification supplies an equi-join conjunct connecting the accumulated
// prefix to the next relation, and a nested-loop (cartesian) step
// otherwise. Conjuncts
// are applied as early as their attribute references allow; the projection
// is computed last. Planning is split by what it depends on. What depends
// on the evaluation — the static-false short-circuit, relation evaluation
// order, the empty-relation short-circuit — is searchInputs; what depends
// only on the term — conjunct classification, equi-join keys, the order
// stages consume conjuncts in — is searchPlan/equiJoinKeys/takeConjuncts.
// The reference evaluator shares both, so the two make identical
// decisions. The engine compiles the second kind into a searchProgram,
// once per SEARCH evaluation or, under a FIX, once per FIX (searchCache),
// where the buffers an evaluation fills — relation list, pair words, stage
// kernels — also outlive the round (searchScratch). The evaluation is one
// stage per relation, and a stage never stores the
// pairs it considers (docs/PERF.md, "SEARCH pipeline: late
// materialisation"):
//
//   - a producer enumerates the stage's pairs — a scan of the first
//     relation, a hash join (hashJoin: probes of an index, the persistent
//     one when the indexed relation is stored, acquireJoinIndex; driven
//     from whichever side is smaller, docs/PERF.md "Delta-driven rounds"),
//     grace partitions when the build side exceeds the memory grant
//     (spill.go), or a nested loop when no equi-join conjunct connects the
//     relation, which first cuts the relation to the rows its own leading
//     conjuncts keep — with one amortized tick and counter update per
//     driving row;
//   - searchKernel.pair judges each pair in place over compiled predicate
//     programs and materialises only what survives: the joined row in a
//     non-final stage, the projected output row in the final one, laid end
//     to end in the kernel's arena slabs. The producer hands the stage's
//     output on in one exactly sized header slice built after its last
//     pair (searchKernel.rows), never in a slice grown pair by pair.
//     Conjuncts and projections are compiled expressions (expr.go) read
//     over the pair where its cells lie, with no term-tree walk, row
//     splitting or per-call allocation. They compile whether or not a
//     fault injector is armed: a builtin comparison hits the injector
//     itself, where its ADT call would.

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/value"
)

// searchPlan is the qualification of one SEARCH, classified: the stages
// consume its conjuncts in order (equiJoinKeys, takeConjuncts,
// leftoverConjuncts), marking each used as they go, so a plan serves one
// pass over the stages.
type searchPlan struct {
	conjs []conjunct
	projs []*term.Term
}

type conjunct struct {
	expr           *term.Term
	minRel, maxRel int // lowest and highest relation index referenced (0 = none)
	used           bool
}

func newSearchPlan(t *term.Term) *searchPlan {
	_, qual, projs, _ := searchParts(t)
	conjs := lera.Conjuncts(qual)
	plan := &searchPlan{conjs: make([]conjunct, len(conjs)), projs: projs}
	for i, c := range conjs {
		lo, hi := relRange(c)
		plan.conjs[i] = conjunct{expr: c, minRel: lo, maxRel: hi}
	}
	return plan
}

// relRange returns the lowest and the highest relation index e references
// (the highest no less than 0), or 0, 0 when e references no attribute.
func relRange(e *term.Term) (lo, hi int) {
	seen := false
	term.Visit(e, func(s *term.Term) bool {
		if i, _, ok := lera.AttrIdx(s); ok {
			if !seen || i < lo {
				lo = i
			}
			hi, seen = max(hi, i), true
		}
		return true
	})
	return lo, hi
}

// searchParts reads t as a SEARCH: its relation terms, its qualification
// and its projection. FILTER(r, q) and JOIN(r, s, q) are the SEARCHes of
// r, and of r and s, under q that project every column (every, with no
// projection terms): their rows are their inputs' rows, joined.
func searchParts(t *term.Term) (rels []*term.Term, qual *term.Term, projs []*term.Term, every bool) {
	if t.Functor == "SEARCH" {
		return t.Args[0].Args, t.Args[1], t.Args[2].Args, false
	}
	n := len(t.Args) - 1
	return t.Args[:n], t.Args[n], nil, true
}

// searchInputs evaluates the relation list of a SEARCH, in order, into
// rels — a buffer to refill, or nil. It returns a non-nil short relation
// when the search short-circuits (statically false qualification, or an
// empty input relation) — both cases preserve the declared projection
// arity. A SEARCH that projects every column learns that arity from its
// inputs, so it evaluates them before it short-circuits.
func (db *DB) searchInputs(t *term.Term, e env, rels []*Relation) ([]*Relation, *Relation, error) {
	relTerms, qual, projs, every := searchParts(t)
	if len(relTerms) == 0 {
		return nil, nil, fmt.Errorf("engine: SEARCH with empty relation list")
	}
	// A statically false qualification short-circuits before any stored
	// relation is touched — the payoff of the semantic inconsistency
	// rules (§6.2): zero tuples scanned. The empty result still declares
	// the projection arity.
	never := false
	for _, c := range lera.Conjuncts(qual) {
		if c.Kind == term.Const && c.Val.K == value.KBool && !c.Val.B() {
			never = true
			break
		}
	}
	if never && !every {
		return nil, &Relation{Width: len(projs)}, nil
	}
	if cap(rels) < len(relTerms) {
		rels = make([]*Relation, 0, len(relTerms))
	}
	rels = rels[:0]
	for _, rt := range relTerms {
		r, err := db.eval(rt, e)
		if err != nil {
			return nil, nil, err
		}
		rels = append(rels, r)
	}
	empty, width := false, len(projs)
	for _, r := range rels {
		empty = empty || len(r.Rows) == 0
		if every {
			width += r.Arity()
		}
	}
	if never || empty {
		return nil, &Relation{Width: width}, nil
	}
	return rels, nil, nil
}

// relOffsets returns the row widths of rels and the flat-row offset of
// each (offset[i] is where relation i+1 starts; one more entry than rels).
func relOffsets(rels []*Relation) (widths, offset []int) {
	widths = make([]int, len(rels))
	offset = make([]int, len(rels)+1)
	for i, r := range rels {
		widths[i] = len(r.Rows[0])
		offset[i+1] = offset[i] + widths[i]
	}
	return widths, offset
}

// storedRelName resolves a relation term to its stored-relation name the
// same way REL evaluation does — env binding first, then stored relations
// — returning "" unless the term is a plain REL served straight from
// db.rels (not shadowed by a LET/FIX binding, not a view): the
// index-eligible case.
func (db *DB) storedRelName(rt *term.Term, e env) string {
	if rt.Kind != term.Fun || rt.Functor != "REL" {
		return ""
	}
	name := strings.ToUpper(rt.Args[0].Val.S)
	if _, ok := e[name]; ok {
		return ""
	}
	if _, ok := db.rels[name]; ok {
		return name
	}
	return ""
}

// equiJoinKeys finds (and marks used) the equi-join conjuncts
// ATTR(a,x) = ATTR(b,y) connecting the joined prefix (< ri) to relation
// ri; leftKeys are flat prefix slots, rightKeys are 0-based columns of
// relation ri.
func equiJoinKeys(plan *searchPlan, ri int, offset []int) (leftKeys, rightKeys []int) {
	attrSlot := func(i, j int) int { return offset[i-1] + j - 1 }
	for ci := range plan.conjs {
		c := &plan.conjs[ci]
		if c.used || c.expr.Kind != term.Fun || c.expr.Functor != "=" || len(c.expr.Args) != 2 {
			continue
		}
		ai, aj, okA := lera.AttrIdx(c.expr.Args[0])
		bi, bj, okB := lera.AttrIdx(c.expr.Args[1])
		if !okA || !okB {
			continue
		}
		switch {
		case ai < ri && bi == ri:
			leftKeys = append(leftKeys, attrSlot(ai, aj))
			rightKeys = append(rightKeys, bj-1)
			c.used = true
		case bi < ri && ai == ri:
			leftKeys = append(leftKeys, attrSlot(bi, bj))
			rightKeys = append(rightKeys, aj-1)
			c.used = true
		}
	}
	return leftKeys, rightKeys
}

// searchProgram is everything of a SEARCH evaluation that its inputs'
// rows do not change: per stage the equi-join keys, the compiled conjuncts
// and, in the last, the compiled projection. It depends on the term, the
// relations' widths and the ADT registry it resolved functions in, which
// no evaluation changes — a fault injector is consulted per call, not
// compiled in — is immutable once compiled, and is shared by the workers
// of every evaluation that uses it.
type searchProgram struct {
	stages []searchStage // stages[ri-1] pairs the prefix with relation ri
}

func (db *DB) compileSearch(t *term.Term, rels []*Relation) *searchProgram {
	plan := newSearchPlan(t)
	_, _, _, every := searchParts(t)
	widths, offset := relOffsets(rels)
	n := len(rels)
	prog := &searchProgram{stages: make([]searchStage, n)}
	for ri := 1; ri <= n; ri++ {
		st := &prog.stages[ri-1]
		st.widths, st.final = widths[:ri], ri == n
		if ri > 1 {
			st.leftKeys, st.rightKeys = equiJoinKeys(plan, ri, offset)
		}
		conjs := takeConjuncts(plan, ri)
		c := compiler{db: db, widths: st.widths}
		if st.final {
			conjs = append(conjs, leftoverConjuncts(plan)...)
			if every {
				st.projs = make([]operand, offset[n])
				for i := range st.projs {
					st.projs[i] = operand{kind: opSlot, slot: i}
				}
			} else {
				st.projs = make([]operand, len(plan.projs))
				for i, p := range plan.projs {
					st.projs[i] = c.operand(p, 0)
				}
			}
			if n == 1 && !forceCopy {
				st.lo, st.hi, st.sliced = columnRun(st.projs)
			}
		}
		st.preds = make([]pred, len(conjs))
		for i, cj := range conjs {
			st.preds[i] = c.pred(cj.expr, 0)
		}
		if ri > 1 && len(st.leftKeys) == 0 {
			for _, cj := range conjs {
				if cj.minRel != ri || cj.maxRel != ri {
					break
				}
				st.local++
			}
		}
		st.stack = c.top
	}
	return prog
}

// columnRun reports whether projs are the columns [lo, hi) of one relation
// in order, each read as it is: a run a stored row holds as it stands.
func columnRun(projs []operand) (lo, hi int, ok bool) {
	if len(projs) == 0 {
		return 0, 0, false
	}
	lo = projs[0].slot
	for i := range projs {
		if p := &projs[i]; p.kind != opSlot || p.slot != lo+i {
			return 0, 0, false
		}
	}
	return lo, lo + len(projs), true
}

// forceCopy makes every final stage copy its projected cells into arena
// rows, as all did before a final scan handed out slices of the stored
// rows. Only tests set it, to pin the two paths against each other; no
// option, flag or DB field reaches it.
var forceCopy bool

// valid reports whether the program still fits an evaluation: compiled
// slots assume the relations' widths.
func (p *searchProgram) valid(rels []*Relation) bool {
	if len(p.stages) != len(rels) {
		return false
	}
	widths := p.stages[len(rels)-1].widths // the last stage's cover every relation
	for i, r := range rels {
		if widths[i] != len(r.Rows[0]) {
			return false
		}
	}
	return true
}

// searchCache holds the SEARCH terms evaluated under one FIX evaluation,
// by term identity: a fixpoint evaluates the same terms round after round
// (fixSemiNaive hoists the variants), so each compiles once per FIX instead
// of once per round, and each round refills the buffers the round before
// filled. evalFix installs a fresh cache in the evaluation's guard and
// removes it when the FIX returns — it never outlives the FIX, let alone the
// query, and its scratch dies with it — and the round's workers share it.
type searchCache struct {
	mu sync.Mutex
	m  map[*term.Term]*searchEntry
}

// searchEntry is one SEARCH term's place in a searchCache: its program,
// immutable and shared by every evaluator, and beside it — never inside it
// — the mutable scratch that one evaluation at a time holds.
type searchEntry struct {
	prog    atomic.Pointer[searchProgram]
	scratch atomic.Pointer[searchScratch] // nil while an evaluation holds it
}

// searchEntry returns t's entry in the open FIX's cache, creating it on
// first use; nil outside a FIX.
func (db *DB) searchEntry(t *term.Term) *searchEntry {
	var c *searchCache
	if db.g != nil {
		c = db.g.progs
	}
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ent := c.m[t]
	if ent == nil {
		if c.m == nil {
			c.m = map[*term.Term]*searchEntry{}
		}
		ent = &searchEntry{}
		ent.scratch.Store(&searchScratch{})
		c.m[t] = ent
	}
	return ent
}

// claim takes the entry's scratch for the caller's evaluation. It returns
// nil — no scratch — outside a FIX (ent nil) and when another evaluation
// holds it: a pooled worker evaluating the same term, or an evaluation
// re-entering its own term. Such an evaluation runs the same code with
// fresh buffers that die with it.
func (ent *searchEntry) claim() *searchScratch {
	if ent == nil {
		return nil
	}
	return ent.scratch.Swap(nil)
}

// release gives a claimed scratch back to its entry.
func (ent *searchEntry) release(s *searchScratch) {
	if s != nil {
		ent.scratch.Store(s)
	}
}

// programFor returns the program of SEARCH term t over rels: ent's cached
// one while it is still valid, a fresh compilation otherwise (cached in ent
// under a FIX).
func (db *DB) programFor(ent *searchEntry, t *term.Term, rels []*Relation) *searchProgram {
	if ent != nil {
		if prog := ent.prog.Load(); prog != nil && prog.valid(rels) {
			return prog
		}
	}
	prog := db.compileSearch(t, rels)
	if ent != nil {
		ent.prog.Store(prog)
	}
	return prog
}

// searchScratch is what an evaluation of a SEARCH fills and the next
// evaluation of the same term under the same FIX refills: the relation
// list and, per stage, the holder's kernel and the pair words. A nil
// *searchScratch is none: every buffer is then made for the evaluation.
type searchScratch struct {
	rels   []*Relation
	prog   *searchProgram // the program stages is laid out for
	stages []stageScratch
	// sel and bits are stage 1's index read buffers (indexscan.go).
	sel  []int32
	bits []uint64
}

// relBuf returns the relation list for searchInputs to refill.
func (s *searchScratch) relBuf() []*Relation {
	if s == nil {
		return nil
	}
	return s.rels
}

// readBufs returns the index read buffers to refill: none without a
// scratch.
func (s *searchScratch) readBufs() ([]int32, []uint64) {
	if s == nil {
		return nil, nil
	}
	return s.sel, s.bits
}

// keepReadBufs keeps the buffers an index read filled for the next
// evaluation.
func (s *searchScratch) keepReadBufs(sel []int32, bits []uint64) {
	if s != nil {
		s.sel, s.bits = sel, bits
	}
}

// fit keeps the relation list rels for the next evaluation and lays the
// stages out for prog. A stage's kernel is built on the program's stage, so
// a recompiled program starts the stages afresh.
func (s *searchScratch) fit(prog *searchProgram, rels []*Relation) {
	if s == nil {
		return
	}
	s.rels = rels
	if s.prog != prog {
		s.prog, s.stages = prog, make([]stageScratch, len(prog.stages))
	}
}

// stage returns the scratch of stage ri, program stage st, held by the
// evaluator db: the scratch's own, or a fresh one without a scratch.
func (s *searchScratch) stage(ri int, st *searchStage, db *DB) *stageScratch {
	var ss *stageScratch
	if s != nil {
		ss = &s.stages[ri-1]
	} else {
		ss = &stageScratch{}
	}
	ss.st, ss.holder = st, db
	return ss
}

// stageScratch is one stage's part of a searchScratch. Its kernel belongs
// to the evaluator holding the scratch — a worker the stage's pairs fan
// out to gets a kernel of its own — so from round to round the arena goes
// on filling and doubling its blocks instead of opening a new one, and the
// kernel's run and ordinal lists are refilled, not made again.
type stageScratch struct {
	st     *searchStage
	holder *DB
	k      searchKernel // the holder's; set up on first use
	pairs  []uint64     // hashJoinFromRight's pair words
	// left and right are the rows the pair words index, for judge — the
	// pair judge bound once, so that a round hands mapChunks no new closure.
	left, right [][]value.Value
	judge       func(w *DB, chunk []uint64) ([][]value.Value, error)
	kept        [][]value.Value // the rows cartesian's pre-filter keeps
}

// kernel returns worker w's kernel of the stage: the holder's own, reset,
// or a fresh one sized by est (see searchStage.kernel).
func (ss *stageScratch) kernel(w *DB, est int) *searchKernel {
	k := &ss.k
	if w != ss.holder {
		k = new(searchKernel)
	}
	if k.searchStage == nil {
		*k = ss.st.kernel(w, est)
	}
	k.x.w, k.ar.db, k.err, k.skip = w, w, nil, 0
	k.dropOutput()
	return k
}

// acquireJoinIndex returns the join index over rows: the shared persistent
// one when they are a stored relation's, a transient build otherwise.
func (db *DB) acquireJoinIndex(name string, rows [][]value.Value, keyIdx []int) *joinIndex {
	if name != "" && db.idx != nil {
		return db.idx.acquire(db.Cat.DataVersion(), name, rows, keyIdx)
	}
	return buildJoinIndex(rows, keyIdx)
}

func (db *DB) evalSearchBatch(t *term.Term, e env) (*Relation, error) {
	ent := db.searchEntry(t)
	scr := ent.claim()
	defer ent.release(scr)
	rels, short, err := db.searchInputs(t, e, scr.relBuf())
	if err != nil || short != nil {
		return short, err
	}
	prog := db.programFor(ent, t, rels)
	scr.fit(prog, rels)
	relTerms, _, _, _ := searchParts(t)

	// One stage per relation: stage 1 scans the first relation, stage ri
	// pairs every surviving prefix row with its matches in relation ri. The
	// producers below only enumerate pairs; searchKernel.pair does the rest,
	// and each producer takes its output from the kernel in one exactly
	// sized slice after its last pair.
	current := rels[0].Rows
	scanned := false // stage 1 ran: current is no longer relation 1 itself
	for ri := 1; ri <= len(rels); ri++ {
		st := &prog.stages[ri-1]
		if ri == 1 && !st.final && len(st.preds) == 0 {
			continue
		}
		ss := scr.stage(ri, st, db)
		switch {
		case ri == 1:
			scanned = true
			current, err = db.scanStage(ss, current, db.readIndex(scr, st, relTerms[0], e, current))
		case len(st.leftKeys) > 0:
			next := rels[ri-1].Rows
			// The governor sizes the build side with the deterministic
			// estimate graceJoin's partitions are measured in, so the
			// decision is identical at every batch and pool size — and it is
			// taken on relation ri whichever side then drives the join.
			grace, charged, aerr := db.admit("SEARCH join build", next, setEntryBytes)
			switch {
			case aerr != nil:
				return nil, aerr
			case grace:
				current, err = db.graceJoin(current, next, st.leftKeys, st.rightKeys, ss.kernel(db, 1))
			default:
				// Relation 1 straight from storage has a persistent index to
				// offer, so the smaller side drives: a semi-naive round joins
				// a stored relation with a delta of a few rows.
				var leftName string
				if ri == 2 && !scanned && len(next) < len(current) && !forceLeftDrive {
					leftName = db.storedRelName(relTerms[0], e)
				}
				if leftName != "" {
					current, err = db.hashJoinFromRight(ss, db.acquireJoinIndex(leftName, current, st.leftKeys), next)
				} else {
					current, err = db.hashJoin(ss, current, db.acquireJoinIndex(db.storedRelName(relTerms[ri-1], e), next, st.rightKeys))
				}
				db.releaseMem(charged)
			}
		default:
			current, err = db.cartesian(ss, current, rels[ri-1].Rows)
		}
		if err != nil {
			return nil, err
		}
	}

	// LERA is an extension of Codd's algebra: relations are sets, so the
	// projection output deduplicates — unless it cannot hold a duplicate.
	out := &Relation{Width: len(prog.stages[len(rels)-1].projs)}
	if label := db.distinctColumn(prog, rels, relTerms[0], e, current); label != "" {
		out.Rows = current
		if g := db.g; g != nil && g.cur != nil {
			g.cur.Distinct = label
		}
	} else if out.Rows, err = db.dedupRows(current); err != nil {
		return nil, err
	}
	db.Count.Emitted += len(out.Rows)
	if err := db.chargeRows(len(out.Rows)); err != nil {
		return nil, err
	}
	return out, nil
}

// distinctColumn returns the label of a column that keeps the output rows
// of a SEARCH, out, free of duplicates — "" when they must be deduplicated
// (docs/PERF.md "Set semantics where a duplicate can arise"). A column does
// when the SEARCH reads one relation, rt, served straight from storage, and
// projects the column as is, and the column's sorted index finds no two of
// its cells equal: each output row then comes from a stored row of its own
// and carries that row's cell. A projected column without a sorted index
// gets one, which the next comparison on the column reads.
func (db *DB) distinctColumn(prog *searchProgram, rels []*Relation, rt *term.Term, e env, out [][]value.Value) string {
	if forceDedup || len(rels) != 1 || len(out) < 2 || db.idx == nil {
		return ""
	}
	name := db.storedRelName(rt, e)
	if name == "" {
		return ""
	}
	for _, p := range prog.stages[0].projs {
		if p.kind != opSlot {
			continue
		}
		if ix := db.sortedIndex(name, rels[0].Rows, p.slot); ix.distinct {
			return ix.label
		}
	}
	return ""
}

// forceDedup makes every SEARCH deduplicate its output, as all did before
// the distinct-column fact. Only tests set it, to pin the two paths against
// each other; no option, flag or DB field reaches it.
var forceDedup bool

// forceLeftDrive makes every in-memory hash join drive from the prefix
// side, as all did before the driving side was chosen by size. Only tests
// set it, to pin the two directions against each other; no option, flag or
// DB field reaches it.
var forceLeftDrive bool

// scanStage is stage 1: each row of rows, the first relation, meets the
// stage's conjuncts alone, with one amortized tick per BatchSize slice. In
// a copying final stage a survivor is projected; otherwise it moves on as
// the stored row itself, or in a sliced final stage as its projected run of
// cells, collected by its ordinal. With an index read, only the rows it
// selected are visited (readChunk).
func (db *DB) scanStage(ss *stageScratch, rows [][]value.Value, rd indexRead) ([][]value.Value, error) {
	bs := db.batchSize()
	if rd.ix != nil {
		if rd.n < parallelMinRows {
			// Too few rows to visit to be worth fanning out.
			return db.readChunk(ss.kernel(db, len(rows)), rd, rows, 0, bs)
		}
		return mapChunks(db, rows, func(w *DB, chunk [][]value.Value) ([][]value.Value, error) {
			// A chunk is a subslice of rows: its offset in rows is the
			// capacity it lacks.
			return w.readChunk(ss.kernel(w, len(chunk)), rd, chunk, cap(rows)-cap(chunk), bs)
		})
	}
	return mapChunks(db, rows, func(w *DB, chunk [][]value.Value) ([][]value.Value, error) {
		k := ss.kernel(w, len(chunk))
		for start := 0; start < len(chunk) && k.err == nil; start += bs {
			batch := chunk[start:min(start+bs, len(chunk))]
			if err := w.tickRows(len(batch)); err != nil {
				return nil, err
			}
			for i, row := range batch {
				if k.copies() {
					k.pair(nil, row)
				} else if k.judge(nil, row) {
					k.keep(int32(start+i), len(chunk))
				}
			}
		}
		if k.err != nil || k.copies() {
			return k.output()
		}
		return k.picked(chunk), nil
	})
}

// cartesian is the nested-loop stage, for a relation no equi-join conjunct
// connects to the prefix: every row of left pairs with every row of right,
// in order, with one amortized tick and JoinPairs update per BatchSize
// slice of right. When the stage leads with conjuncts that read right
// alone, right is first cut to the rows they keep (preFilter), and the
// pairs skip them (docs/PERF.md "Filter before crossing").
func (db *DB) cartesian(ss *stageScratch, left, right [][]value.Value) ([][]value.Value, error) {
	bs := db.batchSize()
	var skip int32
	if ss.st.local > 0 && len(left) > 0 {
		var err error
		if right, err = db.preFilter(ss, left[0], right, bs); err != nil {
			return nil, err
		}
		skip = ss.st.local
	}
	return mapChunks(db, left, func(w *DB, chunk [][]value.Value) ([][]value.Value, error) {
		k := ss.kernel(w, 1)
		k.skip = skip
		for _, prow := range chunk {
			for ni := 0; ni < len(right); ni += bs {
				batch := right[ni:min(ni+bs, len(right))]
				if err := w.tickRows(len(batch)); err != nil {
					return nil, err
				}
				w.Count.JoinPairs += len(batch)
				for _, rrow := range batch {
					k.pair(prow, rrow)
				}
			}
		}
		return k.output()
	})
}

// preFilter returns the rows of right that pass the stage's local
// conjuncts, in order, in the stage scratch. Each row meets them over the
// pair (l, row), l the first prefix row: the very evaluations the nested
// loop made of that pair, which, reading the row alone, answer for every
// prefix row. It runs on the evaluation's own kernel, before the pairs fan
// out, so its counters and its first error are the same at every pool size.
func (db *DB) preFilter(ss *stageScratch, l []value.Value, right [][]value.Value, bs int) ([][]value.Value, error) {
	k := ss.kernel(db, 1)
	kept := ss.kept[:0]
	for ni := 0; ni < len(right) && k.err == nil; ni += bs {
		batch := right[ni:min(ni+bs, len(right))]
		if err := db.tickRows(len(batch)); err != nil {
			return nil, err
		}
		for _, r := range batch {
			if k.passes(k.preds[:k.local], l, r) {
				kept = append(kept, r)
			}
		}
	}
	ss.kept = kept
	return kept, k.err
}

// probeEach is the one probe loop of the hash joins, in memory and in a
// grace partition alike: every row of drive is looked up in ix by its
// columns at keys, in order, with one amortized tick and one JoinPairs
// update per driving row, and emit receives each match as (the driving
// row's ordinal in drive, the matching row's position in ix.rows) — a
// driving row's matches are one run, read in index insertion order.
func (db *DB) probeEach(ix *joinIndex, drive [][]value.Value, keys []int, emit func(d, c int)) error {
	for d, row := range drive {
		start, n := ix.probe(row, keys)
		if n == 0 {
			continue
		}
		if err := db.tickRows(n); err != nil {
			return err
		}
		db.Count.JoinPairs += n
		for c := start; c < start+n; c++ {
			emit(d, c)
		}
	}
	return nil
}

// hashJoin is the equi-join stage driven from the prefix: each row of left
// probes ix, the index of the stage's relation on its key columns, and
// pairs with its matches in index insertion order — the reference's
// nested-loop sequence.
func (db *DB) hashJoin(ss *stageScratch, left [][]value.Value, ix *joinIndex) ([][]value.Value, error) {
	return mapChunks(db, left, func(w *DB, chunk [][]value.Value) ([][]value.Value, error) {
		k := ss.kernel(w, 1)
		err := w.probeEach(ix, chunk, k.leftKeys, func(d, c int) {
			k.pair(chunk[d], ix.rows[c])
		})
		if err != nil {
			return nil, err
		}
		return k.output()
	})
}

// hashJoinFromRight is the same stage driven from the relation: each row
// of right probes ix, the index of the (unfiltered, stored) prefix
// relation on the prefix key slots, so the cost is the relation's size and
// its matches, not the prefix's. The pairs come out grouped by right row;
// sorted by (prefix ordinal, relation ordinal) they are exactly hashJoin's
// sequence, and the kernel sees them in that order — rows, counters, the
// n-th injector hit and the first evaluation error are the same pair's
// either way. The pair words and the judge are the stage scratch's.
func (db *DB) hashJoinFromRight(ss *stageScratch, ix *joinIndex, right [][]value.Value) ([][]value.Value, error) {
	pairs := ss.pairs[:0] // prefix ordinal<<32 | relation ordinal
	err := db.probeEach(ix, right, ss.st.rightKeys, func(d, c int) {
		pairs = append(pairs, uint64(ix.ord[c])<<32|uint64(d))
	})
	ss.pairs = pairs
	if err != nil {
		return nil, err
	}
	slices.Sort(pairs)
	ss.left, ss.right = ix.src, right
	if ss.judge == nil {
		ss.judge = ss.judgePairs
	}
	return mapChunks(db, pairs, ss.judge)
}

// judgePairs is hashJoinFromRight's chunk step: the kernel meets the pair
// words of chunk in order.
func (ss *stageScratch) judgePairs(w *DB, chunk []uint64) ([][]value.Value, error) {
	k := ss.kernel(w, len(chunk))
	for _, p := range chunk {
		k.pair(ss.left[p>>32], ss.right[uint32(p)])
	}
	return k.output()
}

// searchStage is the compiled program of one SEARCH stage: the equi-join
// keys connecting the stage's relation to the prefix (none in stage 1, or
// when the step is a nested loop), the conjuncts that become evaluable
// once the relation joins the prefix and, in the final stage, the leftover
// conjuncts (e.g. referencing no attributes) and the projection. It is
// shared by the stage's workers.
type searchStage struct {
	leftKeys  []int // flat prefix slots
	rightKeys []int // 0-based columns of the stage's relation
	preds     []pred
	projs     []operand // final stage only
	final     bool
	widths    []int // per-relation widths of the prefix plus this stage's relation
	stack     int   // the value stack a worker's frame needs
	// local is the length of the leading run of a nested-loop stage's
	// conjuncts that read the stage's relation alone (preFilter).
	local int32
	// sliced says the final stage of a one-relation SEARCH projects the run
	// of columns [lo, hi) as it is: a survivor's output row is that run of
	// its stored row's cells (picked), and no cell is copied.
	sliced bool
	lo, hi int
}

// copies reports whether the stage projects its survivors into arena rows:
// a final stage that is not sliced.
func (st *searchStage) copies() bool { return st.final && !st.sliced }

// searchKernel is one worker's late-materialising evaluator of a stage,
// fed (prefix row, next-relation row) pairs by the scan, hash-probe,
// cartesian and grace-join producers alike. A pair is judged in place, its
// two rows addressed as one flat row; nothing is allocated for a pair a
// conjunct rejects, a joined row only for a survivor of a non-final stage,
// and in the final stage only the projected output row. The rows it
// emits lie end to end in its arena's blocks; runs records where, and the
// producer takes them all at once, in one exactly sized header slice
// (rows), after its last pair.
type searchKernel struct {
	*searchStage
	x  frame
	ar rowArena
	// runs are the rows emitted since the last handover, in order; n counts
	// them, and open says the last run may take the next arena row. The
	// first few runs live in runs0, so a small output allocates no run list.
	runs  []rowRun
	runs0 [4]rowRun
	n     int
	open  bool
	// skip is the number of leading conjuncts an index read or a
	// pre-filter has already answered for every row the kernel meets.
	skip int32
	// ords are the scan stage's survivor ordinals when it does not copy:
	// they pass on as the stored rows themselves, or their sliced runs
	// (picked).
	ords  []int32
	ords0 [8]int32
	// err is the first evaluation error. It is sticky rather than returned
	// per pair: the producer goes on enumerating (and accounting JoinPairs
	// for) the remaining pairs, which pair then skips, so the counters at
	// the point of failure stay those of "join, then filter".
	err error
}

// rowRun is a stretch of a kernel's output: n rows of width values each,
// laid end to end from the start of cells (a slice into an arena block,
// its capacity the block's rest) — or one row of a zero-width prefix's
// join stage, which is the relation's own row passed on as it is.
type rowRun struct {
	cells    []value.Value
	width, n int
}

// kernel returns a worker's kernel. est is the producer's estimate of the
// rows it will output, which sizes the first arena block: a scan passes its
// chunk length and a join driven from its relation the pairs it found; a
// join driven from the prefix cannot tell before it has probed, and passes
// 1, leaving it to the arena's doubling.
func (st *searchStage) kernel(w *DB, est int) searchKernel {
	width := len(st.projs) // of the rows the stage allocates
	if !st.final {
		for _, rw := range st.widths {
			width += rw
		}
	}
	return searchKernel{
		searchStage: st,
		x:           frame{w: w, stack: make([]value.Value, st.stack)},
		ar:          sizedArena(w, est*width),
	}
}

// judge evaluates the stage's conjuncts over prefix row l (nil in the
// scan stage) and relation row r, in order and short-circuiting, exactly
// as a filter over the materialised pair would, and reports whether the
// pair survives. An evaluation error is recorded in err.
func (k *searchKernel) judge(l, r []value.Value) bool { return k.passes(k.preds[k.skip:], l, r) }

// passes evaluates preds, in order and short-circuiting, over (l, r).
func (k *searchKernel) passes(preds []pred, l, r []value.Value) bool {
	if k.err != nil {
		return false
	}
	for _, p := range preds {
		ok, err := k.x.test(p, l, r)
		if err != nil {
			k.err = err
			return false
		}
		if !ok {
			return false
		}
	}
	return true
}

// pair judges the pair (l, r) and emits the survivor: the joined row in a
// non-final stage, the projected row in the final one.
func (k *searchKernel) pair(l, r []value.Value) {
	if !k.judge(l, r) {
		return
	}
	if !k.final {
		if len(l) == 0 {
			k.pass(r)
			return
		}
		row := k.emit(len(l) + len(r))
		copy(row, l)
		copy(row[len(l):], r)
		return
	}
	row := k.emit(len(k.projs))
	for i := range k.projs {
		if p := &k.projs[i]; p.kind == opSlot {
			row[i] = *pairAt(l, r, p.slot)
		} else if k.err = p.eval(&k.x, l, r, &row[i]); k.err != nil {
			return
		}
	}
}

// emit returns the next output row, width zeroed values from the arena,
// and records it: in the last run when it continues it — same width, same
// block — in a new run otherwise. A zero-width row is nil and has no cells.
func (k *searchKernel) emit(width int) []value.Value {
	row := k.ar.alloc(width)
	k.n++
	// The arena opens a block only to carve a row from its start.
	fresh := width > 0 && len(k.ar.buf) == width
	if last := len(k.runs) - 1; k.open && !fresh && k.runs[last].width == width {
		k.runs[last].n++
		return row
	}
	cells := row
	if width > 0 {
		cells = k.ar.buf[len(k.ar.buf)-width:]
	}
	k.runs = append(k.runs, rowRun{cells: cells, width: width, n: 1})
	k.open = true
	return row
}

// pass emits r itself as the next output row.
func (k *searchKernel) pass(r []value.Value) {
	k.n++
	k.runs = append(k.runs, rowRun{cells: r, width: len(r), n: 1})
	k.open = false
}

// rows hands over the rows emitted since the last handover in one slice
// of exactly their number: in emission order, or with to set, the j-th
// emitted row at index to[j].
func (k *searchKernel) rows(to []int32) [][]value.Value {
	var out [][]value.Value
	if k.n > 0 {
		out = make([][]value.Value, k.n)
	}
	j := 0
	for _, run := range k.runs {
		w := run.width
		for i := 0; i < run.n; i++ {
			row := run.cells[i*w : (i+1)*w : (i+1)*w]
			if to != nil {
				out[to[j]] = row
			} else {
				out[j] = row
			}
			j++
		}
	}
	k.dropOutput()
	return out
}

// output is a producer's result: the stage's rows, or the kernel's error.
func (k *searchKernel) output() ([][]value.Value, error) {
	if k.err != nil {
		return nil, k.err
	}
	return k.rows(nil), nil
}

// keep records the ordinal o of a survivor of a chunk in which at most n
// rows can survive. A sliced stage's list grows at most once past its
// inline start, straight to n: the ordinals and the output header are all
// such a scan allocates.
func (k *searchKernel) keep(o int32, n int) {
	if k.sliced && len(k.ords) == cap(k.ords) && cap(k.ords) < n {
		k.ords = append(make([]int32, 0, n), k.ords...)
	}
	k.ords = append(k.ords, o)
}

// picked hands over the scan's survivors, in one slice of exactly their
// number: the rows of chunk at ords or, in a sliced stage, their cells
// [lo, hi) — at full capacity, so an append on an output row can never
// write into the stored row.
func (k *searchKernel) picked(chunk [][]value.Value) [][]value.Value {
	var out [][]value.Value
	if len(k.ords) > 0 {
		out = make([][]value.Value, len(k.ords))
	}
	for i, o := range k.ords {
		if row := chunk[o]; k.sliced {
			out[i] = row[k.lo:k.hi:k.hi]
		} else {
			out[i] = row
		}
	}
	k.dropOutput()
	return out
}

// dropOutput forgets what the kernel has emitted and keeps its buffers for
// the next output.
func (k *searchKernel) dropOutput() {
	if k.runs == nil {
		k.runs, k.ords = k.runs0[:0], k.ords0[:0]
	}
	clear(k.runs)
	k.runs, k.ords, k.n, k.open = k.runs[:0], k.ords[:0], 0, false
}

// takeConjuncts returns (and marks used) the unused conjuncts that
// reference at least one attribute and none beyond relation upto.
func takeConjuncts(plan *searchPlan, upto int) []*conjunct {
	var active []*conjunct
	for ci := range plan.conjs {
		c := &plan.conjs[ci]
		if !c.used && c.maxRel >= 1 && c.maxRel <= upto {
			active = append(active, c)
			c.used = true
		}
	}
	return active
}

// leftoverConjuncts returns the conjuncts no earlier stage consumed.
func leftoverConjuncts(plan *searchPlan) []*conjunct {
	var out []*conjunct
	for ci := range plan.conjs {
		c := &plan.conjs[ci]
		if !c.used {
			out = append(out, c)
		}
	}
	return out
}

// pairAt addresses the pair (l, r) as the flat row l ++ r. It answers with
// the cell where it lies: the kernel reads a handful of cells per pair, and
// a value.Value is too wide to copy for each.
func pairAt(l, r []value.Value, slot int) *value.Value {
	if slot < len(l) {
		return &l[slot]
	}
	return &r[slot-len(l)]
}
