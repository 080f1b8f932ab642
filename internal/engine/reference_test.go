package engine

// The semantics-only reference evaluator: what each LERA operator means,
// written the obvious way — one row at a time, rowKey strings for row
// identity, nested loops with a plain map for equi-joins. It is the oracle
// the batched engine's rows (order included) are pinned against by the
// engine tests and the corpus differential (enginediff_test.go), and it
// lives in test code only: the product reaches it through no option, flag
// or config field, only through evalOpHook, which this file's init sets
// and which claims no DB but the forks ReferenceEval registers. It makes
// no promise about Counters, stats trees, batching, worker pools, fault
// injection or the memory governor. Its expressions are the tree walker's
// (walker_test.go). It shares the REL/LET/FIX control flow (engine.go,
// fix.go) and SEARCH planning (searchInputs, searchPlan, equiJoinKeys,
// takeConjuncts) with the engine, so the two agree on evaluation order by
// construction and differ in how rows are moved and compared and in how
// expressions are evaluated — walked, or compiled (expr.go).

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/value"
)

// referenceDBs holds the private forks ReferenceEval is evaluating on;
// evalOpHook routes only their data-moving operators to the reference.
var referenceDBs sync.Map // *DB → struct{}

func init() {
	evalOpHook = func(db *DB, t *term.Term, e env) (*Relation, bool, error) {
		if _, ok := referenceDBs.Load(db); !ok {
			return nil, false, nil
		}
		out, err := db.evalOpReference(t, e)
		return out, true, err
	}
}

// ReferenceEval evaluates plan over db's stored data with the reference
// evaluator, on a private serial fork: db's counters, spill totals and
// last stats tree are untouched, and Limits.MaxMemBytes, SpillDir,
// Parallelism, BatchSize, CollectStats and the Injector are ignored. The
// semantic guardrails — cancellation, MaxRows, MaxFixIterations — still
// apply.
func ReferenceEval(ctx context.Context, db *DB, plan *term.Term) (*Relation, error) {
	ref := db.Fork()
	ref.Parallelism = 1
	ref.Limits.MaxMemBytes = 0
	ref.SpillDir = ""
	ref.Injector = nil
	ref.CollectStats = false
	referenceDBs.Store(ref, struct{}{})
	defer referenceDBs.Delete(ref)
	return ref.EvalCtx(ctx, plan)
}

// RowKey exports rowKey to the engine_test package's differential.
var RowKey = rowKey

// rowKey encodes a row as a string: the reference's row identity, which
// the engine's hashed keys (hash.go) reproduce exactly.
func rowKey(row []value.Value) string {
	var sb strings.Builder
	for _, v := range row {
		sb.WriteString(v.Key())
		sb.WriteByte('|')
	}
	return sb.String()
}

// Dedup returns the relation with duplicate rows removed (set semantics),
// first occurrence winning.
func (r *Relation) Dedup() *Relation {
	seen := map[string]bool{}
	out := &Relation{Width: r.Width}
	for _, row := range r.Rows {
		if k := rowKey(row); !seen[k] {
			seen[k] = true
			out.Rows = append(out.Rows, row)
		}
	}
	return out
}

func concat(l, r []value.Value) []value.Value {
	return append(append(make([]value.Value, 0, len(l)+len(r)), l...), r...)
}

// evalOpReference evaluates one data-moving operator. LERA extends Codd's
// algebra — relations are sets — so every operator's output deduplicates,
// and its size is charged to the row budget.
func (db *DB) evalOpReference(t *term.Term, e env) (*Relation, error) {
	if err := db.checkCtx(); err != nil {
		return nil, err
	}
	var out *Relation
	var err error
	switch t.Functor {
	case "SEARCH":
		out, err = db.refSearch(t, e)
	case "FILTER":
		var in *Relation
		if in, err = db.eval(t.Args[0], e); err == nil {
			out = &Relation{Width: in.Arity()}
			out.Rows, err = db.refFilter(in.Rows, []*conjunct{{expr: t.Args[1]}}, []int{in.Arity()})
		}
	case "JOIN":
		out, err = db.refJoin(t, e)
	case "UNIONN":
		out = &Relation{}
		for _, m := range t.Args[0].Args {
			var r *Relation
			if r, err = db.eval(m, e); err != nil {
				break
			}
			if out.Width == 0 {
				out.Width = r.Arity()
			}
			out.Rows = append(out.Rows, r.Rows...)
		}
	case "INTERN", "DIFF":
		out, err = db.refInterDiff(t, e)
	case "NEST":
		out, err = db.refNest(t, e)
	case "UNNEST":
		out, err = db.refUnnest(t, e)
	default:
		err = fmt.Errorf("engine: unknown operator %s", t.Functor)
	}
	if err != nil {
		return nil, err
	}
	out = out.Dedup()
	return out, db.chargeRows(len(out.Rows))
}

// splitRow cuts a flat joined row into one segment per relation.
func splitRow(row []value.Value, widths []int) [][]value.Value {
	segs := make([][]value.Value, len(widths))
	pos := 0
	for i, w := range widths {
		segs[i] = row[pos : pos+w]
		pos += w
	}
	return segs
}

// refFilter keeps the rows satisfying every qualification in quals, in
// order and short-circuiting; widths lays the flat row out as one segment
// per relation.
func (db *DB) refFilter(rows [][]value.Value, quals []*conjunct, widths []int) ([][]value.Value, error) {
	if len(quals) == 0 {
		return rows, nil
	}
	var out [][]value.Value
rowLoop:
	for _, row := range rows {
		segs := splitRow(row, widths)
		for _, q := range quals {
			ok, err := db.evalBool(q.expr, segs)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue rowLoop
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// refSearch joins the relation list left to right — pairing rows whose
// equi-join columns are equal (refKeysEqual) when the plan has any, a plain
// product otherwise — applies each conjunct as soon as its relations are
// joined, then projects.
func (db *DB) refSearch(t *term.Term, e env) (*Relation, error) {
	rels, short, err := db.searchInputs(t, e, nil)
	if err != nil || short != nil {
		return short, err
	}
	plan := newSearchPlan(t)
	widths, offset := relOffsets(rels)
	current, err := db.refFilter(rels[0].Rows, takeConjuncts(plan, 1), widths[:1])
	for ri := 2; err == nil && ri <= len(rels); ri++ {
		next := rels[ri-1].Rows
		leftKeys, rightKeys := equiJoinKeys(plan, ri, offset)
		var joined [][]value.Value
		for _, l := range current {
			for _, r := range next {
				if refKeysEqual(l, leftKeys, r, rightKeys) {
					joined = append(joined, concat(l, r))
				}
			}
		}
		current, err = db.refFilter(joined, takeConjuncts(plan, ri), widths[:ri])
	}
	if err == nil {
		current, err = db.refFilter(current, leftoverConjuncts(plan), widths)
	}
	if err != nil {
		return nil, err
	}
	out := &Relation{Width: len(plan.projs)}
	for _, row := range current {
		segs := splitRow(row, widths)
		prow := make([]value.Value, len(plan.projs))
		for i, p := range plan.projs {
			if prow[i], err = db.evalExpr(p, segs); err != nil {
				return nil, err
			}
		}
		out.Rows = append(out.Rows, prow)
	}
	return out, nil
}

// refKeysEqual judges a pair's equi-join conjuncts one by one as `=`
// judges them, by value.CompareRef — not by a hash of the key.
func refKeysEqual(l []value.Value, lcols []int, r []value.Value, rcols []int) bool {
	for i, lc := range lcols {
		if value.CompareRef(&l[lc], &r[rcols[i]]) != 0 {
			return false
		}
	}
	return true
}

func (db *DB) refJoin(t *term.Term, e env) (*Relation, error) {
	left, err := db.eval(t.Args[0], e)
	if err != nil {
		return nil, err
	}
	right, err := db.eval(t.Args[1], e)
	if err != nil {
		return nil, err
	}
	out := &Relation{Width: left.Arity() + right.Arity()}
	for _, l := range left.Rows {
		for _, r := range right.Rows {
			ok, err := db.evalBool(t.Args[2], [][]value.Value{l, r})
			if err != nil {
				return nil, err
			}
			if ok {
				out.Rows = append(out.Rows, concat(l, r))
			}
		}
	}
	return out, nil
}

// refInterDiff keeps the rows of the first operand that every other
// INTERN member contains, or that DIFF's right operand does not.
func (db *DB) refInterDiff(t *term.Term, e env) (*Relation, error) {
	members, want := t.Args, false // DIFF(left, right)
	if t.Functor == "INTERN" {
		members, want = t.Args[0].Args, true
		if len(members) == 0 {
			return nil, fmt.Errorf("engine: empty intersection")
		}
	}
	first, err := db.eval(members[0], e)
	if err != nil {
		return nil, err
	}
	out := &Relation{Rows: first.Rows, Width: first.Arity()}
	for _, m := range members[1:] {
		r, err := db.eval(m, e)
		if err != nil {
			return nil, err
		}
		keys := map[string]bool{}
		for _, row := range r.Rows {
			keys[rowKey(row)] = true
		}
		var kept [][]value.Value
		for _, row := range out.Rows {
			if keys[rowKey(row)] == want {
				kept = append(kept, row)
			}
		}
		out.Rows = kept
	}
	return out, nil
}

// refNest groups rows by their non-nested columns, in first-seen order,
// collecting the nested columns (as a tuple when there are several) into
// one trailing set-valued column.
func (db *DB) refNest(t *term.Term, e env) (*Relation, error) {
	in, err := db.eval(t.Args[0], e)
	if err != nil {
		return nil, err
	}
	nestedIdx, maxIdx, err := nestIndices(t)
	if err != nil {
		return nil, err
	}
	nested := map[int]bool{}
	for _, j := range nestedIdx {
		nested[j] = true
	}
	out := &Relation{}
	if w := in.Arity(); w > 0 {
		out.Width = w - len(nestedIdx) + 1
	}
	group := map[string]int{} // key → index into out.Rows and elems
	var elems [][]value.Value
	for _, row := range in.Rows {
		if maxIdx > len(row) {
			return nil, fmt.Errorf("engine: NEST index out of range for row of width %d", len(row))
		}
		var key []value.Value
		for j := 1; j <= len(row); j++ {
			if !nested[j] {
				key = append(key, row[j-1])
			}
		}
		var elem value.Value
		if len(nestedIdx) == 1 {
			elem = row[nestedIdx[0]-1]
		} else {
			names := make([]string, len(nestedIdx))
			vals := make([]value.Value, len(nestedIdx))
			for i, j := range nestedIdx {
				names[i] = fmt.Sprintf("a%d", j)
				vals[i] = row[j-1]
			}
			elem = value.NewTuple(names, vals)
		}
		k := rowKey(key)
		gi, ok := group[k]
		if !ok {
			gi = len(out.Rows)
			group[k] = gi
			out.Rows = append(out.Rows, key)
			elems = append(elems, nil)
		}
		elems[gi] = append(elems[gi], elem)
	}
	for gi, key := range out.Rows {
		out.Rows[gi] = append(key[:len(key):len(key)], value.NewSet(elems[gi]...))
	}
	return out, nil
}

func (db *DB) refUnnest(t *term.Term, e env) (*Relation, error) {
	in, err := db.eval(t.Args[0], e)
	if err != nil {
		return nil, err
	}
	j, ok := lera.IntConst(t.Args[1])
	if !ok {
		return nil, fmt.Errorf("engine: UNNEST index %s is not an integer", t.Args[1])
	}
	out := &Relation{Width: in.Arity()}
	for _, row := range in.Rows {
		if j < 1 || j > len(row) {
			return nil, fmt.Errorf("engine: UNNEST index %d out of range", j)
		}
		coll := row[j-1]
		if !coll.K.IsCollection() {
			return nil, fmt.Errorf("engine: UNNEST column %d is %s, not a collection", j, coll.K)
		}
		for _, el := range coll.Elems {
			nrow := append([]value.Value(nil), row...)
			nrow[j-1] = el
			out.Rows = append(out.Rows, nrow)
		}
	}
	return out, nil
}
