package engine

// The fixpoint operator of §3.2: fix(R, E(R)) computes the saturation
// R = E(R). Two strategies are provided: naive iteration (re-evaluate the
// whole body against the accumulated relation each round) and semi-naive
// iteration (evaluate each recursive union member once per occurrence of
// R, with that occurrence bound to the previous round's delta — the
// standard treatment, correct for linear and bilinear recursions such as
// the Figure 5 BETTER_THAN view).

import (
	"fmt"
	"strings"

	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/value"
)

// deltaName is the reserved environment name for the per-occurrence delta
// substitution of semi-naive evaluation.
const deltaName = "\x00DELTA"

func (db *DB) evalFix(t *term.Term, e env) (*Relation, error) {
	name := strings.ToUpper(t.Args[0].Val.S)
	body := t.Args[1]
	// Every round evaluates the same terms: their SEARCHes compile once for
	// this FIX (searchCache), not once per round.
	if g := db.g; g != nil {
		outer := g.progs
		g.progs = &searchCache{}
		defer func() { g.progs = outer }()
	}
	if db.naive {
		return db.fixNaive(name, body, e)
	}
	return db.fixSemiNaive(name, body, e)
}

// fixIterCap returns the per-instance iteration cap: every FIX subterm
// gets its own budget (the shared Counters.FixIterations is kept for
// stats only, so several fixpoints in one query cannot trip each other's
// cap). Configured through DB.Limits; guards against non-monotone bodies.
func (db *DB) fixIterCap() int { return db.Limits.FixIterations() }

func (db *DB) fixNaive(name string, body *term.Term, e env) (*Relation, error) {
	db.setStatsDetail(name + " [naive]")
	total := &Relation{}
	seen := db.newMemSet("fixpoint seen-set")
	defer seen.close()
	// A round reads total only while it evaluates the body, before any row
	// is added: total is extended in place and the environment, which
	// differs from e only in this binding, is cloned once per FIX.
	inner := e.clone()
	inner[name] = total
	cap := db.fixIterCap()
	for iters := 1; ; iters++ {
		db.Count.FixIterations++
		if err := db.checkCtx(); err != nil {
			return nil, err
		}
		r, err := db.eval(body, inner)
		if err != nil {
			return nil, err
		}
		if total.Width == 0 {
			total.Width = r.Arity()
		}
		added := 0
		for _, row := range r.Rows {
			fresh, err := seen.add(row)
			if err != nil {
				return nil, err
			}
			if fresh {
				total.Rows = append(total.Rows, row)
				added++
			}
		}
		db.recordFixRound(iters, added, len(total.Rows))
		if added == 0 {
			return total, nil
		}
		// Cap semantics (shared with semi-naive): the cap is the maximum
		// number of *productive* rounds. Round `cap` may still add rows;
		// only a fixpoint productive beyond that errs.
		if iters > cap {
			return nil, fmt.Errorf("engine: naive fixpoint %s still growing after %d iterations (cap %d)", name, iters, cap)
		}
	}
}

func (db *DB) fixSemiNaive(name string, body *term.Term, e env) (*Relation, error) {
	// Split the body into base members (no reference to name) and
	// recursive members. A body that is not a UNIONN falls back to naive
	// evaluation.
	refs := func(m *term.Term) bool {
		return term.Contains(m, func(s *term.Term) bool {
			n, ok := lera.RelName(s)
			return ok && strings.EqualFold(n, name)
		})
	}
	if !lera.IsOp(body, lera.OpUnion) {
		return db.fixNaive(name, body, e)
	}
	db.setStatsDetail(name + " [semi-naive]")
	var base, rec []*term.Term
	for _, m := range body.Args[0].Args {
		if refs(m) {
			rec = append(rec, m)
		} else {
			base = append(base, m)
		}
	}

	total := &Relation{}
	seen := db.newMemSet("fixpoint seen-set")
	defer seen.close()
	// The round state lives as long as the FIX, so that a round allocates
	// only the rows it adds (docs/PERF.md, "Rounds that allocate only their
	// rows"): the members' results, the round's new rows and the delta are
	// buffers refilled every round. The delta is double-buffered: add fills
	// the buffer the bound delta is not, so round k+1 reads round k's delta
	// and refills round k-1's, which nothing reads any more — a member that
	// returns the delta itself (a bare REL of the name) has been copied into
	// newRows by then.
	var deltas [2]Relation
	delta := &deltas[0]
	add := func(rows [][]value.Value) error {
		next := &deltas[0]
		if next == delta {
			next = &deltas[1]
		}
		next.Rows, next.Width = next.Rows[:0], total.Width
		for _, row := range rows {
			fresh, err := seen.add(row)
			if err != nil {
				return err
			}
			if fresh {
				total.Rows = append(total.Rows, row)
				next.Rows = append(next.Rows, row)
			}
		}
		delta = next
		return nil
	}

	// The per-round body of each recursive member is loop-invariant: one
	// variant per occurrence of the fixpoint name, with that occurrence
	// rebound to the delta. Hoist the substitution out of the round loop.
	var variants []*term.Term
	for _, m := range rec {
		occ := countOccurrences(m, name)
		for k := 0; k < occ; k++ {
			variants = append(variants, substituteOccurrence(m, name, k))
		}
	}

	// Round 0: base members. Checked for cancellation first — a huge base
	// member must not stall the query past its deadline unobserved.
	db.Count.FixIterations++
	if err := db.checkCtx(); err != nil {
		return nil, err
	}
	baseRels := make([]*Relation, len(base))
	if err := db.evalMembers(base, e, baseRels); err != nil {
		return nil, err
	}
	var newRows [][]value.Value
	for _, r := range baseRels {
		if total.Width == 0 {
			total.Width = r.Arity()
		}
		newRows = append(newRows, r.Rows...)
	}
	if err := add(newRows); err != nil {
		return nil, err
	}
	db.recordFixRound(1, len(delta.Rows), len(total.Rows))

	// The rounds' environment differs only in the delta: total is extended
	// in place.
	inner := e.clone()
	inner[name] = total
	recRels := make([]*Relation, len(variants))
	cap := db.fixIterCap()
	for iters := 1; len(delta.Rows) > 0; iters++ {
		db.Count.FixIterations++
		if err := db.checkCtx(); err != nil {
			return nil, err
		}
		// Same cap semantics as naive: cap bounds productive rounds (the
		// base round counts as productive round 1).
		if iters > cap {
			return nil, fmt.Errorf("engine: semi-naive fixpoint %s still growing after %d iterations (cap %d)", name, iters, cap)
		}
		inner[deltaName] = delta
		if err := db.evalMembers(variants, inner, recRels); err != nil {
			return nil, err
		}
		newRows = newRows[:0]
		for _, r := range recRels {
			newRows = append(newRows, r.Rows...)
		}
		if err := add(newRows); err != nil {
			return nil, err
		}
		db.recordFixRound(iters+1, len(delta.Rows), len(total.Rows))
	}
	return total, nil
}

func countOccurrences(m *term.Term, name string) int {
	return term.Count(m, func(s *term.Term) bool {
		n, ok := lera.RelName(s)
		return ok && strings.EqualFold(n, name)
	})
}

// substituteOccurrence replaces the k-th (preorder) occurrence of
// REL(name) in m with REL(deltaName).
func substituteOccurrence(m *term.Term, name string, k int) *term.Term {
	idx := -1
	found := false
	var target term.Path
	term.Walk(m, func(s *term.Term, p term.Path) bool {
		if n, ok := lera.RelName(s); ok && strings.EqualFold(n, name) {
			idx++
			if idx == k {
				target = p.Clone()
				found = true
				return false
			}
		}
		return true
	})
	if !found {
		return m
	}
	return term.ReplaceAt(m, target, lera.Rel(deltaName))
}
