package engine

// The round state of a fixpoint (docs/PERF.md, "Rounds that allocate only
// their rows"): member results, new rows and the double-buffered delta live
// as long as the FIX, and under a FIX every SEARCH term keeps its relation
// list, pair words and stage kernels from round to round. None of it may
// reach the rows a FIX returns.

import (
	"context"
	"testing"

	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/value"
)

// roundScratchCases are fixpoints over graphDB's DOMINATE (edges are
// columns 2 → 3) whose rounds hand the reused buffers around in the ways a
// FIX can: a FIX nested in a recursive member, re-evaluated every outer
// round from the outer delta with its own round state; a recursive member
// that is the bare fixpoint name, so a round's member result is the delta
// buffer itself; and a bilinear member, two variants of one member that
// share their third relation's SEARCH term (substitution copies only the
// path to the occurrence it replaces), so that under a pool both variants
// evaluate that term at once and one of them runs without its scratch.
func roundScratchCases() []struct {
	name string
	q    *term.Term
} {
	edges := lera.Search([]*term.Term{lera.Rel("DOMINATE")}, lera.TrueQual(),
		[]*term.Term{lera.Attr(1, 2), lera.Attr(1, 3)})
	// step extends a path of name by an edge in front, driven from the delta.
	step := func(name string) *term.Term {
		return lera.Search([]*term.Term{lera.Rel("DOMINATE"), lera.Rel(name)},
			lera.Ands(lera.Cmp("=", lera.Attr(1, 3), lera.Attr(2, 1))),
			[]*term.Term{lera.Attr(1, 2), lera.Attr(2, 2)})
	}
	// sources is every node with an edge out.
	sources := lera.Search([]*term.Term{lera.Rel("DOMINATE")}, lera.TrueQual(), []*term.Term{lera.Attr(1, 2)})
	// closureOf(R) is every path that starts with a pair of R, extended by
	// edges at its end: the prefix-driven direction.
	closureOf := lera.Fix("S", lera.Union(
		lera.Rel("R"),
		lera.Search([]*term.Term{lera.Rel("S"), lera.Rel("DOMINATE")},
			lera.Ands(lera.Cmp("=", lera.Attr(1, 2), lera.Attr(2, 2))),
			[]*term.Term{lera.Attr(1, 1), lera.Attr(2, 3)}),
	), []string{"A", "B"})
	return []struct {
		name string
		q    *term.Term
	}{
		{"nested-fix", lera.Fix("R", lera.Union(edges,
			lera.Search([]*term.Term{closureOf}, lera.TrueQual(), []*term.Term{lera.Attr(1, 1), lera.Attr(1, 2)}),
		), []string{"A", "B"})},
		{"bare-rel-member", lera.Fix("X", lera.Union(edges, lera.Rel("X"), step("X")), []string{"A", "B"})},
		{"two-variants", lera.Fix("T", lera.Union(edges,
			lera.Search([]*term.Term{lera.Rel("T"), lera.Rel("T"), sources},
				lera.Ands(lera.Cmp("=", lera.Attr(1, 2), lera.Attr(2, 1)), lera.Cmp("=", lera.Attr(2, 2), lera.Attr(3, 1))),
				[]*term.Term{lera.Attr(1, 1), lera.Attr(2, 2)}),
		), []string{"A", "B"})},
	}
}

// TestRoundScratchIsolation evaluates each case at pool 1/2/4 and batch
// 1/1024 in both fixpoint modes, and semi-naive at pool 1/4 under a 128 KiB
// grant with spilling, against ReferenceEval and the serial run: rows in order,
// Counters and OpStats.Format(false). One DB per configuration evaluates
// every case, holding on to each result, then every case again; the held
// rows must still be the serial run's after the fixpoints that followed.
func TestRoundScratchIsolation(t *testing.T) {
	cases := roundScratchCases()
	for _, mode := range []FixMode{SemiNaive, Naive} {
		serial := make([]engineRun, len(cases))
		for i, c := range cases {
			serial[i] = runOn(graphDB(t, 1), c.q, runCfg{par: 1, mode: mode})
			if d := diffRows(referenceRows(t, graphDB(t, 1), c.q, mode), serial[i]); d != "" {
				t.Fatalf("%s %s serial: %s", c.name, modeName(mode), d)
			}
			if serial[i].NRows < 100 {
				t.Fatalf("%s %s: only %d rows", c.name, modeName(mode), serial[i].NRows)
			}
		}
		var cfgs []runCfg
		for _, par := range []int{1, 2, 4} {
			for _, bs := range []int{1, 1024} {
				cfgs = append(cfgs, runCfg{batch: bs, par: par, mode: mode})
			}
		}
		// Round state is semi-naive's; naive rounds under the grant spill
		// their whole body every round and only cost time here.
		for _, par := range []int{1, 4} {
			if mode == SemiNaive {
				cfgs = append(cfgs, runCfg{par: par, mode: mode, lim: guard.Limits{MaxMemBytes: 128 << 10}, spillDir: t.TempDir()})
			}
		}
		for _, cfg := range cfgs {
			db := graphDB(t, 1)
			held := make([]*Relation, len(cases))
			for pass := 0; pass < 2; pass++ {
				for i, c := range cases {
					db.ResetCounters()
					if d := diffRuns(serial[i], runOn(db, c.q, cfg)); d != "" {
						t.Fatalf("%s pass %d (%s): %s", c.name, pass, cfg, d)
					}
					if pass == 0 {
						var err error
						if held[i], err = db.EvalCtx(context.Background(), c.q); err != nil {
							t.Fatalf("%s (%s): %v", c.name, cfg, err)
						}
					}
				}
			}
			for i, c := range cases {
				if d := diffHeld(serial[i].Rows, held[i].Rows); d != "" {
					t.Errorf("%s (%s): rows held across later fixpoints: %s", c.name, cfg, d)
				}
			}
		}
	}
}

// diffHeld compares rows against their rendering at the time they were
// produced.
func diffHeld(want []string, rows [][]value.Value) string {
	if len(want) != len(rows) {
		return "row count changed"
	}
	for i, r := range rows {
		if rowKey(r) != want[i] {
			return "row changed: " + want[i] + " is now " + rowKey(r)
		}
	}
	return ""
}
