package engine

import (
	"context"
	"strings"
	"testing"

	"lera/internal/lera"
	"lera/internal/term"
)

// statsFor evaluates q with per-operator collection on and returns the
// stats tree.
func statsFor(t *testing.T, db *DB, q *term.Term) *OpStats {
	t.Helper()
	db.CollectStats = true
	defer func() { db.CollectStats = false }()
	if _, err := db.EvalCtx(context.Background(), q); err != nil {
		t.Fatalf("eval %s: %v", lera.Format(q), err)
	}
	root := db.LastExecStats()
	if root == nil {
		t.Fatal("LastExecStats = nil after a CollectStats run")
	}
	return root
}

func TestExecStatsTreeShape(t *testing.T) {
	db := loadedDB(t)
	q := lera.Search(
		[]*term.Term{lera.Rel("FILM")},
		lera.Ands(lera.Cmp("=", lera.Attr(1, 1), term.Num(3))),
		[]*term.Term{lera.Attr(1, 2)})
	root := statsFor(t, db, q)

	if root.Op != "eval" || len(root.Children) != 1 {
		t.Fatalf("root = %s with %d children, want eval/1", root.Op, len(root.Children))
	}
	search := root.Children[0]
	if search.Op != lera.OpSearch {
		t.Fatalf("top operator = %s, want %s", search.Op, lera.OpSearch)
	}
	if search.Rows != 1 {
		t.Fatalf("SEARCH rows = %d, want 1", search.Rows)
	}
	if len(search.Children) != 1 || search.Children[0].Op != lera.OpRel {
		t.Fatalf("SEARCH children = %+v, want one REL", search.Children)
	}
	rel := search.Children[0]
	if rel.Detail != "FILM" || rel.Rows != 4 {
		t.Fatalf("REL = %s rows=%d, want FILM rows=4", rel.Detail, rel.Rows)
	}
	// Inclusive counters: the REL scan is attributed to the subtree.
	if search.Incl.Scanned != 4 || rel.Incl.Scanned != 4 {
		t.Fatalf("scanned incl: search=%d rel=%d, want 4/4", search.Incl.Scanned, rel.Incl.Scanned)
	}
	// Self: the parent's own work excludes the child's.
	if self := search.Self(); self.Scanned != 0 {
		t.Fatalf("SEARCH self scanned = %d, want 0", self.Scanned)
	}
}

func findOp(root *OpStats, op string) *OpStats {
	if root.Op == op {
		return root
	}
	for _, c := range root.Children {
		if found := findOp(c, op); found != nil {
			return found
		}
	}
	return nil
}

func TestExecStatsFixRounds(t *testing.T) {
	for _, mode := range []FixMode{SemiNaive, Naive} {
		db := chainDB(t, 4) // 5 nodes, 10 transitive-closure pairs
		q := tcFix("TC")
		SetFixMode(db, mode)
		root := statsFor(t, db, q)
		fix := findOp(root, lera.OpFix)
		if fix == nil {
			t.Fatalf("mode %v: no FIX node in stats tree", mode)
		}
		wantDetail := "TC [semi-naive]"
		if mode == Naive {
			wantDetail = "TC [naive]"
		}
		if fix.Detail != wantDetail {
			t.Errorf("mode %v: FIX detail = %q, want %q", mode, fix.Detail, wantDetail)
		}
		if fix.Rows != 10 { // chain of 5: C(5,2) = 10 pairs
			t.Errorf("mode %v: FIX rows = %d, want 10", mode, fix.Rows)
		}
		if len(fix.Rounds) < 2 {
			t.Fatalf("mode %v: rounds = %v, want per-round deltas", mode, fix.Rounds)
		}
		// Deltas must sum to the total, totals must be monotone, and the
		// last round is the empty one that stopped the iteration.
		sum, prevTotal := 0, 0
		for _, r := range fix.Rounds {
			sum += r.Delta
			if r.Total < prevTotal {
				t.Errorf("mode %v: total shrank: %v", mode, fix.Rounds)
			}
			prevTotal = r.Total
		}
		if sum != 10 || prevTotal != 10 {
			t.Errorf("mode %v: deltas sum=%d final total=%d, want 10/10", mode, sum, prevTotal)
		}
		if last := fix.Rounds[len(fix.Rounds)-1]; last.Delta != 0 {
			t.Errorf("mode %v: last round delta = %d, want 0", mode, last.Delta)
		}
		out := fix.Format(false)
		if !strings.Contains(out, wantDetail) || !strings.Contains(out, "· round 1:") {
			t.Errorf("mode %v: Format missing detail/rounds:\n%s", mode, out)
		}
	}
}

func TestExecStatsChildTruncation(t *testing.T) {
	db := chainDB(t, 4)
	// Drive more children than the cap under one parent via a long UNIONN
	// of EDGE searches.
	var members []*term.Term
	for i := 0; i < MaxOpChildren+8; i++ {
		// Distinct qualifications keep the UNIONN set from deduplicating
		// the members.
		members = append(members, lera.Search([]*term.Term{lera.Rel("EDGE")},
			lera.Ands(lera.Cmp(">", lera.Attr(1, 1), term.Num(int64(-1-i)))),
			[]*term.Term{lera.Attr(1, 1)}))
	}
	root := statsFor(t, db, lera.Union(members...))
	un := root.Children[0]
	if un.Op != lera.OpUnion {
		t.Fatalf("top op = %s", un.Op)
	}
	if len(un.Children) != MaxOpChildren {
		t.Fatalf("children = %d, want capped at %d", len(un.Children), MaxOpChildren)
	}
	if un.Truncated != 8 {
		t.Fatalf("Truncated = %d, want 8", un.Truncated)
	}
	// Counters stay exact: all members' scans are in the parent's Incl.
	if want := (MaxOpChildren + 8) * 4; un.Incl.Scanned != want {
		t.Fatalf("Incl.Scanned = %d, want %d (truncation must not lose work)", un.Incl.Scanned, want)
	}
	if !strings.Contains(un.Format(false), "(8 more operator evaluations truncated)") {
		t.Fatal("Format missing truncation note")
	}
}

// TestExecStatsDisabledNoCollection pins the contract that a run without
// CollectStats leaves no tree behind (and clears nothing it shouldn't).
func TestExecStatsDisabledCheap(t *testing.T) {
	db := loadedDB(t)
	q := lera.Search([]*term.Term{lera.Rel("FILM")}, lera.TrueQual(),
		[]*term.Term{lera.Attr(1, 2)})
	if _, err := db.EvalCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if db.LastExecStats() != nil {
		t.Fatal("stats tree present after a CollectStats=false run")
	}
}

// TestForkCarriesCollectStats: CollectStats is one of the knobs a fork
// (and so a parallel worker) inherits, while the tree it builds stays
// private to the fork that ran.
func TestForkCarriesCollectStats(t *testing.T) {
	db := loadedDB(t)
	db.CollectStats = true
	SetFixMode(db, Naive)
	fork := db.Fork()
	if !fork.CollectStats {
		t.Fatal("Fork dropped CollectStats")
	}
	if !fork.naive {
		t.Fatal("Fork dropped the naive fixpoint strategy")
	}
	q := lera.Search([]*term.Term{lera.Rel("FILM")}, lera.TrueQual(),
		[]*term.Term{lera.Attr(1, 2)})
	if _, err := fork.EvalCtx(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	if fork.LastExecStats() == nil {
		t.Error("the fork's run left no stats tree")
	}
	if db.LastExecStats() != nil {
		t.Error("the fork's stats tree leaked into its parent")
	}
}
