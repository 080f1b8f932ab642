package core

import (
	"testing"

	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/value"
)

// planSession builds TINY (5 rows, one matching a selective filter) and
// BIG (1000 rows).
func planSession(t *testing.T, opts ...Option) *Session {
	t.Helper()
	s := NewSession(opts...)
	s.MustExec("TABLE BIG (Id : INT, V : INT); TABLE TINY (K : INT, W : INT);")
	big := make([][]value.Value, 1000)
	for i := range big {
		big[i] = []value.Value{value.Int(int64(i)), value.Int(int64(i % 7))}
	}
	if err := s.DB.Load("BIG", big); err != nil {
		t.Fatal(err)
	}
	tiny := make([][]value.Value, 5)
	for i := range tiny {
		tiny[i] = []value.Value{value.Int(int64(i)), value.Int(int64(i * 10))}
	}
	if err := s.DB.Load("TINY", tiny); err != nil {
		t.Fatal(err)
	}
	return s
}

// The §7 planning extension: with WithPlanning, the smaller relation
// moves first and the engine's pipeline filters early.
func TestPlanningReordersJoins(t *testing.T) {
	q := "SELECT BIG.Id FROM BIG, TINY WHERE TINY.K = 3 AND BIG.V < 2"

	base := planSession(t)
	base.DB.ResetCounters()
	r1, err := base.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	basePairs := base.DB.Count.JoinPairs

	planned := planSession(t, WithPlanning())
	planned.DB.ResetCounters()
	r2, err := planned.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	plannedPairs := planned.DB.Count.JoinPairs

	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("results differ: %d vs %d", len(r1.Rows), len(r2.Rows))
	}
	// The planned order is (TINY, BIG): the TINY filter applies before
	// the cartesian step, so join pairs drop from 5*1000 to 1*1000.
	if plannedPairs >= basePairs {
		t.Errorf("planning did not reduce join pairs: %d vs %d", plannedPairs, basePairs)
	}
	// The rewritten term's relation list starts with TINY.
	rels := findSearchRels(r2.Rewritten)
	if rels == nil || relName(rels[0]) != "TINY" {
		t.Errorf("reordered relations = %v", lera.Format(r2.Rewritten))
	}
}

// Identity orders veto: a query already smallest-first is untouched.
func TestPlanningIdentityVetoes(t *testing.T) {
	s := planSession(t, WithPlanning())
	res, err := s.Query("SELECT TINY.K FROM TINY, BIG WHERE TINY.K = 3")
	if err != nil {
		t.Fatal(err)
	}
	rels := findSearchRels(res.Rewritten)
	if relName(rels[0]) != "TINY" || relName(rels[1]) != "BIG" {
		t.Errorf("order changed: %s", lera.Format(res.Rewritten))
	}
}

// Views and non-REL operands veto the reordering (only base relations
// carry estimates).
func TestPlanningNonBaseVetoes(t *testing.T) {
	s := planSession(t, WithPlanning(), WithBlockLimit("merge", 0))
	s.MustExec("CREATE VIEW BV (Id, V) AS SELECT Id, V FROM BIG WHERE V = 1;")
	res, err := s.Query("SELECT BV.Id FROM BV, TINY WHERE TINY.K = 1")
	if err != nil {
		t.Fatal(err)
	}
	rels := findSearchRels(res.Rewritten)
	if len(rels) != 2 || !lera.IsOp(rels[0], lera.OpSearch) {
		t.Errorf("view operand moved: %s", lera.Format(res.Rewritten))
	}
}

func findSearchRels(t *term.Term) []*term.Term {
	var rels []*term.Term
	term.Walk(t, func(s *term.Term, _ term.Path) bool {
		if lera.IsOp(s, lera.OpSearch) && rels == nil {
			rels = s.Args[0].Args
			return false
		}
		return true
	})
	return rels
}

func relName(t *term.Term) string {
	n, _ := lera.RelName(t)
	return n
}
