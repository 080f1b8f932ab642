package engine

// Algebraic-law property tests: the identities the syntactic rewrite
// rules rely on must hold in the engine under set semantics, on random
// relations. Each law is checked by evaluating both sides and comparing
// canonical row sets.

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"lera/internal/catalog"
	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/value"
)

func lawDB(t *testing.T, r *rand.Rand) *DB {
	t.Helper()
	cat := catalog.New()
	cols := []catalog.Column{
		{Name: "A", Type: cat.Types.Int},
		{Name: "B", Type: cat.Types.Int},
	}
	for _, n := range []string{"R", "S", "T"} {
		if _, err := cat.DeclareRelation(n, cols); err != nil {
			t.Fatal(err)
		}
	}
	db := New(cat)
	for _, n := range []string{"R", "S", "T"} {
		rows := make([][]value.Value, r.Intn(12)+1)
		for i := range rows {
			rows[i] = []value.Value{value.Int(int64(r.Intn(6))), value.Int(int64(r.Intn(6)))}
		}
		if err := db.Load(n, rows); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func canonRel(t *testing.T, db *DB, q *term.Term) string {
	t.Helper()
	rel, err := db.EvalCtx(context.Background(), q)
	if err != nil {
		t.Fatalf("eval %s: %v", lera.Format(q), err)
	}
	var keys []string
	for _, row := range rel.Rows {
		var parts []string
		for _, v := range row {
			parts = append(parts, v.Key())
		}
		keys = append(keys, strings.Join(parts, ","))
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}

func sigma(rel *term.Term, q *term.Term, arity int) *term.Term {
	projs := make([]*term.Term, arity)
	for j := range projs {
		projs[j] = lera.Attr(1, j+1)
	}
	return lera.Search([]*term.Term{rel}, lera.Ands(q), projs)
}

func pi(rel *term.Term, cols ...int) *term.Term {
	projs := make([]*term.Term, len(cols))
	for i, c := range cols {
		projs[i] = lera.Attr(1, c)
	}
	return lera.Search([]*term.Term{rel}, lera.TrueQual(), projs)
}

func TestLawSelectDistributesOverUnion(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		db := lawDB(t, r)
		q := lera.Cmp(">", lera.Attr(1, 1), term.Num(int64(r.Intn(5))))
		lhs := sigma(lera.Union(lera.Rel("R"), lera.Rel("S")), q, 2)
		rhs := lera.Union(sigma(lera.Rel("R"), q, 2), sigma(lera.Rel("S"), q, 2))
		if canonRel(t, db, lhs) != canonRel(t, db, rhs) {
			t.Fatalf("trial %d: σ(R∪S) ≠ σR ∪ σS", trial)
		}
	}
}

func TestLawProjectDistributesOverUnion(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 25; trial++ {
		db := lawDB(t, r)
		lhs := pi(lera.Union(lera.Rel("R"), lera.Rel("S")), 2)
		rhs := lera.Union(pi(lera.Rel("R"), 2), pi(lera.Rel("S"), 2))
		if canonRel(t, db, lhs) != canonRel(t, db, rhs) {
			t.Fatalf("trial %d: π(R∪S) ≠ πR ∪ πS (set semantics)", trial)
		}
	}
}

func TestLawSelectCommutesWithDiffLeft(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		db := lawDB(t, r)
		q := lera.Cmp("<", lera.Attr(1, 2), term.Num(int64(r.Intn(5))))
		lhs := sigma(lera.Diff(lera.Rel("R"), lera.Rel("S")), q, 2)
		rhs := lera.Diff(sigma(lera.Rel("R"), q, 2), lera.Rel("S"))
		if canonRel(t, db, lhs) != canonRel(t, db, rhs) {
			t.Fatalf("trial %d: σ(R−S) ≠ σ(R)−S", trial)
		}
	}
}

func TestLawSelectCommutesWithInter(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 25; trial++ {
		db := lawDB(t, r)
		q := lera.Cmp("=", lera.Attr(1, 1), term.Num(int64(r.Intn(5))))
		lhs := sigma(lera.Inter(lera.Rel("R"), lera.Rel("S")), q, 2)
		// σ pushed into one operand, as the push_inter rule does.
		rhs := lera.Inter(sigma(lera.Rel("R"), q, 2), lera.Rel("S"))
		if canonRel(t, db, lhs) != canonRel(t, db, rhs) {
			t.Fatalf("trial %d: σ(R∩S) ≠ σ(R)∩S", trial)
		}
	}
}

func TestLawUnionAlgebra(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		db := lawDB(t, r)
		// Commutative + associative + idempotent by SET construction.
		a := lera.Union(lera.Rel("R"), lera.Rel("S"), lera.Rel("T"))
		b := lera.Union(lera.Rel("T"), lera.Union(lera.Rel("S"), lera.Rel("R")))
		// b contains a nested union; flatten by evaluation semantics.
		if canonRel(t, db, a) != canonRel(t, db, b) {
			t.Fatalf("trial %d: union algebra violated", trial)
		}
		// A ∪ A = A.
		if canonRel(t, db, lera.Union(lera.Rel("R"), lera.Rel("R"))) != canonRel(t, db, sigma(lera.Rel("R"), term.TrueT(), 2)) {
			t.Fatalf("trial %d: union idempotence violated", trial)
		}
	}
}

func TestLawNestUnnestInverse(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for trial := 0; trial < 25; trial++ {
		db := lawDB(t, r)
		// unnest(nest(R, (2), s), 2) = R, under set semantics.
		n := lera.Nest(lera.Rel("R"), []int{2}, "s")
		un := term.F(lera.OpUnnest, n, term.Num(2))
		if canonRel(t, db, un) != canonRel(t, db, sigma(lera.Rel("R"), term.TrueT(), 2)) {
			t.Fatalf("trial %d: unnest∘nest ≠ id", trial)
		}
	}
}
