package engine

// Filter before crossing (docs/PERF.md): a nested-loop SEARCH stage judges
// the leading run of its conjuncts that read its own relation alone once
// per row of the relation, and pairs only the rows they keep with the
// prefix. The cross-* queries of the golden corpus pin its rows, counters
// and stats trees at every batch, pool and memory configuration; these
// tests pin which stages do it, the work it saves, and how it fails.

import (
	"context"
	"testing"

	"lera/internal/catalog"
	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/value"
)

// TestPreFilterStages pins each stage's pre-filtered conjuncts: only a
// nested-loop stage has any, and only a leading run that reads the
// stage's relation alone.
func TestPreFilterStages(t *testing.T) {
	db := loadedDB(t)
	corpus := diffCorpus()
	for name, want := range map[string][]int32{
		"cross-local-first":   {0, 1},
		"cross-local-behind":  {0, 0},
		"cross-empty-prefix":  {0, 1},
		"cartesian-filter":    {0, 0},
		"cartesian-then-hash": {0, 0, 0},
		"fig3-hash-join":      {0, 0},
	} {
		q := corpus[name]
		var rels []*Relation
		for _, rt := range q.Args[0].Args {
			rels = append(rels, stored(db, rt.Args[0].Val.S))
		}
		prog := db.compileSearch(q, rels)
		for i, st := range prog.stages {
			if st.local != want[i] {
				t.Errorf("%s: stage %d pre-filters %d conjuncts, want %d", name, i+1, st.local, want[i])
			}
		}
	}
}

// bigTiny is the shape of a cross join under a filter on its second, small
// relation: BIG holds n rows, TINY 5 of which one has K = 3, and
// SEARCH(BIG, TINY) keeps BIG.Id where TINY.K = 3.
func bigTiny(t *testing.T, n int) (*DB, *term.Term) {
	t.Helper()
	cat := catalog.New()
	for _, r := range []struct{ name, a, b string }{{"BIG", "Id", "V"}, {"TINY", "K", "W"}} {
		if _, err := cat.DeclareRelation(r.name, []catalog.Column{{Name: r.a, Type: cat.Types.Int}, {Name: r.b, Type: cat.Types.Int}}); err != nil {
			t.Fatal(err)
		}
	}
	db := New(cat)
	big := make([][]value.Value, n)
	for i := range big {
		big[i] = []value.Value{value.Int(int64(i)), value.Int(int64(i % 7))}
	}
	tiny := make([][]value.Value, 5)
	for i := range tiny {
		tiny[i] = []value.Value{value.Int(int64(i)), value.Int(int64(i * 10))}
	}
	if err := db.Load("BIG", big); err != nil {
		t.Fatal(err)
	}
	if err := db.Load("TINY", tiny); err != nil {
		t.Fatal(err)
	}
	q := lera.Search([]*term.Term{lera.Rel("BIG"), lera.Rel("TINY")},
		lera.Ands(lera.Cmp("=", lera.Attr(2, 1), term.Num(3))), []*term.Term{lera.Attr(1, 1)})
	return db, q
}

// TestPreFilterJoinPairs: crossing 1 000 BIG rows with the one TINY row
// that passes its filter costs 1 000 join pairs and 5 predicate
// evaluations, serially and on a pool, where judging the filter per pair
// cost 5 000 of each; the rows are the reference's, in order.
func TestPreFilterJoinPairs(t *testing.T) {
	const n = 1000
	for _, par := range []int{1, 4} {
		db, q := bigTiny(t, n)
		ref, err := ReferenceEval(context.Background(), db, q)
		if err != nil {
			t.Fatal(err)
		}
		db.Parallelism = par
		got, err := db.EvalCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if c := db.Count; c.JoinPairs != n || c.PredEvals != 5 {
			t.Errorf("pool %d: %d join pairs and %d evaluations, want %d and 5", par, c.JoinPairs, c.PredEvals, n)
		}
		if len(got.Rows) != n || len(ref.Rows) != n {
			t.Fatalf("pool %d: %d rows, the reference %d; want %d", par, len(got.Rows), len(ref.Rows), n)
		}
		for i := range ref.Rows {
			if rowKey(got.Rows[i]) != rowKey(ref.Rows[i]) {
				t.Fatalf("pool %d: row %d differs from the reference", par, i)
			}
		}
	}
}

// TestPreFilterFailureParity: a pre-filtered conjunct that fails on a row
// of its relation fails the query with the golden's error and counters,
// and one stats tree, serially, on a pool and under a one-byte grant that
// spills — the pre-filter runs before the pairs fan out. The reference,
// which judges it per pair, fails too.
func TestPreFilterFailureParity(t *testing.T) {
	want := golden(t, loadGolden(t), "fault/cross-prefilter")
	if want.Err == "" {
		t.Fatal("the golden records no failure")
	}
	if _, err := ReferenceEval(context.Background(), loadedDB(t), crossFails()); err == nil {
		t.Error("the reference answered a query whose conjunct divides by zero")
	}
	spill := guard.Limits{MaxMemBytes: 1}
	var stats string
	for _, c := range []runCfg{
		{batch: 1, par: 1}, {batch: 1024, par: 1}, {batch: 1, par: 4}, {par: 4},
		{par: 1, lim: spill, spillDir: t.TempDir()}, {par: 4, lim: spill, spillDir: t.TempDir()},
	} {
		db := loadedDB(t)
		if d := diffRuns(want, runOn(db, crossFails(), c)); d != "" {
			t.Errorf("%s: %s", c, d)
		}
		s := db.LastExecStats().Format(false)
		if stats == "" {
			stats = s
		} else if s != stats {
			t.Errorf("%s: stats tree\n%s\ndiffers from the serial run's\n%s", c, s, stats)
		}
	}
}
