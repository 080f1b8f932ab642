package engine

// The absolute half of the engine's determinism contract: rows, Counters
// and the timing-free EXPLAIN ANALYZE tree of a fixed corpus, committed in
// testdata/engine_corpus.golden. The file was produced at commit 19ebe43 by
// the tuple-at-a-time row evaluator that commit still shipped, when "row
// engine ≡ batched engine on every bookkeeping detail" was a tested
// invariant — so passing it unmodified proves this engine still does the
// bookkeeping that evaluator did. To reproduce it: check that commit out,
// replace its batch_test.go and spill_test.go by this file, make runOn
// select the row evaluator instead of setting the batch size, and run
// TestEngineGolden with -update-golden (exact commands: CHANGES.md, PR 13).
// Everything in this file therefore sticks to the API both commits have.
// The exceptions are the FILTER and JOIN entries (filter-member, join-op,
// fault/join-key-rejected): since FILTER and JOIN are evaluated as the
// SEARCHes they are, their counters are a SEARCH's — a conjunction's
// conjuncts are each one evaluation, with no evaluation of the ANDS itself,
// and an equi-JOIN pairs only the rows its key matches — and were
// regenerated then; their rows did not change. Running -update-golden on
// this commit regenerates the file from the serial default configuration —
// only for adding corpus entries.

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/term"
	"lera/internal/testdb"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/engine_corpus.golden from the serial default configuration")

const goldenPath = "../../testdata/engine_corpus.golden"

// diffCorpus is a set of queries covering every operator and both batch
// fast paths (compiled predicates, persistent/transient join indexes) as
// well as their generic fallbacks.
func diffCorpus() map[string]*term.Term {
	fig3 := lera.Search(
		[]*term.Term{lera.Rel("APPEARS_IN"), lera.Rel("FILM")},
		lera.Ands(
			lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1)),
			lera.Cmp("=", lera.Call("Name", lera.Attr(1, 2)), term.Str("Quinn")),
			lera.Call("Member", term.Str("Adventure"), lera.Attr(2, 3)),
		),
		[]*term.Term{lera.Attr(2, 2), lera.Attr(2, 3), lera.Call("Salary", lera.Attr(1, 2))},
	)
	fa := lera.Nest(
		lera.Search(
			[]*term.Term{lera.Rel("FILM"), lera.Rel("APPEARS_IN")},
			lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1))),
			[]*term.Term{lera.Attr(1, 2), lera.Attr(1, 3), lera.Attr(2, 2)},
		),
		[]int{3}, "Actors",
	)
	fig4 := lera.Search(
		[]*term.Term{fa},
		lera.Ands(
			term.F("MEMBER", term.Str("Adventure"), lera.Attr(1, 2)),
			term.F("ALL", lera.Cmp(">", lera.Call("Salary", lera.Attr(1, 3)), term.Num(10000))),
		),
		[]*term.Term{lera.Attr(1, 1)},
	)
	fig5 := lera.Search(
		[]*term.Term{fig5Fix()},
		lera.Ands(lera.Cmp("=", lera.Call("Name", lera.Attr(1, 2)), term.Str("Quinn"))),
		[]*term.Term{lera.Call("Name", lera.Attr(1, 1))},
	)
	filmIDs := func(rel string) *term.Term {
		return lera.Search([]*term.Term{lera.Rel(rel)}, lera.TrueQual(), []*term.Term{lera.Attr(1, 1)})
	}
	return map[string]*term.Term{
		"fig3-hash-join":   fig3,
		"fig4-nest-all":    fig4,
		"fig5-fixpoint":    fig5,
		"union":            lera.Union(filmIDs("FILM"), filmIDs("APPEARS_IN")),
		"inter":            lera.Inter(filmIDs("FILM"), filmIDs("DOMINATE")),
		"diff":             lera.Diff(filmIDs("FILM"), filmIDs("DOMINATE")),
		"filter-member":    lera.Filter(lera.Rel("FILM"), lera.Ands(term.F("MEMBER", term.Str("Western"), lera.Attr(1, 3)))),
		"join-op":          lera.Join(lera.Rel("FILM"), lera.Rel("APPEARS_IN"), lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1)))),
		"nest-multi":       lera.Nest(lera.Rel("DOMINATE"), []int{2, 3}, "Pairs"),
		"unnest":           term.F(lera.OpUnnest, lera.Nest(lera.Rel("APPEARS_IN"), []int{2}, "Actors"), term.Num(2)),
		"let-self-join":    term.F(lera.OpLet, term.Str("M"), filmIDs("FILM"), lera.Search([]*term.Term{lera.Rel("M"), lera.Rel("M")}, lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1))), []*term.Term{lera.Attr(1, 1)})),
		"cartesian-filter": lera.Search([]*term.Term{lera.Rel("FILM"), lera.Rel("APPEARS_IN")}, lera.Ands(lera.Cmp("<", lera.Attr(1, 1), lera.Attr(2, 1))), []*term.Term{lera.Attr(1, 1), lera.Attr(2, 1)}),
		"leftover-conj":    lera.Search([]*term.Term{lera.Rel("FILM")}, lera.Ands(lera.Cmp("=", term.Str("x"), term.Str("x")), lera.Cmp(">=", lera.Attr(1, 1), term.Num(2))), []*term.Term{lera.Attr(1, 2)}),
		"static-false":     lera.Search([]*term.Term{lera.Rel("FILM")}, lera.Ands(term.FalseT()), []*term.Term{lera.Attr(1, 1), lera.Attr(1, 2)}),
		// What the fused stage kernel distinguishes (docs/PERF.md, "SEARCH
		// pipeline: late materialisation"): a conjunct consumed at every
		// one of three stages, compiled and generic alike;
		"three-stage-conjuncts": lera.Search(
			[]*term.Term{lera.Rel("APPEARS_IN"), lera.Rel("FILM"), lera.Rel("DOMINATE")},
			lera.Ands(
				lera.Cmp("<", lera.Attr(1, 1), term.Num(4)),
				lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1)),
				lera.Call("Member", term.Str("Adventure"), lera.Attr(2, 3)),
				lera.Cmp("=", lera.Attr(2, 1), lera.Attr(3, 1)),
				lera.Cmp("<>", lera.Call("Name", lera.Attr(1, 2)), lera.Call("Name", lera.Attr(3, 3))),
			),
			[]*term.Term{lera.Attr(2, 2), lera.Call("Name", lera.Attr(1, 2)), lera.Attr(3, 1)},
		),
		// a stage conjunct that rejects every pair of a non-final join, so
		// the final one probes an empty prefix;
		"join-rejects-all": lera.Search(
			[]*term.Term{lera.Rel("FILM"), lera.Rel("APPEARS_IN"), lera.Rel("DOMINATE")},
			lera.Ands(
				lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1)),
				lera.Cmp("<", lera.Attr(2, 1), term.Num(0)),
				lera.Cmp("=", lera.Attr(1, 1), lera.Attr(3, 1)),
			),
			[]*term.Term{lera.Attr(1, 2), lera.Attr(3, 1)},
		),
		// a final stage whose projection mixes slots of both rows with a
		// generic call, after a stage conjunct and an attribute-free leftover;
		"final-mixed-projection": lera.Search(
			[]*term.Term{lera.Rel("FILM"), lera.Rel("APPEARS_IN")},
			lera.Ands(
				lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1)),
				lera.Cmp("=", term.Str("x"), term.Str("x")),
				lera.Cmp(">", lera.Call("Salary", lera.Attr(2, 2)), term.Num(9000)),
			),
			[]*term.Term{lera.Attr(2, 1), lera.Call("Salary", lera.Attr(2, 2)), lera.Attr(1, 2), term.F("UNION", lera.Attr(1, 3), lera.Attr(1, 3))},
		),
		// and a filtered cartesian step feeding a hash step.
		"cartesian-then-hash": lera.Search(
			[]*term.Term{lera.Rel("FILM"), lera.Rel("DOMINATE"), lera.Rel("APPEARS_IN")},
			lera.Ands(
				lera.Cmp("<", lera.Attr(1, 1), lera.Attr(2, 1)),
				lera.Cmp("=", lera.Attr(3, 1), lera.Attr(1, 1)),
				lera.Cmp("=", lera.Attr(3, 2), lera.Attr(2, 3)),
			),
			[]*term.Term{lera.Attr(1, 2), lera.Attr(2, 1), lera.Call("Name", lera.Attr(3, 2))},
		),
		// A nested-loop stage that leads with a conjunct reading its own
		// relation alone judges it once per row of the relation, then
		// pairs the rows it keeps with the prefix (docs/PERF.md "Filter
		// before crossing", TestPreFilterStages): here a conjunct of both
		// relations follows it;
		"cross-local-first": lera.Search(
			[]*term.Term{lera.Rel("FILM"), lera.Rel("DOMINATE")},
			lera.Ands(
				lera.Cmp("=", lera.Attr(2, 1), term.Num(1)),
				lera.Cmp(">=", lera.Attr(1, 1), lera.Attr(2, 1)),
			),
			[]*term.Term{lera.Attr(1, 2), lera.Call("Name", lera.Attr(2, 2))},
		),
		// a local conjunct behind one of both relations is judged per pair;
		"cross-local-behind": lera.Search(
			[]*term.Term{lera.Rel("FILM"), lera.Rel("DOMINATE")},
			lera.Ands(
				lera.Cmp("<", lera.Attr(1, 1), lera.Attr(2, 1)),
				lera.Cmp("=", lera.Attr(2, 1), term.Num(3)),
			),
			[]*term.Term{lera.Attr(1, 2), lera.Attr(2, 1)},
		),
		// and after an empty prefix a local conjunct that fails on some row
		// of the relation is never judged.
		"cross-empty-prefix": lera.Search(
			[]*term.Term{lera.Rel("FILM"), lera.Rel("DOMINATE")},
			lera.Ands(lera.Cmp("<", lera.Attr(1, 1), term.Num(0)), failsOnNumf3()),
			[]*term.Term{lera.Attr(1, 2)},
		),
	}
}

// failsOnNumf3 is 1 / (2.1 - 3) > 0, a conjunct of DOMINATE alone that
// fails on its row with Numf 3, the third: division by zero.
func failsOnNumf3() *term.Term {
	return lera.Cmp(">", term.F("/", term.Num(1), term.F("-", lera.Attr(2, 1), term.Num(3))), term.Num(0))
}

// crossFails is a nested-loop stage whose pre-filter fails: failsOnNumf3
// over FILM × DOMINATE.
func crossFails() *term.Term {
	return lera.Search([]*term.Term{lera.Rel("FILM"), lera.Rel("DOMINATE")}, lera.Ands(failsOnNumf3()), []*term.Term{lera.Attr(1, 2)})
}

// joinKeyRejected is a JOIN of FILM and APPEARS_IN on Numf whose first
// conjunct, 1 / (1.1 - 2.1 - 1) <> 0, divides by zero on every pair whose
// FILM Numf is one more than its APPEARS_IN Numf — pairs the equi-join
// key rejects. Judged pair by pair, as the reference does, the JOIN fails;
// as the SEARCH it is, it probes only pairs of equal keys and answers.
func joinKeyRejected() *term.Term {
	diff := term.F("-", term.F("-", lera.Attr(1, 1), lera.Attr(2, 1)), term.Num(1))
	return lera.Join(lera.Rel("FILM"), lera.Rel("APPEARS_IN"), lera.Ands(
		lera.Cmp("<>", term.F("/", term.Num(1), diff), term.Num(0)),
		lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1)),
	))
}

// runCfg is one engine configuration of the determinism matrix.
type runCfg struct {
	batch, par int
	lim        guard.Limits
	spillDir   string
	mode       FixMode
	fault      int // > 0: a MEMBER fault armed on that call index
}

func (c runCfg) String() string {
	return fmt.Sprintf("%s batch=%d par=%d mem=%d spill=%v", modeName(c.mode), c.batch, c.par, c.lim.MaxMemBytes, c.spillDir != "")
}

func modeName(m FixMode) string {
	if m == Naive {
		return "naive"
	}
	return "semi-naive"
}

// engineRun is one evaluation outcome — the unit the golden file stores
// and every configuration is compared on. Rows are rendered through
// rowKey; Stats is OpStats.Format(false), one line per element, and is
// recorded for successful runs only.
type engineRun struct {
	Rows     []string `json:"rows,omitempty"`
	NRows    int      `json:"nrows"`
	Width    int      `json:"width"`
	Counters Counters `json:"counters"`
	Stats    []string `json:"stats,omitempty"`
	Err      string   `json:"err,omitempty"`
}

// runOn evaluates q on db under configuration c.
func runOn(db *DB, q *term.Term, c runCfg) engineRun {
	db.BatchSize = c.batch
	db.Parallelism = c.par
	db.Limits = c.lim
	db.SpillDir = c.spillDir
	SetFixMode(db, c.mode)
	db.CollectStats = true
	if c.fault > 0 {
		// MEMBER reaches the ADT registry (Name resolves as a field
		// projection and never hits the injector).
		db.Injector = guard.NewInjector()
		db.Injector.Set("MEMBER", guard.Fault{OnCall: c.fault, Mode: guard.FaultError})
	}
	rel, err := db.EvalCtx(context.Background(), q)
	out := engineRun{Counters: db.Count}
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.Stats = strings.Split(strings.TrimRight(db.LastExecStats().Format(false), "\n"), "\n")
	out.Width = rel.Arity()
	out.NRows = len(rel.Rows)
	for _, r := range rel.Rows {
		out.Rows = append(out.Rows, rowKey(r))
	}
	return out
}

// runEngine evaluates q on a fresh films database.
func runEngine(t *testing.T, q *term.Term, c runCfg) engineRun {
	t.Helper()
	return runOn(loadedDB(t), q, c)
}

// graphDB holds one seeded random DOMINATE graph, large enough that the
// Figure 5 closure crosses batch and parallel-chunk boundaries.
func graphDB(t *testing.T, seed int64) *DB {
	t.Helper()
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	db := New(cat)
	if err := db.Load("DOMINATE", randomGraph(40, 80, seed)); err != nil {
		t.Fatal(err)
	}
	return db
}

// diffRuns compares two outcomes bit for bit; want may be a golden entry
// stored without its rows (NRows still pins the cardinality).
func diffRuns(want, got engineRun) string {
	if want.Err != got.Err {
		return fmt.Sprintf("error: %q vs %q", want.Err, got.Err)
	}
	if want.Width != got.Width {
		return fmt.Sprintf("width %d vs %d", want.Width, got.Width)
	}
	if want.NRows != got.NRows {
		return fmt.Sprintf("%d vs %d rows", want.NRows, got.NRows)
	}
	for i := range want.Rows {
		if want.Rows[i] != got.Rows[i] {
			return fmt.Sprintf("row %d differs", i)
		}
	}
	if want.Counters != got.Counters {
		return fmt.Sprintf("counters %+v vs %+v", want.Counters, got.Counters)
	}
	if a, b := strings.Join(want.Stats, "\n"), strings.Join(got.Stats, "\n"); a != b {
		return fmt.Sprintf("stats trees differ:\n%s\nvs\n%s", a, b)
	}
	return ""
}

// tightLimits trips the row budget on several corpus queries.
var tightLimits = guard.Limits{MaxRows: 12, MaxFixIterations: 50}

// goldenRuns computes every golden entry under the given batch and pool
// size: the corpus in both fixpoint modes, the corpus under tightLimits,
// the first two MEMBER fault positions of the Figure 3 query, the failing
// pre-filter of crossFails, the JOIN that answers because its failing pairs
// are ones its equi-join key rejects (joinKeyRejected), the Figure 5
// closure over three random graphs and its left-linear form over the first
// (rows elided).
func goldenRuns(t *testing.T, batch, par int) map[string]engineRun {
	t.Helper()
	out := map[string]engineRun{}
	for name, q := range diffCorpus() {
		for _, mode := range []FixMode{SemiNaive, Naive} {
			out["corpus/"+name+"/"+modeName(mode)] = runEngine(t, q, runCfg{batch: batch, par: par, mode: mode})
		}
		out["limits/"+name] = runEngine(t, q, runCfg{batch: batch, par: par, lim: tightLimits})
	}
	for _, call := range []int{1, 2} {
		out[fmt.Sprintf("fault/member-call-%d", call)] = runEngine(t, diffCorpus()["fig3-hash-join"], runCfg{batch: batch, par: par, fault: call})
	}
	out["fault/cross-prefilter"] = runEngine(t, crossFails(), runCfg{batch: batch, par: par})
	out["fault/join-key-rejected"] = runEngine(t, joinKeyRejected(), runCfg{batch: batch, par: par})
	for seed := int64(1); seed <= 3; seed++ {
		for _, mode := range []FixMode{SemiNaive, Naive} {
			run := runOn(graphDB(t, seed), fig5Fix(), runCfg{batch: batch, par: par, mode: mode})
			run.Rows = nil
			out[fmt.Sprintf("large-fixpoint/seed-%d/%s", seed, modeName(mode))] = run
		}
	}
	for _, mode := range []FixMode{SemiNaive, Naive} {
		run := runOn(graphDB(t, 1), linearFix(), runCfg{batch: batch, par: par, mode: mode})
		run.Rows = nil
		out["delta-driven-fixpoint/"+modeName(mode)] = run
	}
	return out
}

// linearFix is the left-linear closure of DOMINATE — the shape the
// Alexander rule leaves of a focused closure, unfocused here so that a
// semi-naive round's delta holds many rows: each round joins the stored
// relation with the delta, driven from the delta (docs/PERF.md,
// "Delta-driven rounds"), and its pairs come back in stored-row order
// only because they are re-sorted.
func linearFix() *term.Term {
	seed := lera.Search(
		[]*term.Term{lera.Rel("DOMINATE")},
		lera.TrueQual(),
		[]*term.Term{lera.Attr(1, 2), lera.Attr(1, 3)},
	)
	rec := lera.Search(
		[]*term.Term{lera.Rel("DOMINATE"), lera.Rel("BETTER_THAN")},
		lera.Ands(lera.Cmp("=", lera.Attr(1, 3), lera.Attr(2, 1))),
		[]*term.Term{lera.Attr(1, 2), lera.Attr(2, 2)},
	)
	return lera.Fix("BETTER_THAN", lera.Union(seed, rec), []string{"Refactor1", "Refactor2"})
}

// loadGolden reads the committed golden file.
func loadGolden(t *testing.T) map[string]engineRun {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var g map[string]engineRun
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return g
}

// golden returns one entry of the golden file, failing the test when it
// is missing.
func golden(t *testing.T, g map[string]engineRun, key string) engineRun {
	t.Helper()
	e, ok := g[key]
	if !ok {
		t.Fatalf("%s has no entry %q", goldenPath, key)
	}
	return e
}

// TestEngineGolden pins the serial default configuration to the golden
// file entry by entry (the other configurations are covered by the
// bit-identity tests), and checks the file has no stale entries. Final
// scans that copy their projected cells (forceCopy) give the same runs as
// the ones that slice them out of the stored rows.
func TestEngineGolden(t *testing.T) {
	runs := goldenRuns(t, 0, 1)
	forceCopy = true
	copied := goldenRuns(t, 0, 1)
	forceCopy = false
	for key, run := range runs {
		if d := diffRuns(copied[key], run); d != "" {
			t.Errorf("%s: sliced vs copied: %s", key, d)
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(runs, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	g := loadGolden(t)
	for key, run := range runs {
		if d := diffRuns(golden(t, g, key), run); d != "" {
			t.Errorf("%s: %s", key, d)
		}
	}
	for key := range g {
		if _, ok := runs[key]; !ok {
			t.Errorf("%s: stale golden entry", key)
		}
	}
	tripped := 0
	for name := range diffCorpus() {
		if g["limits/"+name].Err != "" {
			tripped++
		}
	}
	if tripped == 0 {
		t.Error("tightLimits never tripped — the limits entries are not exercising the error path")
	}
}
