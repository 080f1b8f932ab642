// Command benchrunner is the paper reproduction: one experiment per prose
// claim of the paper (DESIGN.md §4.2), each reported as a table of
// machine-independent work counters — operators, tuples scanned, join
// pairs, tuples emitted, predicate evaluations, condition checks. The
// paper reports no measured numbers, so these tables are the result;
// they hold no wall-clock column, every query runs on the serial engine
// path, and two runs print the same bytes. testdata/experiments.golden is
// the committed output of a full run, and CI diffs a fresh run against it
// (EXPERIMENTS.md). Timing lives in bench/ (BENCHMARK.json) and in the
// root micro-benchmarks, profiling in `go test -bench … -cpuprofile`.
//
// Usage: benchrunner [-e 1,4,7]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"lera"
	"lera/internal/engine"
	"lera/internal/rules"
	"lera/internal/value"
)

type experiment struct {
	n   int
	run func(io.Writer)
}

// experiments lists the tables in print order (the numbers are
// EXPERIMENTS.md's; 9 and 12 onwards are not work-counter tables, and 10
// is retired).
var experiments = []experiment{
	{1, e1SearchMerging},
	{2, e2PushUnion},
	{3, e3PushNest},
	{4, e4Alexander},
	{5, e5Inconsistency},
	{6, e6Simplify},
	{7, e7BlockLimits},
	{8, e8RepeatedBlocks},
	{11, e11Guardrails},
}

func main() {
	sel := flag.String("e", "", "comma-separated experiment numbers (default all)")
	flag.Parse()
	if err := run(os.Stdout, *sel); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(2)
	}
}

// run prints the selected experiments (all when sel is empty) to w, each
// followed by a blank line.
func run(w io.Writer, sel string) error {
	want := map[int]bool{}
	if sel != "" {
		for _, f := range strings.Split(sel, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fmt.Errorf("bad -e: %w", err)
			}
			if !slices.ContainsFunc(experiments, func(e experiment) bool { return e.n == n }) {
				return fmt.Errorf("bad -e: no experiment %d", n)
			}
			want[n] = true
		}
	}
	for _, e := range experiments {
		if sel == "" || want[e.n] {
			e.run(w)
			fmt.Fprintln(w)
		}
	}
	return nil
}

// --- workload builders ---

// filmsLike builds FILM(Numf, Title, Categories) with n rows and the
// Category enumeration (for E5).
func filmsLike(n int, opts ...lera.Option) *lera.Session {
	s := lera.NewSession(opts...)
	s.MustExec(`
TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction', 'Western');
TYPE SetCategory SET OF Category;
TABLE FILM (Numf : NUMERIC, Title : CHAR, Categories : SetCategory);
`)
	cats := []string{"Comedy", "Adventure", "Science Fiction", "Western"}
	rows := make([][]value.Value, n)
	for i := 0; i < n; i++ {
		rows[i] = []value.Value{
			value.Int(int64(i + 1)),
			value.String(fmt.Sprintf("film-%d", i+1)),
			value.NewSet(value.String(cats[i%4])),
		}
	}
	if err := s.DB.Load("FILM", rows); err != nil {
		panic(err)
	}
	return s
}

// viewStack builds filmsLike(2000) plus k chained views V1..Vk, each a
// Numf filter over the previous — the E1 shape, which the merge block
// collapses to a single search (rewrite-heavy, execution-light).
func viewStack(k int) *lera.Session {
	s := filmsLike(2000)
	prev := "FILM"
	for i := 1; i <= k; i++ {
		name := fmt.Sprintf("V%d", i)
		s.MustExec(fmt.Sprintf(
			"CREATE VIEW %s (Numf, Title, Categories) AS SELECT Numf, Title, Categories FROM %s WHERE Numf > %d;",
			name, prev, i))
		prev = name
	}
	return s
}

// edgeGraph builds EDGE(Src, Dst) with the given edges and declares the
// recursive TC view.
func edgeGraph(edges [][2]int, opts ...lera.Option) *lera.Session {
	s := lera.NewSession(opts...)
	s.MustExec(`
TABLE EDGE (Src : INT, Dst : INT);
CREATE VIEW TC (Src, Dst) AS (
  SELECT Src, Dst FROM EDGE
  UNION
  SELECT T1.Src, T2.Dst FROM TC T1, TC T2 WHERE T1.Dst = T2.Src );
`)
	rows := make([][]value.Value, len(edges))
	for i, e := range edges {
		rows[i] = []value.Value{value.Int(int64(e[0])), value.Int(int64(e[1]))}
	}
	if err := s.DB.Load("EDGE", rows); err != nil {
		panic(err)
	}
	return s
}

func chain(n int) [][2]int {
	out := make([][2]int, 0, n-1)
	for i := 1; i < n; i++ {
		out = append(out, [2]int{i, i + 1})
	}
	return out
}

func btree(n int) [][2]int {
	var out [][2]int
	for i := 2; i <= n; i++ {
		out = append(out, [2]int{i / 2, i})
	}
	return out
}

func randGraph(n, e int) [][2]int {
	state := uint64(42)
	next := func(mod int) int {
		state = state*2862933555777941757 + 3037000493
		return int(state>>33)%mod + 1
	}
	out := make([][2]int, e)
	for i := range out {
		out[i] = [2]int{next(n), next(n)}
	}
	return out
}

// measure runs a query on the serial engine path and returns its result
// and the engine work it cost. A degraded rewrite (guard fallback) is
// flagged so that no experiment silently reports fallback-plan numbers as
// optimized ones.
func measure(s *lera.Session, q string) (*lera.Result, engine.Counters) {
	s.Parallelism = 1
	s.DB.ResetCounters()
	res, err := s.Query(q)
	if err != nil {
		panic(err)
	}
	if st := res.RewriteStats(); st.Degraded {
		// Same stable code vocabulary as the server protocols and edsql.
		fmt.Fprintf(os.Stderr, "benchrunner: degraded rewrite [%s] for %q: %s\n", st.DegradationCode, q, st.DegradationReason)
	}
	return res, s.DB.Count
}

func header(w io.Writer, title, claim, cols string) {
	fmt.Fprintln(w, "### "+title)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Claim (paper): "+claim)
	fmt.Fprintln(w)
	fmt.Fprintln(w, cols)
	fmt.Fprintln(w, strings.Repeat("-", 3)+strings.Repeat("|---", strings.Count(cols, "|")))
}

// row prints one table row.
func row(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format+"\n", args...)
}

// --- E1: §5.1 merging reduces the size of a LERA program ---

func e1SearchMerging(w io.Writer) {
	header(w, "E1 — search merging (Figure 7, §5.1)",
		"\"Merging rules reduce the size of a LERA program ... unnecessary temporary relations are removed.\"",
		"k views | ops before | ops after | searches before | searches after | emitted raw | emitted rewritten")
	for k := 1; k <= 8; k++ {
		q := fmt.Sprintf("SELECT Title FROM V%d WHERE Numf < 1000", k)

		on := viewStack(k)
		res, cOn := measure(on, q)
		opsBefore := lera.OperatorCount(res.Initial)
		searchesBefore := lera.SearchCount(res.Initial)
		opsAfter := lera.OperatorCount(res.Rewritten)
		searchesAfter := lera.SearchCount(res.Rewritten)

		off := viewStack(k)
		off.Rewrite = false
		_, cOff := measure(off, q)
		row(w, "%d | %d | %d | %d | %d | %d | %d",
			k, opsBefore, opsAfter, searchesBefore, searchesAfter, cOff.Emitted, cOn.Emitted)
	}
}

// --- E2: §5.2 pushing focuses the query on relevant facts (union) ---

func e2PushUnion(w io.Writer) {
	header(w, "E2 — selection through union (Figure 8, §5.2)",
		"\"Permutation rules push constraints on relations stored in the database and focus the query on relevant facts.\"",
		"selectivity | answers | emitted raw | emitted rewritten | ratio")
	const parts, perPart = 4, 5000
	build := func() *lera.Session {
		s := lera.NewSession()
		var views []string
		for p := 0; p < parts; p++ {
			name := fmt.Sprintf("P%d", p)
			s.MustExec(fmt.Sprintf("TABLE %s (Id : INT, V : INT);", name))
			rows := make([][]value.Value, perPart)
			for i := 0; i < perPart; i++ {
				id := p*perPart + i
				rows[i] = []value.Value{value.Int(int64(id)), value.Int(int64(id % 997))}
			}
			if err := s.DB.Load(name, rows); err != nil {
				panic(err)
			}
			views = append(views, "SELECT Id, V FROM "+name)
		}
		s.MustExec("CREATE VIEW ALLP (Id, V) AS " + strings.Join(views, " UNION ") + ";")
		return s
	}
	total := parts * perPart
	for _, sigma := range []float64{0.001, 0.01, 0.1, 0.5} {
		threshold := int(float64(total) * sigma)
		q := fmt.Sprintf("SELECT V FROM ALLP WHERE Id < %d", threshold)
		on := build()
		resOn, cOn := measure(on, q)
		off := build()
		off.Rewrite = false
		_, cOff := measure(off, q)
		ratio := float64(cOff.Emitted) / float64(max(cOn.Emitted, 1))
		row(w, "%.3f | %d | %d | %d | %.1fx", sigma, len(resOn.Rows), cOff.Emitted, cOn.Emitted, ratio)
	}
}

// --- E3: §5.2 pushing through nest, gated by REFER ---

func e3PushNest(w io.Writer) {
	header(w, "E3 — selection through nest (Figure 8, §5.2)",
		"\"[The rule] pushes a search through a nest when the search condition does not refer to nested attributes\" (REFER).",
		"groups | fanout | emitted raw | emitted rewritten | predEvals raw | predEvals rewritten")
	for _, gf := range [][2]int{{100, 20}, {400, 20}, {400, 80}, {1600, 20}} {
		groups, fanout := gf[0], gf[1]
		build := func() *lera.Session {
			s := lera.NewSession()
			s.MustExec(`
TABLE R (G : INT, V : INT);
CREATE VIEW NESTED (G, Vs) AS SELECT G, MakeSet(V) FROM R GROUP BY G;
`)
			rows := make([][]value.Value, 0, groups*fanout)
			for g := 1; g <= groups; g++ {
				for v := 0; v < fanout; v++ {
					rows = append(rows, []value.Value{value.Int(int64(g)), value.Int(int64(v))})
				}
			}
			if err := s.DB.Load("R", rows); err != nil {
				panic(err)
			}
			return s
		}
		q := "SELECT Vs FROM NESTED WHERE G = 5"
		on := build()
		_, cOn := measure(on, q)
		off := build()
		off.Rewrite = false
		_, cOff := measure(off, q)
		row(w, "%d | %d | %d | %d | %d | %d",
			groups, fanout, cOff.Emitted, cOn.Emitted, cOff.PredEvals, cOn.PredEvals)
	}
}

// --- E4: §5.3 Alexander focuses recursion on relevant facts ---

func e4Alexander(w io.Writer) {
	header(w, "E4 — fixpoint reduction by the Alexander method (Figure 9, §5.3)",
		"\"They transform recursive expressions into expressions which focus on relevant facts.\"",
		"graph | n | answers | emitted raw | emitted rewritten | joinPairs raw | joinPairs rewritten")
	shapes := []struct {
		name   string
		edges  func(n int) [][2]int
		sizes  []int
		rawMax int // unfocused evaluation is superquadratic; skip above this
	}{
		{"chain", chain, []int{25, 50, 100, 200, 400, 800}, 200},
		{"btree", btree, []int{63, 255, 1023}, 255},
		{"random", func(n int) [][2]int { return randGraph(n, 2*n) }, []int{100, 200}, 200},
	}
	for _, sh := range shapes {
		for _, n := range sh.sizes {
			target := n / 2
			q := fmt.Sprintf("SELECT Src FROM TC WHERE Dst = %d", target)
			on := edgeGraph(sh.edges(n))
			resOn, cOn := measure(on, q)
			rawEmitted, rawPairs := "(skipped)", "(skipped)"
			if n <= sh.rawMax {
				off := edgeGraph(sh.edges(n))
				off.Rewrite = false
				_, cOff := measure(off, q)
				rawEmitted = strconv.Itoa(cOff.Emitted)
				rawPairs = strconv.Itoa(cOff.JoinPairs)
			}
			row(w, "%s | %d | %d | %s | %d | %s | %d",
				sh.name, n, len(resOn.Rows), rawEmitted, cOn.Emitted, rawPairs, cOn.JoinPairs)
		}
	}
}

// --- E5: §6.1 inconsistency detected before execution ---

func e5Inconsistency(w io.Writer) {
	header(w, "E5 — domain inconsistency detection (§6.1)",
		"\"If there exists another constraint on the same attribute, an inconsistency can be detected quickly\" — MEMBER('Cartoon', Categories) is false.",
		"table rows | scanned raw | scanned rewritten | predEvals raw | predEvals rewritten")
	for _, n := range []int{100, 1000, 10000, 100000} {
		q := "SELECT Title FROM FILM WHERE MEMBER('Cartoon', Categories)"
		on := filmsLike(n)
		_, cOn := measure(on, q)
		off := filmsLike(n)
		off.Rewrite = false
		_, cOff := measure(off, q)
		row(w, "%d | %d | %d | %d | %d", n, cOff.Scanned, cOn.Scanned, cOff.PredEvals, cOn.PredEvals)
	}
}

// --- E6: §6.2 constant folding removes per-tuple work ---

func e6Simplify(w io.Writer) {
	header(w, "E6 — predicate simplification / constant folding (Figure 12, §6.2)",
		"\"The predicate simplification block ... can perform simple rewriting\" (EVALUATE folding of constant subexpressions).",
		"foldable conjuncts | rows | predEvals raw | predEvals rewritten | ratio")
	const n = 20000
	for _, k := range []int{1, 2, 4, 8} {
		var preds []string
		for i := 0; i < k; i++ {
			preds = append(preds, fmt.Sprintf("%d + %d > %d", i, i+1, i)) // constant, true
		}
		preds = append(preds, "Numf > 500")
		q := "SELECT Title FROM FILM WHERE " + strings.Join(preds, " AND ")
		on := filmsLike(n)
		_, cOn := measure(on, q)
		off := filmsLike(n)
		off.Rewrite = false
		_, cOff := measure(off, q)
		ratio := float64(cOff.PredEvals) / float64(max(cOn.PredEvals, 1))
		row(w, "%d | %d | %d | %d | %.2fx", k, n, cOff.PredEvals, cOn.PredEvals, ratio)
	}
}

// --- E7: §7 block-limit trade-off ---

var allBlocks = []string{"typecheck", "normalize", "merge", "push", "fixpoint", "constraints", "semantic", "simplify"}

func limitOpts(limit int) []lera.Option {
	var opts []lera.Option
	for _, b := range allBlocks {
		opts = append(opts, lera.WithBlockLimit(b, limit))
	}
	return opts
}

func e7BlockLimits(w io.Writer) {
	header(w, "E7 — block limits: rewrite effort vs execution work (§7)",
		"\"If one stops too early (low limit), then the logical optimization can actually complicate the query ... simple queries do not need sophisticated optimization: a 0 limit can then be given.\"",
		"query | limit | condition checks | emitted | joinPairs")
	n := 150
	for _, tc := range []struct {
		name string
		q    string
	}{
		{"simple (key lookup)", "SELECT Dst FROM EDGE WHERE Src = 7"},
		{"complex (recursive)", fmt.Sprintf("SELECT Src FROM TC WHERE Dst = %d", n/2)},
	} {
		for _, limit := range []int{0, 1, 2, 4, 8, 16, 64, rules.Infinite} {
			s := edgeGraph(chain(n), limitOpts(limit)...)
			res, c := measure(s, tc.q)
			checks := res.RewriteStats().ConditionChecks
			lim := strconv.Itoa(limit)
			if limit == rules.Infinite {
				lim = "inf"
			}
			row(w, "%s | %s | %d | %d | %d", tc.name, lim, checks, c.Emitted, c.JoinPairs)
		}
	}
}

// --- E8: §4.2/§5.3 repeated merge blocks ---

func e8RepeatedBlocks(w io.Writer) {
	header(w, "E8 — repeating the merge block after fixpoint reduction (§4.2, §5.3)",
		"\"The search merging rule is a typical case of rule which takes advantage of being applied more than once (e.g., before and after pushing selections through fixpoints).\"",
		"sequence | ops after rewrite | emitted | joinPairs")
	n := 400
	q := fmt.Sprintf("SELECT Src FROM TC WHERE Dst = %d", n/2)
	seqs := []struct {
		name string
		seq  string
	}{
		{"merge once (before fixpoint only)", "seq({typecheck, normalize, merge, push, fixpoint, constraints, semantic, simplify}, 1);"},
		{"merge repeated (default)", "seq({typecheck, normalize, merge, push, fixpoint, merge, constraints, semantic, simplify, merge}, 2);"},
	}
	for _, sq := range seqs {
		s := edgeGraph(chain(n), lera.WithRules(sq.seq))
		res, c := measure(s, q)
		row(w, "%s | %d | %d | %d", sq.name, lera.OperatorCount(res.Rewritten), c.Emitted, c.JoinPairs)
	}
}

// --- E11: guardrails — degradation cost under a hostile rule base ---

func e11Guardrails(w io.Writer) {
	header(w, "E11 — guardrails: graceful degradation under a divergent rule base",
		"Robustness extension (beyond the paper): a rule base that never terminates must not take queries down — the session answers from the last safe plan and reports why.",
		"step cap | degraded | reason | condition checks | rows")
	// The spin rule wraps every SEARCH in an identity FILTER forever:
	// syntactically divergent, semantically a no-op, so every fallback
	// plan returns the correct rows.
	spin := []lera.Option{
		lera.WithRules(`
rule spin: SEARCH(rl, f, p) --> FILTER(SEARCH(rl, f, p), TRUE);
block(spinb, {spin}, inf);
seq({spinb}, 1);
`),
	}
	const n = 5000
	q := "SELECT Title FROM FILM WHERE Numf > 2500"
	for _, cap := range []int{1, 8, 64, 512} {
		s := filmsLike(n, spin...)
		s.Limits = lera.Limits{MaxSteps: cap}
		s.Parallelism = 1
		res, err := s.Query(q) // not measure: degrading is the point here
		if err != nil {
			panic(err)
		}
		st := res.RewriteStats()
		degraded, reason, checks := st.Degraded, "-", st.ConditionChecks
		if degraded {
			reason = firstWords(st.DegradationReason, 4)
		}
		row(w, "%d | %v | %s | %d | %d", cap, degraded, reason, checks, len(res.Rows))
	}
}

// firstWords truncates a reason string for table display.
func firstWords(s string, n int) string {
	f := strings.Fields(s)
	if len(f) > n {
		f = f[:n]
	}
	return strings.Join(f, " ")
}
