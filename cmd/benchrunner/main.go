// Command benchrunner regenerates the experiment tables of EXPERIMENTS.md:
// one experiment per prose claim of the paper (DESIGN.md §4.2), each
// reported in machine-independent engine work counters (tuples scanned,
// join pairs, tuples emitted, predicate evaluations, fixpoint iterations)
// plus wall-clock time.
//
// Usage: benchrunner [-e 1,4,7] [-json] [-metrics-addr :9090]
//
//	[-parallelism N] [-cpuprofile f] [-memprofile f]
//
// -parallelism sizes the engine's intra-query worker pool for every
// measured query (0 = all cores, 1 = serial; default 1 so archived runs
// stay comparable across machines). E14 varies the pool size itself to
// measure the speedup.
//
// -plancache N arms every shared-builder session with a plan cache of
// capacity N (docs/PLANCACHE.md). The work-counter tables must not move
// — a cache hit replays the identical plan — so rerunning any experiment
// with the flag doubles as a differential check. E16 measures the cache
// itself (cold rewrite vs warm hit) and sizes its own caches, N when
// given, 64 otherwise.
//
// With -json the tables are emitted as one JSON document that also
// records provenance — the git commit the binary was built from and a
// fingerprint of the parsed built-in rule base — so archived runs can be
// traced to the exact rules that produced them. Each table row then also
// carries the observability snapshot of the queries behind it: per-phase
// wall time, rewrite match/check/application counts, and the engine's
// per-operator execution statistics (docs/OBSERVABILITY.md).
//
// With -metrics-addr the accumulated session metrics are served over
// HTTP (Prometheus text at /metrics, JSON with ?format=json) for the
// duration of the run; the runner self-scrapes the endpoint on exit and
// fails if the scrape does.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"lera"
	"lera/internal/engine"
	"lera/internal/guard"
	"lera/internal/obs"
	"lera/internal/provenance"
	"lera/internal/rules"
	"lera/internal/value"
)

// experiment is one claim's table, captured for -json output.
type experiment struct {
	Title   string     `json:"title"`
	Claim   string     `json:"claim"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	// RowMetrics[i] holds the observability snapshots of the measured
	// queries that produced Rows[i] (JSON mode only).
	RowMetrics [][]*queryMetrics `json:"rowMetrics,omitempty"`
}

// queryMetrics is the per-query observability snapshot embedded in -json
// rows: phase wall times, rewrite work, and the per-operator execution
// statistics tree.
type queryMetrics struct {
	Query           string          `json:"query"`
	Rows            int             `json:"rows"`
	ParseMs         float64         `json:"parseMs"`
	TranslateMs     float64         `json:"translateMs"`
	RewriteMs       float64         `json:"rewriteMs"`
	ExecuteMs       float64         `json:"executeMs"`
	ConditionChecks int             `json:"conditionChecks"`
	MatchAttempts   int             `json:"matchAttempts"`
	Applications    int             `json:"applications"`
	Degraded        bool            `json:"degraded,omitempty"`
	DegradedCode    string          `json:"degradedCode,omitempty"`
	Counters        engine.Counters `json:"counters"`
	Exec            *engine.OpStats `json:"exec,omitempty"`
}

// recorder collects experiment tables; in text mode it also prints them
// as before.
type recorder struct {
	jsonMode    bool
	experiments []*experiment
	// pending holds the queryMetrics gathered by measure since the last
	// row() call; row() attaches them to the row it emits.
	pending []*queryMetrics
}

var rec recorder

// obsv is the process-wide observer: every measured session shares it, so
// the -metrics-addr endpoint reports the whole run.
var obsv = lera.NewObserver()

// poolSize is the engine worker-pool size measure applies to every
// session (the -parallelism flag; E14 varies it per row). 1 keeps the
// default run serial so archived counter tables stay comparable.
var poolSize = 1

// planCacheSize is the -plancache flag: when >0 the shared workload
// builders arm every session with a plan cache of this capacity, and
// E16 adopts it as the warm cache size. 0 (the default) leaves every
// session uncached, which keeps archived tables comparable.
var planCacheSize = 0

// cacheOpts appends the -plancache option, when set, to a builder's
// session options.
func cacheOpts(opts []lera.Option) []lera.Option {
	if planCacheSize > 0 {
		opts = append(opts, lera.WithPlanCache(planCacheSize))
	}
	return opts
}

func main() {
	sel := flag.String("e", "", "comma-separated experiment numbers (default all)")
	asJSON := flag.Bool("json", false, "emit results as JSON with commit and rule-base provenance")
	metricsAddr := flag.String("metrics-addr", "", "serve run metrics over HTTP at this address (Prometheus text at /metrics)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	parFlag := flag.Int("parallelism", 1, "engine worker-pool size for every measured query (0 = all cores, 1 = serial)")
	cacheFlag := flag.Int("plancache", 0, "arm every workload session with a plan cache of this capacity (0 = uncached; E16 sizes its own)")
	flag.Parse()
	rec.jsonMode = *asJSON
	poolSize = *parFlag
	planCacheSize = *cacheFlag
	if err := guard.NonNegative("", "-parallelism", int64(*parFlag)); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(2)
	}
	scrapeURL := ""
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner: -metrics-addr:", err)
			os.Exit(1)
		}
		obs.RegisterBuildInfo(obsv.Metrics, provenance.Commit(), provenance.GoVersion())
		mux := http.NewServeMux()
		mux.Handle("/metrics", obsv.Metrics.Handler())
		// pprof rides on the opt-in metrics listener: profiling a long
		// benchmark run needs no extra flag, and a run without
		// -metrics-addr exposes nothing (docs/OBSERVABILITY.md).
		mux.HandleFunc("/debug/pprof/", httppprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		defer srv.Close()
		scrapeURL = "http://" + ln.Addr().String() + "/metrics"
		fmt.Fprintln(os.Stderr, "benchrunner: serving metrics at "+scrapeURL)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner: -cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner: -cpuprofile:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner: -memprofile:", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC() // report live allocations, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner: -memprofile:", err)
				os.Exit(1)
			}
		}()
	}
	want := map[int]bool{}
	if *sel != "" {
		for _, f := range strings.Split(*sel, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchrunner: bad -e:", err)
				os.Exit(1)
			}
			want[n] = true
		}
	}
	run := func(n int, fn func()) {
		if len(want) == 0 || want[n] {
			fn()
			if !rec.jsonMode {
				fmt.Println()
			}
		}
	}
	run(1, e1SearchMerging)
	run(2, e2PushUnion)
	run(3, e3PushNest)
	run(4, e4Alexander)
	run(5, e5Inconsistency)
	run(6, e6Simplify)
	run(7, e7BlockLimits)
	run(8, e8RepeatedBlocks)
	run(10, e10Planning)
	run(11, e11Guardrails)
	run(14, e14Parallel)
	run(16, e16PlanCache)
	if rec.jsonMode {
		emitJSON()
	}
	if scrapeURL != "" {
		selfScrape(scrapeURL)
	}
}

// selfScrape fetches the run's own metrics endpoint, echoing the payload
// to stderr; a failed or empty scrape fails the run, so CI smoke tests
// catch a broken exposition path.
func selfScrape(url string) {
	resp, err := http.Get(url)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner: metrics self-scrape:", err)
		os.Exit(1)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || len(body) == 0 {
		fmt.Fprintf(os.Stderr, "benchrunner: metrics self-scrape: status=%d err=%v bytes=%d\n", resp.StatusCode, err, len(body))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchrunner: metrics self-scrape ok (%d bytes)\n", len(body))
	os.Stderr.Write(body)
}

// emitJSON writes the collected tables with provenance.
func emitJSON() {
	out := struct {
		Commit          string        `json:"commit"`
		RuleFingerprint string        `json:"ruleFingerprint"`
		Experiments     []*experiment `json:"experiments"`
	}{
		Commit:          provenance.Commit(),
		RuleFingerprint: ruleFingerprint(),
		Experiments:     rec.experiments,
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

// ruleFingerprint hashes the parsed built-in rule base, so two runs are
// comparable only when they optimized with the same rules.
func ruleFingerprint() string {
	rw, err := lera.NewRewriter(lera.NewCatalog())
	if err != nil {
		return "unavailable: " + err.Error()
	}
	return rw.RS.Fingerprint()
}

// --- workload builders ---

// filmsLike builds FILM(Numf, Title, Categories) with n rows and the
// Category enumeration (for E5).
func filmsLike(n int, opts ...lera.Option) *lera.Session {
	s := lera.NewSession(cacheOpts(opts)...)
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
func viewStack(k int, opts ...lera.Option) *lera.Session {
	s := filmsLike(2000, opts...)
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
	s := lera.NewSession(cacheOpts(opts)...)
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

// measure runs a query and returns (rows, counters, duration). A
// degraded rewrite (guard fallback) is flagged so that no experiment
// silently reports fallback-plan numbers as optimized ones.
func measure(s *lera.Session, q string) (*lera.Result, engine.Counters, time.Duration) {
	s.Obs = obsv
	s.Parallelism = poolSize
	if rec.jsonMode {
		s.DB.CollectStats = true
	}
	s.DB.ResetCounters()
	start := time.Now()
	res, err := s.Query(q)
	if err != nil {
		panic(err)
	}
	d := time.Since(start)
	if st := res.RewriteStats(); st.Degraded {
		// Same stable code vocabulary as the server protocols and edsql.
		fmt.Fprintf(os.Stderr, "benchrunner: degraded rewrite [%s] for %q: %s\n", st.DegradationCode, q, st.DegradationReason)
	}
	if rec.jsonMode {
		rec.pending = append(rec.pending, newQueryMetrics(q, res))
	}
	return res, s.DB.Count, d
}

// newQueryMetrics snapshots one measured query's observability record.
func newQueryMetrics(q string, res *lera.Result) *queryMetrics {
	st := res.RewriteStats()
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	m := &queryMetrics{
		Query:           q,
		Rows:            len(res.Rows),
		ConditionChecks: st.ConditionChecks,
		MatchAttempts:   st.MatchAttempts,
		Applications:    st.Applications,
		Degraded:        st.Degraded,
		DegradedCode:    st.DegradationCode,
	}
	if rep := res.Report; rep != nil {
		m.ParseMs = ms(rep.Phases.Parse)
		m.TranslateMs = ms(rep.Phases.Translate)
		m.RewriteMs = ms(rep.Phases.Rewrite)
		m.ExecuteMs = ms(rep.Phases.Execute)
		m.Counters = rep.ExecCounters
		m.Exec = rep.Exec
	}
	return m
}

func header(title, claim, cols string) {
	e := &experiment{Title: title, Claim: claim}
	for _, c := range strings.Split(cols, "|") {
		e.Columns = append(e.Columns, strings.TrimSpace(c))
	}
	rec.experiments = append(rec.experiments, e)
	if rec.jsonMode {
		fmt.Fprintln(os.Stderr, "running: "+title)
		return
	}
	fmt.Println("### " + title)
	fmt.Println()
	fmt.Println("Claim (paper): " + claim)
	fmt.Println()
	fmt.Println(cols)
	fmt.Println(strings.Repeat("-", 3) + strings.Repeat("|---", strings.Count(cols, "|")))
}

// row emits one table row: printed in text mode, captured in JSON mode.
func row(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	e := rec.experiments[len(rec.experiments)-1]
	cells := strings.Split(line, " | ")
	for i, c := range cells {
		cells[i] = strings.TrimSpace(c)
	}
	e.Rows = append(e.Rows, cells)
	if rec.jsonMode {
		e.RowMetrics = append(e.RowMetrics, rec.pending)
		rec.pending = nil
	} else {
		fmt.Println(line)
	}
}

// --- E1: §5.1 merging reduces the size of a LERA program ---

func e1SearchMerging() {
	header("E1 — search merging (Figure 7, §5.1)",
		"\"Merging rules reduce the size of a LERA program ... unnecessary temporary relations are removed.\"",
		"k views | ops before | ops after | searches before | searches after | emitted raw | emitted rewritten")
	for k := 1; k <= 8; k++ {
		q := fmt.Sprintf("SELECT Title FROM V%d WHERE Numf < 1000", k)

		on := viewStack(k)
		res, cOn, _ := measure(on, q)
		opsBefore := operatorCount(res.Initial)
		searchesBefore := searchCount(res.Initial)
		opsAfter := operatorCount(res.Rewritten)
		searchesAfter := searchCount(res.Rewritten)

		off := viewStack(k)
		off.Rewrite = false
		_, cOff, _ := measure(off, q)
		row("%d | %d | %d | %d | %d | %d | %d",
			k, opsBefore, opsAfter, searchesBefore, searchesAfter, cOff.Emitted, cOn.Emitted)
	}
}

func operatorCount(t *lera.Term) int { return lera.OperatorCount(t) }
func searchCount(t *lera.Term) int   { return lera.SearchCount(t) }

// --- E2: §5.2 pushing focuses the query on relevant facts (union) ---

func e2PushUnion() {
	header("E2 — selection through union (Figure 8, §5.2)",
		"\"Permutation rules push constraints on relations stored in the database and focus the query on relevant facts.\"",
		"selectivity | answers | emitted raw | emitted rewritten | ratio")
	const parts, perPart = 4, 5000
	build := func(opts ...lera.Option) *lera.Session {
		s := lera.NewSession(opts...)
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
		resOn, cOn, _ := measure(on, q)
		off := build()
		off.Rewrite = false
		_, cOff, _ := measure(off, q)
		ratio := float64(cOff.Emitted) / float64(maxInt(cOn.Emitted, 1))
		row("%.3f | %d | %d | %d | %.1fx", sigma, len(resOn.Rows), cOff.Emitted, cOn.Emitted, ratio)
	}
}

// --- E3: §5.2 pushing through nest, gated by REFER ---

func e3PushNest() {
	header("E3 — selection through nest (Figure 8, §5.2)",
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
		_, cOn, _ := measure(on, q)
		off := build()
		off.Rewrite = false
		_, cOff, _ := measure(off, q)
		row("%d | %d | %d | %d | %d | %d",
			groups, fanout, cOff.Emitted, cOn.Emitted, cOff.PredEvals, cOn.PredEvals)
	}
}

// --- E4: §5.3 Alexander focuses recursion on relevant facts ---

func e4Alexander() {
	header("E4 — fixpoint reduction by the Alexander method (Figure 9, §5.3)",
		"\"They transform recursive expressions into expressions which focus on relevant facts.\"",
		"graph | n | answers | emitted raw | emitted rewritten | joinPairs raw | joinPairs rewritten | time raw | time rewritten")
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
			resOn, cOn, dOn := measure(on, q)
			rawEmitted, rawPairs, rawTime := "(skipped)", "(skipped)", "(skipped)"
			if n <= sh.rawMax {
				off := edgeGraph(sh.edges(n))
				off.Rewrite = false
				_, cOff, dOff := measure(off, q)
				rawEmitted = strconv.Itoa(cOff.Emitted)
				rawPairs = strconv.Itoa(cOff.JoinPairs)
				rawTime = round(dOff)
			}
			row("%s | %d | %d | %s | %d | %s | %d | %s | %s",
				sh.name, n, len(resOn.Rows), rawEmitted, cOn.Emitted,
				rawPairs, cOn.JoinPairs, rawTime, round(dOn))
		}
	}
}

func round(d time.Duration) string {
	return d.Round(10 * time.Microsecond).String()
}

// --- E5: §6.1 inconsistency detected before execution ---

func e5Inconsistency() {
	header("E5 — domain inconsistency detection (§6.1)",
		"\"If there exists another constraint on the same attribute, an inconsistency can be detected quickly\" — MEMBER('Cartoon', Categories) is false.",
		"table rows | scanned raw | scanned rewritten | predEvals raw | predEvals rewritten")
	for _, n := range []int{100, 1000, 10000, 100000} {
		q := "SELECT Title FROM FILM WHERE MEMBER('Cartoon', Categories)"
		on := filmsLike(n)
		_, cOn, _ := measure(on, q)
		off := filmsLike(n)
		off.Rewrite = false
		_, cOff, _ := measure(off, q)
		row("%d | %d | %d | %d | %d", n, cOff.Scanned, cOn.Scanned, cOff.PredEvals, cOn.PredEvals)
	}
}

// --- E6: §6.2 constant folding removes per-tuple work ---

func e6Simplify() {
	header("E6 — predicate simplification / constant folding (Figure 12, §6.2)",
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
		_, cOn, _ := measure(on, q)
		off := filmsLike(n)
		off.Rewrite = false
		_, cOff, _ := measure(off, q)
		ratio := float64(cOff.PredEvals) / float64(maxInt(cOn.PredEvals, 1))
		row("%d | %d | %d | %d | %.2fx", k, n, cOff.PredEvals, cOn.PredEvals, ratio)
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

func e7BlockLimits() {
	header("E7 — block limits: rewrite effort vs execution work (§7)",
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
			res, c, _ := measure(s, tc.q)
			checks := res.RewriteStats().ConditionChecks
			lim := strconv.Itoa(limit)
			if limit == rules.Infinite {
				lim = "inf"
			}
			row("%s | %s | %d | %d | %d", tc.name, lim, checks, c.Emitted, c.JoinPairs)
		}
	}
}

// --- E8: §4.2/§5.3 repeated merge blocks ---

func e8RepeatedBlocks() {
	header("E8 — repeating the merge block after fixpoint reduction (§4.2, §5.3)",
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
		s := edgeGraph(chain(n), lera.WithSequence(sq.seq))
		res, c, _ := measure(s, q)
		row("%s | %d | %d | %d", sq.name, operatorCount(res.Rewritten), c.Emitted, c.JoinPairs)
	}
}

// --- E10: §7 "applicable to query planning" extension ---

func e10Planning() {
	header("E10 — planning hints: cardinality-ordered joins (§7 extension)",
		"\"We believe that the ideas developed in this paper might be applicable to query planning.\" (beyond the paper; off by default, WithPlanning)",
		"big rows | join pairs unplanned | join pairs planned | ratio")
	for _, n := range []int{1000, 4000, 16000} {
		build := func(opts ...lera.Option) *lera.Session {
			s := lera.NewSession(opts...)
			s.MustExec("TABLE BIG (Id : INT, V : INT); TABLE TINY (K : INT, W : INT);")
			big := make([][]value.Value, n)
			for i := range big {
				big[i] = []value.Value{value.Int(int64(i)), value.Int(int64(i % 7))}
			}
			if err := s.DB.Load("BIG", big); err != nil {
				panic(err)
			}
			tiny := make([][]value.Value, 5)
			for i := range tiny {
				tiny[i] = []value.Value{value.Int(int64(i)), value.Int(int64(i * 10))}
			}
			if err := s.DB.Load("TINY", tiny); err != nil {
				panic(err)
			}
			return s
		}
		q := "SELECT BIG.Id FROM BIG, TINY WHERE TINY.K = 3"
		base := build()
		_, cBase, _ := measure(base, q)
		planned := build(lera.WithPlanning())
		_, cPlan, _ := measure(planned, q)
		ratio := float64(cBase.JoinPairs) / float64(maxInt(cPlan.JoinPairs, 1))
		row("%d | %d | %d | %.1fx", n, cBase.JoinPairs, cPlan.JoinPairs, ratio)
	}
}

// --- E11: guardrails — degradation cost under a hostile rule base ---

func e11Guardrails() {
	header("E11 — guardrails: graceful degradation under a divergent rule base",
		"Robustness extension (beyond the paper): a rule base that never terminates must not take queries down — the session answers from the last safe plan and reports why.",
		"step cap | degraded | reason | condition checks | rows | time")
	// The spin rule wraps every SEARCH in an identity FILTER forever:
	// syntactically divergent, semantically a no-op, so every fallback
	// plan returns the correct rows.
	spin := []lera.Option{
		lera.WithRules(`
rule spin: SEARCH(rl, f, p) --> FILTER(SEARCH(rl, f, p), TRUE);
block(spinb, {spin}, inf);
`),
		lera.WithSequence("seq({spinb}, 1);"),
	}
	const n = 5000
	q := "SELECT Title FROM FILM WHERE Numf > 2500"
	for _, cap := range []int{1, 8, 64, 512} {
		s := filmsLike(n, spin...)
		s.Limits = lera.Limits{MaxSteps: cap}
		s.DB.ResetCounters()
		start := time.Now()
		res, err := s.Query(q)
		if err != nil {
			panic(err)
		}
		d := time.Since(start)
		st := res.RewriteStats()
		degraded, reason, checks := st.Degraded, "-", st.ConditionChecks
		if degraded {
			reason = firstWords(st.DegradationReason, 4)
		}
		row("%d | %v | %s | %d | %d | %s", cap, degraded, reason, checks, len(res.Rows), round(d))
	}
}

// --- E14: intra-query parallelism (beyond the paper's measurements) ---

func e14Parallel() {
	header("E14 — intra-query parallelism (worker pool)",
		"The paper's rewriter ran inside the EDS *parallel* database server; this measures the engine's worker pool (DB.Parallelism) on the two heaviest workloads: a large hash join and the bilinear fixpoint of the Figure 5 shape. Results are bit-identical at every pool size (docs/PERF.md).",
		"workload | parallelism | rows | joinPairs | emitted | time | speedup")
	workloads := []struct {
		name  string
		build func() *lera.Session
		q     string
	}{
		{"hash join (120k ⋈ 120k)",
			func() *lera.Session { return edgeGraph(chain(120000)) },
			"SELECT E1.Src, E2.Dst FROM EDGE E1, EDGE E2 WHERE E1.Dst = E2.Src"},
		{"bilinear fixpoint (chain 200, full closure)",
			func() *lera.Session { return edgeGraph(chain(200)) },
			"SELECT Src, Dst FROM TC"},
	}
	saved := poolSize
	defer func() { poolSize = saved }()
	for _, w := range workloads {
		var serial time.Duration
		for _, p := range []int{1, 4} {
			poolSize = p
			s := w.build()
			res, c, d := measure(s, w.q)
			speedup := "-"
			if p == 1 {
				serial = d
			} else if d > 0 {
				speedup = fmt.Sprintf("%.2fx", float64(serial)/float64(d))
			}
			row("%s | %d | %d | %d | %d | %s | %s",
				w.name, p, len(res.Rows), c.JoinPairs, c.Emitted, round(d), speedup)
		}
	}
}

// --- E16: plan cache — rewrite reuse for repeated query shapes ---

func e16PlanCache() {
	header("E16 — plan cache: rewrite reuse for repeated query shapes (docs/PLANCACHE.md)",
		"Beyond the paper: a fingerprint-keyed plan cache reuses the rewrite of a templatized query shape, so a repeated shape pays the rule engine once — warm hits run zero match attempts and re-bind constants into the cached plan. Answers stay bit-identical (TestPlanCacheDifferentialGolden).",
		"query shape | queries | cold rewrite µs/op | warm hit µs/op | rewrite speedup | match attempts cold | match attempts warm | hits | misses")
	size := planCacheSize
	if size == 0 {
		size = 64
	}
	// The cold sessions must really be cold even under -plancache.
	saved := planCacheSize
	planCacheSize = 0
	defer func() { planCacheSize = saved }()

	const iters = 50
	shapes := []struct {
		name  string
		build func(opts ...lera.Option) *lera.Session
		q     func(i int) string
	}{
		{"view stack (6 deep), range scan",
			func(opts ...lera.Option) *lera.Session { return viewStack(6, opts...) },
			func(i int) string { return fmt.Sprintf("SELECT Title FROM V6 WHERE Numf < %d", 100+i) }},
		{"ADT filter (MEMBER + range)",
			func(opts ...lera.Option) *lera.Session { return filmsLike(2000, opts...) },
			func(i int) string {
				return fmt.Sprintf("SELECT Title FROM FILM WHERE MEMBER('Adventure', Categories) AND Numf > %d", 1900+i)
			}},
		{"recursive closure, point query",
			func(opts ...lera.Option) *lera.Session { return edgeGraph(chain(60), opts...) },
			func(i int) string { return fmt.Sprintf("SELECT Src FROM TC WHERE Dst = %d", i%30+2) }},
	}
	for _, sh := range shapes {
		cold := sh.build()
		var coldRewrite time.Duration
		coldMatches := 0
		for i := 0; i < iters; i++ {
			res, _, _ := measure(cold, sh.q(i))
			coldRewrite += res.Report.Phases.Rewrite
			coldMatches += res.RewriteStats().MatchAttempts
		}

		warm := sh.build(lera.WithPlanCache(size))
		var warmRewrite time.Duration
		warmMatches, warmHits := 0, 0
		for i := 0; i < iters; i++ {
			res, _, _ := measure(warm, sh.q(i))
			if res.Cache != nil && res.Cache.Hit {
				warmRewrite += res.Report.Phases.Rewrite
				warmMatches += res.RewriteStats().MatchAttempts
				warmHits++
			}
		}
		snap := warm.Plans.Snapshot()

		coldUs := float64(coldRewrite.Microseconds()) / iters
		warmUs := float64(warmRewrite.Microseconds()) / float64(maxInt(warmHits, 1))
		speedup := "-"
		if warmUs > 0 {
			speedup = fmt.Sprintf("%.0fx", coldUs/warmUs)
		}
		row("%s | %d | %.1f | %.2f | %s | %d | %d | %d | %d",
			sh.name, iters, coldUs, warmUs, speedup,
			coldMatches/iters, warmMatches/maxInt(warmHits, 1), snap.Hits, snap.Misses)
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

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
