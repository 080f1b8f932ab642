package main

// The five workloads: what data each loads and which queries it sends.
// Everything here is generated from the seed and none of it is timed.
// Constants are drawn per stratum, so every seed gives a list with the
// same shape and cost and only the values differ — the spread between
// seeds stays a property of the host, not of the draw. Why each workload
// exists is in its why line (BENCHMARK.json) and at length in README.md.

import (
	"fmt"
	"strings"

	"lera/internal/core"
	"lera/internal/esql"
	"lera/internal/guard"
	"lera/internal/testdb"
	"lera/internal/value"
)

type workload struct {
	name string
	why  string
	gen  func(seed int64) (*plan, error)
}

var workloads = []workload{
	{"rewrite_cold", "tiny data, plan cache off, 900 queries over the Fig. 7-12 rule libraries: parse, translate and rewrite do the work and the engine almost none", genRewriteCold},
	{"exec_join", "Figure 3 join at size (FILM 5000 x APPEARS 15000, warm index): the batched hash join and row copying do the work and the rewriter none", genExecJoin},
	{"exec_closure", "Figure 5 focused closure over chain(700): semi-naive rounds over many small relations, the engine as an iterator and not one big join", genExecClosure},
	{"exec_spill", "the exec_join list under a 128 KiB grant (FILM 1200 x APPEARS 3600): every join build spills, so grace partitioning and file I/O do the work", genExecSpill},
	{"served_mixed", "over loopback HTTP, two closed-loop clients, every request a plan-cache hit, 80% small and 20% large answers: admission, cache, rendering and JSON do the work", genServedMixed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// table is one stored relation's rows, loaded through DB.Load.
type table struct {
	name string
	rows [][]value.Value
}

// closedForm is an answer worked out by the benchmark without the
// engine: the row count, and the whole result where it is known.
type closedForm struct {
	rows int
	full *core.Result // nil when only the count has a closed form
}

// plan is one workload's generated inputs.
type plan struct {
	workload string
	served   bool

	// In process: ddl runs through Session.Exec, tables through DB.Load,
	// objects through SetObject; limits and spill configure the session.
	ddl     string
	tables  []table
	objects map[int64]value.Value
	limits  guard.Limits
	spill   bool

	// Served: the whole snapshot is one init script.
	initESQL string

	queries   []string
	templates []string // the template each query instantiates, same index

	// closed[i], when non-nil, is query i's closed-form answer. A full
	// closed form is the reference for its query (the unrewritten plan of
	// a closure is costly, and infeasible at size: atSize says the engine
	// cannot be asked at all); a count cross-checks whatever reference is
	// used.
	closed []*closedForm
	atSize bool

	// maxExecuteShare, when set, is the largest share of a traced
	// operation the engine may take before the run is refused: the
	// workload exists to measure what comes before the engine.
	maxExecuteShare float64
}

func (p *plan) add(tmpl string, cf *closedForm, args ...any) {
	p.templates = append(p.templates, tmpl)
	p.queries = append(p.queries, fmt.Sprintf(tmpl, args...))
	p.closed = append(p.closed, cf)
}

// rng is splitmix64: the generated inputs must not depend on the Go
// release the way math/rand's stream may.
type rng struct{ s uint64 }

func newRng(seed int64, stream string) *rng {
	r := &rng{s: uint64(seed)}
	for _, c := range []byte(stream) {
		r.s = r.s*1099511628211 + uint64(c)
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// stratum draws from the i'th of n equal slices of [lo, hi).
func (r *rng) stratum(lo, hi, i, n int) int {
	w := (hi - lo) / n
	if w < 1 {
		w = 1
	}
	return lo + i*(hi-lo)/n + r.intn(w)
}

var categories = []string{"Comedy", "Adventure", "Science Fiction", "Western"}

// filmRows generates n FILM rows: Numf 1..n in seed order, one category
// each.
func filmRows(r *rng, n int) [][]value.Value {
	rows := make([][]value.Value, n)
	for i, p := range r.perm(n) {
		rows[i] = []value.Value{
			value.Int(int64(p + 1)),
			value.String(fmt.Sprintf("film-%d", p+1)),
			value.NewSet(value.String(categories[r.intn(len(categories))])),
		}
	}
	return rows
}

// chainGraph is the path labels[0] -> labels[1] -> ... with the node
// labels a seed permutation of 1..n, so a point query's constant differs
// by seed while its position on the path, which fixes its cost and its
// answer, does not.
type chainGraph struct{ labels []int }

func newChain(r *rng, n int) chainGraph {
	labels := r.perm(n)
	for i := range labels {
		labels[i]++
	}
	return chainGraph{labels}
}

func (c chainGraph) edges() [][]value.Value {
	rows := make([][]value.Value, 0, len(c.labels)-1)
	for i := 0; i+1 < len(c.labels); i++ {
		rows = append(rows, []value.Value{value.Int(int64(c.labels[i])), value.Int(int64(c.labels[i+1]))})
	}
	return rows
}

// ancestors is the closed form of SELECT Src FROM TC WHERE Dst = <label
// at position pos>: every node before it on the path, pos-1 rows.
func (c chainGraph) ancestors(pos int) *closedForm {
	return c.closedResult("Src", c.labels[:pos-1])
}

// descendants is the closed form of SELECT Dst FROM TC WHERE Src = <label
// at position pos>.
func (c chainGraph) descendants(pos int) *closedForm {
	return c.closedResult("Dst", c.labels[pos:])
}

func (c chainGraph) closedResult(col string, labels []int) *closedForm {
	res := &core.Result{Kind: core.ResultRows, Columns: []string{col}, Message: fmt.Sprintf("%d rows", len(labels))}
	for _, l := range labels {
		res.Rows = append(res.Rows, []value.Value{value.Int(int64(l))})
	}
	return &closedForm{rows: len(labels), full: res}
}

const tcDDL = `
TABLE EDGE (Src : INT, Dst : INT);
CREATE VIEW TC (Src, Dst) AS (
  SELECT Src, Dst FROM EDGE
  UNION
  SELECT T1.Src, T2.Dst FROM TC T1, TC T2 WHERE T1.Dst = T2.Src );
`

// viewStackDDL declares V1..Vk over FILM, each a Numf filter over the
// one below — the shape the merge block collapses into one search.
func viewStackDDL(k int) string {
	var sb strings.Builder
	prev := "FILM"
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&sb, "CREATE VIEW V%d (Numf, Title, Categories) AS SELECT Numf, Title, Categories FROM %s WHERE Numf > %d;\n", i, prev, i)
		prev = fmt.Sprintf("V%d", i)
	}
	return sb.String()
}

// --- rewrite_cold ---

const (
	coldFilms     = 200
	coldChain     = 40
	coldInstances = 60 // per template; 15 templates make the 900-query list
)

func genRewriteCold(seed int64) (*plan, error) {
	r := newRng(seed, "rewrite_cold")
	p := &plan{workload: "rewrite_cold", maxExecuteShare: 0.20}
	p.ddl = esql.Figure2DDL + esql.Figure4View + esql.Figure5View + viewStackDDL(6) + `
CREATE VIEW EITHERF (Numf) AS SELECT Numf FROM FILM UNION SELECT Numf FROM APPEARS_IN;
CREATE VIEW AdvFilms (Numf, Title) AS SELECT Numf, Title FROM FILM WHERE MEMBER('Adventure', Categories);
` + tcDDL
	inst, err := testdb.Data()
	if err != nil {
		return nil, err
	}
	chain := newChain(r, coldChain)
	p.tables = []table{
		{"FILM", filmRows(r, coldFilms)},
		{"APPEARS_IN", inst.Rows["APPEARS_IN"]},
		{"DOMINATE", inst.Rows["DOMINATE"]},
		{"EDGE", chain.edges()},
	}
	p.objects = inst.Objects

	const n = coldInstances
	for i := 0; i < n; i++ {
		numf := func() int { return r.stratum(1, coldFilms+1, i, n) }
		cat := func() string { return categories[r.intn(len(categories))] }
		actor := func() string { return testdb.ActorNames[r.intn(len(testdb.ActorNames))] }
		// Points near the ends of the chain: at most ten rows back, so
		// that the closure's execution stays a small share of the query
		// while its rewrite (the magic transformation) costs the same.
		pos := r.stratum(2, 12, i, n)

		// merge (Fig. 7): range scans over the view stack.
		p.add("SELECT Title FROM V6 WHERE Numf < %d", nil, r.stratum(10, coldFilms/2, i, n))
		p.add("SELECT Numf, Title FROM V6 WHERE Numf = %d", nil, numf())
		lo := numf()
		p.add("SELECT Title FROM V3 WHERE Numf < %d AND Numf > %d", nil, lo+20, lo)
		p.add("SELECT Title FROM AdvFilms WHERE Numf = %d", nil, numf())
		// push (Fig. 8-9): selections through UNION and NEST views.
		p.add("SELECT Numf FROM EITHERF WHERE Numf < %d", nil, numf())
		p.add("SELECT Title FROM FilmActors WHERE Title = 'film-%d'", nil, numf())
		p.add("SELECT Title FROM FilmActors WHERE MEMBER('%s', Categories) AND ALL(Salary(Actors) > %d)", nil, cat(), 1000*r.stratum(5, 20, i, n))
		// magic (Fig. 10-11): focused closure point queries.
		p.add("SELECT Src FROM TC WHERE Dst = %d", chain.ancestors(pos), chain.labels[pos-1])
		p.add("SELECT Dst FROM TC WHERE Src = %d", chain.descendants(coldChain-pos), chain.labels[coldChain-pos-1])
		p.add("SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = '%s'", nil, actor())
		// semantic (Fig. 12): MEMBER over an enumeration, contradictions,
		// constant folding.
		p.add("SELECT Title FROM FILM WHERE MEMBER('Cartoon', Categories) AND Numf > %d", &closedForm{rows: 0}, numf())
		p.add("SELECT Title FROM FILM WHERE MEMBER('%s', Categories) AND Numf < %d", nil, cat(), r.stratum(2, coldFilms/4, i, n))
		k := numf()
		p.add("SELECT Title FROM FILM WHERE Numf > %d AND Numf <= %d", &closedForm{rows: 0}, k, k)
		a, b := r.intn(50), r.intn(50)
		p.add("SELECT Title FROM FILM WHERE %d + %d = %d AND Numf = %d", &closedForm{rows: 1}, a, b, a+b, numf())
		p.add("SELECT Title FROM FILM WHERE NOT ISEMPTY(Categories) AND Numf = %d", &closedForm{rows: 1}, numf())
	}
	return p, nil
}

// --- exec_join / exec_spill ---

const joinDDL = `
TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction', 'Western');
TYPE SetCategory SET OF Category;
TABLE FILM (Numf : NUMERIC, Title : CHAR, Categories : SetCategory);
TABLE APPEARS (Numf : NUMERIC, Pay : NUMERIC);
`

const (
	joinFilms   = 5000
	spillFilms  = 1200
	joinFanout  = 3
	joinQueries = 15
	payRange    = 1000
	spillGrant  = 128 << 10
)

// genJoin builds the Figure 3 shape: every film appears joinFanout times
// in APPEARS with a uniform Pay, and the list asks for Pay > k at
// joinQueries thresholds spread over the whole range, so the answers run
// from the whole join down to a fifteenth of it.
//
// The exec lists have 15 cost levels, not 20, on purpose: with 15 equal
// levels the median falls in the middle of the 8th and the 90th
// percentile in the middle of the 14th, while with 20 both fall on the
// gap between two levels, where one sample either way moves them by a
// whole level (README.md, "Sizes").
func genJoin(name string, seed int64, films int) *plan {
	r := newRng(seed, "join")
	p := &plan{workload: name, ddl: joinDDL}
	appears := make([][]value.Value, 0, joinFanout*films)
	// The answer is a set of (Title, Pay): a film that appears twice
	// for the same pay counts once.
	distinct := map[[2]int]bool{}
	for _, i := range r.perm(joinFanout * films) {
		numf, pay := i%films+1, r.intn(payRange)
		distinct[[2]int{numf, pay}] = true
		appears = append(appears, []value.Value{value.Int(int64(numf)), value.Int(int64(pay))})
	}
	p.tables = []table{{"FILM", filmRows(r, films)}, {"APPEARS", appears}}
	for i := 0; i < joinQueries; i++ {
		k := i*payRange/joinQueries + r.intn(5)
		above := 0
		for pair := range distinct {
			if pair[1] > k {
				above++
			}
		}
		// Every APPEARS row joins exactly one film.
		p.add("SELECT Title, Pay FROM FILM, APPEARS WHERE FILM.Numf = APPEARS.Numf AND Pay > %d", &closedForm{rows: above}, k)
	}
	return p
}

func genExecJoin(seed int64) (*plan, error) { return genJoin("exec_join", seed, joinFilms), nil }

func genExecSpill(seed int64) (*plan, error) {
	p := genJoin("exec_spill", seed, spillFilms)
	p.limits = guard.Limits{MaxMemBytes: spillGrant}
	p.spill = true
	return p, nil
}

// --- exec_closure ---

const (
	closureChain   = 700
	closureQueries = 15
)

func genExecClosure(seed int64) (*plan, error) {
	r := newRng(seed, "exec_closure")
	p := &plan{workload: "exec_closure", ddl: tcDDL, atSize: true}
	chain := newChain(r, closureChain)
	p.tables = []table{{"EDGE", chain.edges()}}
	for i := 1; i <= closureQueries; i++ {
		pos := i*closureChain/closureQueries - r.intn(5)
		p.add("SELECT Src FROM TC WHERE Dst = %d", chain.ancestors(pos), chain.labels[pos-1])
	}
	return p, nil
}

// --- served_mixed ---

const (
	servedFilms     = 2000
	servedChain     = 60
	servedConstants = 5
	servedClients   = 2
	servedPlanCache = 256
)

func genServedMixed(seed int64) (*plan, error) {
	r := newRng(seed, "served_mixed")
	p := &plan{workload: "served_mixed", served: true}
	chain := newChain(r, servedChain)

	var sb strings.Builder
	sb.WriteString(`
TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction', 'Western');
TYPE SetCategory SET OF Category;
TABLE FILM (Numf : NUMERIC, Title : CHAR, Categories : SetCategory);
INSERT INTO FILM VALUES`)
	for i, row := range filmRows(r, servedFilms) {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "\n(%d, '%s', SET('%s'))", row[0].I, row[1].S, row[2].Elems[0].S)
	}
	sb.WriteString(";\n" + viewStackDDL(6))
	sb.WriteString("CREATE VIEW AdvFilms (Numf, Title) AS SELECT Numf, Title FROM FILM WHERE MEMBER('Adventure', Categories);\n")
	sb.WriteString(tcDDL + "INSERT INTO EDGE VALUES")
	for i, e := range chain.edges() {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, " (%d, %d)", e[0].I, e[1].I)
	}
	sb.WriteString(";\n")
	p.initESQL = sb.String()

	const n = servedConstants
	for i := 0; i < n; i++ {
		numf := func() int { return r.stratum(10, servedFilms-10, i, n) }
		one := &closedForm{rows: 1}
		// 20 small templates: at most 10 rows back.
		p.add("SELECT Title FROM FILM WHERE Numf = %d", one, numf())
		p.add("SELECT Numf, Title FROM FILM WHERE Numf = %d", one, numf())
		p.add("SELECT Title, Categories FROM FILM WHERE Numf = %d", one, numf())
		p.add("SELECT Title FROM V6 WHERE Numf = %d", one, numf())
		c := r.stratum(8, 14, i, n)
		p.add("SELECT Title FROM V3 WHERE Numf < %d", &closedForm{rows: c - 4}, c)
		c = r.stratum(9, 17, i, n)
		p.add("SELECT Numf FROM V6 WHERE Numf < %d", &closedForm{rows: c - 7}, c)
		lo := numf()
		p.add("SELECT Title FROM FILM WHERE Numf > %d AND Numf < %d", &closedForm{rows: 8}, lo, lo+9)
		lo = numf()
		p.add("SELECT Title FROM V1 WHERE Numf > %d AND Numf < %d", &closedForm{rows: 5}, lo, lo+6)
		p.add("SELECT Title FROM AdvFilms WHERE Numf = %d", nil, numf())
		p.add("SELECT Title FROM FILM WHERE MEMBER('Western', Categories) AND Numf < %d", nil, r.stratum(5, 40, i, n))
		pos := r.stratum(2, 11, i, n)
		p.add("SELECT Src FROM TC WHERE Dst = %d", chain.ancestors(pos), chain.labels[pos-1])
		pos = r.stratum(servedChain-9, servedChain, i, n)
		p.add("SELECT Dst FROM TC WHERE Src = %d", chain.descendants(pos), chain.labels[pos-1])
		p.add("SELECT Title FROM FILM WHERE NOT ISEMPTY(Categories) AND Numf = %d", one, numf())
		a := numf()
		p.add("SELECT Title FROM FILM WHERE Numf = %d OR Numf = %d", &closedForm{rows: 2}, a, a+1)
		p.add("SELECT Title FROM FILM WHERE MEMBER('Cartoon', Categories) AND Numf > %d", &closedForm{rows: 0}, numf())
		k := numf()
		p.add("SELECT Title FROM FILM WHERE Numf > %d AND Numf <= %d", &closedForm{rows: 0}, k, k)
		p.add("SELECT Numf FROM FILM WHERE Title = 'film-%d'", one, numf())
		x, y := r.intn(50), r.intn(50)
		p.add("SELECT Title FROM FILM WHERE %d + %d = %d AND Numf = %d", one, x, y, x+y, numf())
		p.add("SELECT F1.Title FROM FILM F1, FILM F2 WHERE F1.Numf = F2.Numf AND F2.Numf = %d", one, numf())
		p.add("SELECT Numf, Categories FROM V4 WHERE Numf = %d", one, numf())
		// 5 large templates: about 2000 rows back.
		c = r.stratum(0, 10, i, n)
		p.add("SELECT Numf, Title FROM FILM WHERE Numf > %d", &closedForm{rows: servedFilms - c}, c)
		c = r.stratum(servedFilms-9, servedFilms+1, i, n)
		p.add("SELECT Title FROM V6 WHERE Numf < %d", &closedForm{rows: c - 7}, c)
		c = r.stratum(servedFilms-9, servedFilms+1, i, n)
		p.add("SELECT Numf, Title, Categories FROM FILM WHERE Numf < %d", &closedForm{rows: c - 1}, c)
		c = r.stratum(0, 10, i, n)
		p.add("SELECT Title FROM FILM WHERE NOT ISEMPTY(Categories) AND Numf > %d", &closedForm{rows: servedFilms - c}, c)
		c = r.stratum(2, 12, i, n)
		p.add("SELECT Numf FROM V2 WHERE Numf > %d", &closedForm{rows: servedFilms - c}, c)
	}
	return p, nil
}
