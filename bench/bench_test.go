package main

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"lera/internal/core"
	"lera/internal/server"
)

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 6}, {0.9, 10}, {1, 11}, {0.25, 3.5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v", got)
	}
}

// Python: statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4)
// == [1.75, 3.5, 5.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
}

func TestQuietSetDiscardsStalledPass(t *testing.T) {
	// 40 passes of 20 operations: pass i takes 100+i ms, except pass 3,
	// which stalled for two seconds.
	walls := make([]time.Duration, 40)
	for i := range walls {
		walls[i] = time.Duration(100+i) * time.Millisecond
	}
	walls[3] = 2 * time.Second
	got := quietSet(walls, 20)
	if len(got) != 10 {
		t.Fatalf("quiet set of 40 passes holds %d, want the fastest quarter (10)", len(got))
	}
	want := []int{0, 1, 2, 4, 5, 6, 7, 8, 9, 10}
	for i, idx := range got {
		if idx != want[i] {
			t.Fatalf("quiet set = %v, want %v (the stalled pass 3 discarded)", got, want)
		}
	}
}

func TestQuietSetMinimums(t *testing.T) {
	walls := make([]time.Duration, 12)
	for i := range walls {
		walls[i] = time.Duration(12-i) * time.Millisecond
	}
	// A quarter of 12 is 3: raised to the 5-pass minimum.
	if got := quietSet(walls, 100); len(got) != quietMinPasses {
		t.Errorf("%d passes, want %d", len(got), quietMinPasses)
	}
	// 5 passes of 20 operations are 100: extended to 8 passes for 150.
	if got := quietSet(walls, 20); len(got) != 8 {
		t.Errorf("%d passes, want 8 (150 operations)", len(got))
	}
	// Never more than there are.
	if got := quietSet(walls[:4], 1); len(got) != 4 {
		t.Errorf("%d passes of 4", len(got))
	}
	if got := quietSet(walls, 100); got[0] != 11 {
		t.Errorf("fastest pass first: got index %d, want 11", got[0])
	}
}

func TestHostSlowdown(t *testing.T) {
	// 20 probe samples: the fastest quarter ran at 1.5x probeRef, the rest
	// slower still, and one stalled.
	samples := make([]time.Duration, 20)
	for i := range samples {
		samples[i] = 2 * probeRef
	}
	for _, i := range []int{2, 7, 11, 13, 19} {
		samples[i] = probeRef * 3 / 2
	}
	samples[5] = 40 * probeRef
	if got := hostSlowdown(samples); got != 1.5 {
		t.Errorf("hostSlowdown = %v, want 1.5 (the fastest quarter over probeRef)", got)
	}
	if got := hostSlowdown(nil); got != 1 {
		t.Errorf("hostSlowdown of no samples = %v, want 1", got)
	}
	if probeWork() <= 0 || probeSink == 0 {
		t.Errorf("the probe did no work")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 5, End: 35},
		{Name: "b", Parent: 0, Start: 40, End: 90},
		{Name: "b.inner", Parent: 2, Start: 50, End: 60},
		{Name: "op", Parent: -1, Pass: 1, Start: 100, End: 300}, // another pass: filtered out below
	}
	self := selfTimes(spans)
	for i, want := range []int64{20, 30, 40, 10, 200} {
		if self[i] != want {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, self[i], want)
		}
	}
	sum := summarize(spans, map[int32]bool{0: true})
	if sum.coveragePct != 80 {
		t.Errorf("coverage = %v%%, want 80%%", sum.coveragePct)
	}
	if sum.selfMedianNs["b"] != 40 || sum.rootNs != 100 || sum.selfSumNs["a"] != 30 {
		t.Errorf("summary = %+v", sum)
	}

	tr := newTracer()
	root := tr.begin("client.roundtrip", 0, 0, -1)
	tr.spans[root].Start, tr.spans[root].End = 1000, 2000
	tr.child("server.handle", root, 600)
	if c := tr.spans[1]; c.Start != 1200 || c.End != 1800 || c.Parent != root {
		t.Errorf("child span = %+v, want 600 ns centred in its parent", c)
	}
}

// fingerprint renders everything a plan feeds the product.
func fingerprint(p *plan) string {
	var sb strings.Builder
	sb.WriteString(p.ddl)
	sb.WriteString(p.initESQL)
	for _, tb := range p.tables {
		sb.WriteString(tb.name)
		for _, row := range tb.rows {
			for _, v := range row {
				sb.WriteString(v.String())
				sb.WriteByte(',')
			}
			sb.WriteByte('\n')
		}
	}
	oids := make([]int64, 0, len(p.objects))
	for oid := range p.objects {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	for _, oid := range oids {
		fmt.Fprintf(&sb, "%d=%s\n", oid, p.objects[oid])
	}
	sb.WriteString(strings.Join(p.queries, "\n"))
	return sb.String()
}

func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed int64) *plan {
			p, err := w.gen(seed)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			return p
		}
		a, b, c := gen(1), gen(1), gen(2)
		if fingerprint(a) != fingerprint(b) {
			t.Errorf("%s: the same seed gave different data or queries", w.name)
		}
		if strings.Join(a.queries, "\n") == strings.Join(c.queries, "\n") {
			t.Errorf("%s: seeds 1 and 2 gave the same constants", w.name)
		}
		ta, tc := append([]string(nil), a.templates...), append([]string(nil), c.templates...)
		sort.Strings(ta)
		sort.Strings(tc)
		if strings.Join(ta, "\n") != strings.Join(tc, "\n") {
			t.Errorf("%s: seeds 1 and 2 instantiate different templates", w.name)
		}
		if len(a.queries) != len(a.templates) || len(a.queries) != len(a.closed) {
			t.Errorf("%s: %d queries, %d templates, %d closed forms", w.name, len(a.queries), len(a.templates), len(a.closed))
		}
	}
}

func TestMetricCatalogue(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q (unit %q) is outside the allowed alphabet", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("metric %q is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: name or why line out of bounds (%d chars)", w.name, len(w.why))
		}
	}
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is out of step with metrics.go and workloads.go: regenerate it with -benchmark-json")
	}
}

func TestDigest(t *testing.T) {
	a := digestText("Src\n---\n1\n2\n3\n3 rows")
	b := digestText("Src\n---\n3\n1\n2\n3 rows")
	if a.digest != b.digest || a.Rows != 3 {
		t.Errorf("digests of one multiset differ: %+v vs %+v", a, b)
	}
	if a.ordered == b.ordered {
		t.Errorf("the ordered hash ignores row order")
	}
	if c := digestText("Src\n---\n1\n2\n4\n3 rows"); c.digest == a.digest {
		t.Errorf("digests of different rows are equal")
	}

	res := &core.Result{Kind: core.ResultRows, Columns: []string{"Numf", "Title"}, Message: "2 rows"}
	resp := &server.Response{Columns: res.Columns, RowsN: 2}
	for _, row := range [][]string{{"1", "'a'"}, {"2", "'b'"}} {
		resp.Rows = append(resp.Rows, row)
	}
	text := "Numf | Title\n------------\n1 | 'a'\n2 | 'b'\n2 rows"
	if got := renderResponse(resp); got != text {
		t.Errorf("renderResponse = %q, want %q", got, text)
	}
}

// The closed forms of a chain's point queries, against the unrewritten
// plan on a chain small enough to close in full.
func TestChainClosedForms(t *testing.T) {
	chain := newChain(newRng(7, "test"), 12)
	p := &plan{workload: "test", ddl: tcDDL, tables: []table{{"EDGE", chain.edges()}}}
	for pos := 2; pos < 12; pos++ {
		p.add("SELECT Src FROM TC WHERE Dst = %d", chain.ancestors(pos), chain.labels[pos-1])
		p.add("SELECT Dst FROM TC WHERE Src = %d", chain.descendants(pos), chain.labels[pos-1])
	}
	if _, err := reference(p, true); err != nil {
		t.Fatal(err)
	}
	// And the rewritten plan gives the same multiset.
	s, err := newSession(p, "")
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range p.queries {
		res, err := s.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := digestText(core.FormatResult(res)).digest, digestText(core.FormatResult(p.closed[i].full)).digest; got != want {
			t.Errorf("%s: %+v, closed form %+v", q, got, want)
		}
	}
}

// Every committed reference still matches its workload's list and closed
// forms at seed 1.
func TestExpectedFiles(t *testing.T) {
	for _, w := range workloads {
		p, err := w.gen(1)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := loadExpected(w.name)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) != len(p.queries) {
			t.Errorf("expected/%s.json: %d digests for %d queries", w.name, len(ds), len(p.queries))
			continue
		}
		if err := checkClosed(p, ds); err != nil {
			t.Errorf("expected/%s.json: %v", w.name, err)
		}
	}
}
