package rewrite

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"lera/internal/guard"
	"lera/internal/term"
)

func TestFilterForClassification(t *testing.T) {
	cases := []struct {
		lhs  *term.Term
		want lhsFilter
	}{
		{term.F("SEARCH", term.V("r"), term.V("q"), term.V("p")),
			lhsFilter{kind: headExact, functor: "SEARCH", minArity: 3, exact: true}},
		{term.F("ANDS", term.Set(term.SV("w"), term.V("f"))),
			lhsFilter{kind: headExact, functor: "ANDS", minArity: 1, exact: true}},
		{term.Set(term.SV("w"), term.V("f")),
			lhsFilter{kind: headExact, functor: term.FSet, minArity: 1, exact: false}},
		{term.F(term.FCollection, term.SV("x")),
			lhsFilter{kind: headCollection, minArity: 0, exact: false}},
		{term.FV("F", term.V("x"), term.SV("y")),
			lhsFilter{kind: headAny, minArity: 1, exact: false}},
		{term.V("x"), lhsFilter{kind: headAny}},
		{term.Num(1), lhsFilter{kind: headNone}},
		{term.SV("x"), lhsFilter{kind: headNone}},
	}
	for i, c := range cases {
		if got := filterFor(c.lhs); got != c.want {
			t.Errorf("case %d (%s): filterFor = %+v, want %+v", i, c.lhs, got, c.want)
		}
	}
}

func TestFilterAdmitsArity(t *testing.T) {
	exact2 := filterFor(term.F("EQ", term.V("a"), term.V("b")))
	if exact2.admits(term.F("EQ", term.Num(1))) || !exact2.admits(term.F("EQ", term.Num(1), term.Num(2))) ||
		exact2.admits(term.F("EQ", term.Num(1), term.Num(2), term.Num(3))) {
		t.Errorf("exact-arity filter admits the wrong arities")
	}
	atLeast1 := filterFor(term.List(term.V("a"), term.SV("rest")))
	if atLeast1.admits(term.F("LIST")) || !atLeast1.admits(term.List(term.Num(1))) ||
		!atLeast1.admits(term.List(term.Num(1), term.Num(2))) {
		t.Errorf("min-arity filter admits the wrong arities")
	}
}

func TestSiteIndexPreorderAndPaths(t *testing.T) {
	q := term.F("A", term.F("B", term.Num(1), term.F("C")), term.F("B"))
	ix := siteIndex{heads: map[string]int32{"B": 0, "D": 1}}
	ix.rebuild(q)
	// Fun nodes in preorder: A, B(1,C), C, B().
	var got []string
	for id := range ix.sites {
		got = append(got, ix.sites[id].node.Functor+fmt.Sprint([]int(ix.path(nil, int32(id)))))
	}
	want := []string{"A[]", "B[0]", "C[0 1]", "B[1]"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("site index = %v, want %v", got, want)
	}
	if len(ix.byHead) != 2 || len(ix.byHead[0]) != 2 || ix.byHead[0][0] != 1 || ix.byHead[0][1] != 3 || len(ix.byHead[1]) != 0 {
		t.Errorf("byHead = %v, want [[1 3] []]: B's sites and none for D; A and C, which no rule names, have no bucket", ix.byHead)
	}
	// Rebuild on a different term must fully supersede the old contents.
	ix.rebuild(term.Set(term.F("D")))
	if len(ix.sites) != 2 || len(ix.byHead[0]) != 0 || len(ix.byHead[1]) != 1 || len(ix.coll) != 1 {
		t.Errorf("rebuild left stale state: sites=%d byHead=%v coll=%v",
			len(ix.sites), ix.byHead, ix.coll)
	}
}

// differentialRules exercises every head class: concrete heads, a
// COLLECTION head, a function-variable head, sequence variables in ordered
// and multiset contexts, constraints and a veto method.
const differentialRules = `
rule conc: FOO(x) / x > 1 --> BAR(x);
rule coll: COLLECTION(PICKME(x), r*) --> COLLECTION(x, r*);
rule fv: F(GUARDED(x)) --> F(x);
rule seqm: ANDS(SET(w*, DUP(y), DUP(y))) --> ANDS(SET(w*, DUP(y)));
block(all, {conc, coll, fv, seqm}, inf);
seq({all}, 2);
`

func differentialQueries() []*term.Term {
	return []*term.Term{
		term.F("TOP", term.F("FOO", term.Num(0)), term.F("FOO", term.Num(7))),
		term.List(term.F("PICKME", term.Num(1)), term.Num(2), term.Num(3)),
		term.F("WRAP", term.F("NEST", term.F("GUARDED", term.Num(4)))),
		term.F("ANDS", term.Set(term.F("DUP", term.Num(2)), term.F("DUP", term.Num(2)), term.F("OTHER"))),
		term.F("DEEP", term.F("DEEP", term.F("DEEP", term.F("FOO", term.Num(9))))),
		term.Num(5), // non-Fun root: nothing to do
	}
}

// TestIndexedMatchesFullScan pins the tentpole invariant: the indexed
// engine and the full-scan engine produce byte-identical terms, identical
// ConditionChecks (the §4.2 budget currency) and identical application
// counts, while the index performs strictly fewer match attempts.
func TestIndexedMatchesFullScan(t *testing.T) {
	for i, q := range differentialQueries() {
		idx := newEngine(t, differentialRules)
		full := FullScan(newEngine(t, differentialRules))
		oi, si, err := idx.RunCtx(context.Background(), q, guard.Limits{})
		if err != nil {
			t.Fatalf("query %d indexed: %v", i, err)
		}
		of, sf, err := full.RunCtx(context.Background(), q, guard.Limits{})
		if err != nil {
			t.Fatalf("query %d full-scan: %v", i, err)
		}
		if oi.String() != of.String() {
			t.Errorf("query %d: indexed %s != full-scan %s", i, oi, of)
		}
		if si.ConditionChecks != sf.ConditionChecks || si.Applications != sf.Applications {
			t.Errorf("query %d: stats diverge: indexed checks=%d apps=%d, full-scan checks=%d apps=%d",
				i, si.ConditionChecks, si.Applications, sf.ConditionChecks, sf.Applications)
		}
		if si.MatchAttempts > sf.MatchAttempts {
			t.Errorf("query %d: indexed attempts %d > full-scan %d", i, si.MatchAttempts, sf.MatchAttempts)
		}
	}
}

func TestIndexSkipsNonCandidateSites(t *testing.T) {
	// 1 FOO site among many BAZ sites, and a rule base with many distinct
	// dead heads: the index must attempt only the FOO rule at the FOO site.
	var src strings.Builder
	src.WriteString("rule live: FOO(x) --> DONE(x);\n")
	names := []string{"live"}
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&src, "rule dead%d: DEADHEAD%d(x) --> GONE%d(x);\n", i, i, i)
		names = append(names, fmt.Sprintf("dead%d", i))
	}
	fmt.Fprintf(&src, "block(all, {%s}, inf);\nseq({all}, 1);\n", strings.Join(names, ", "))
	q := term.F("BAZ", term.F("BAZ", term.F("BAZ", term.F("FOO", term.Num(1)))))

	idx := newEngine(t, src.String())
	_, si, err := idx.RunCtx(context.Background(), q, guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	full := FullScan(newEngine(t, src.String()))
	_, sf, err := full.RunCtx(context.Background(), q, guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// Indexed: pass 1 tries live@FOO (applies); pass 2 finds no candidate
	// at all (DONE head matches nothing). Full-scan pays sites × rules.
	if si.MatchAttempts != 1 {
		t.Errorf("indexed attempts = %d, want 1", si.MatchAttempts)
	}
	if sf.MatchAttempts < 80 {
		t.Errorf("full-scan attempts = %d, expected the sites x rules storm", sf.MatchAttempts)
	}
	if si.ConditionChecks != sf.ConditionChecks {
		t.Errorf("checks diverge: %d vs %d", si.ConditionChecks, sf.ConditionChecks)
	}
}

func TestScratchBindingsIsolatedAcrossSites(t *testing.T) {
	// A veto at one site must not leak method/match bindings into the
	// attempt at the next site: the x bound at the first G site would
	// otherwise force the second match to fail (or worse, succeed with a
	// stale binding in the RHS).
	e := newEngine(t, "rule r: GG(x) / x > 5 --> HH(x);")
	q := term.F("TOP", term.F("GG", term.Num(1)), term.F("GG", term.Num(9)))
	out, st := run(t, e, q)
	if out.String() != "TOP(GG(1), HH(9))" {
		t.Errorf("out = %s", out)
	}
	if st.Applications != 1 {
		t.Errorf("applications = %d", st.Applications)
	}
}

func TestVarHeadRuleStillMatchesEverywhere(t *testing.T) {
	// Function-variable heads live in the wildcard bucket; make sure the
	// indexed engine still applies them at arbitrary functors.
	e := newEngine(t, "rule r: F(REMOVE(x)) --> F(x);")
	q := term.F("AA", term.F("BB", term.F("REMOVE", term.Num(3))))
	out, _ := run(t, e, q)
	if out.String() != "AA(BB(3))" {
		t.Errorf("out = %s", out)
	}
}

// TestFailedMatchAttemptAllocs: an attempt whose LHS head passes the site
// filter but fails deeper — after ordered splits, multiset picks that
// leave a scattered remainder, a partition over two collection variables,
// a function-variable head — allocates nothing: the run's bindings, goal
// stack, Ctx and continuation are reused and the site path is never built.
func TestFailedMatchAttemptAllocs(t *testing.T) {
	const src = `
rule merge: SEARCH(LIST(x*, SEARCH(ll, ff, pp), z*), f, p) --> SEARCH(APPENDL(x*, ll, z*), ANDMERGE(f, ff), p);
rule pick: PAIR(SET(c, w*), NOMATCH()) --> c;
rule split: PAIR(SET(u*, v*), SET(u*)) --> u;
rule fv: F(GUARDED(x), NOMATCH()) --> F(x);
`
	rel := func(n string) *term.Term { return term.F("REL", term.Str(n)) }
	cases := []struct {
		rule string
		site *term.Term
	}{
		{"merge", term.F("SEARCH", term.List(rel("A"), rel("B"), rel("C")), term.TrueT(), term.List())},
		{"pick", term.F("PAIR", term.Set(term.Num(1), term.Num(2), term.Num(3)), term.F("OTHER"))},
		{"split", term.F("PAIR", term.Set(term.Num(1), term.Num(2), term.Num(3)), term.Set(term.Num(4)))},
		{"fv", term.F("WRAP", term.F("GUARDED", term.Num(1)), term.F("OTHER"))},
	}
	e := newEngine(t, src)
	for _, c := range cases {
		rule := e.RS.Rules[c.rule]
		if !filterFor(rule.LHS).admits(c.site) {
			t.Fatalf("%s: the site must pass the head filter", c.rule)
		}
		q := c.site
		r := e.newRun(context.Background(), q, guard.Limits{})
		r.ix.rebuild(q)
		budget := math.MaxInt
		attempt := func() {
			if _, out, err := r.tryRuleAtSite(q, rule, "b", q, 0, &budget); err != nil || out != siteNoMatch {
				t.Fatalf("%s: outcome %v, err %v; want no match", c.rule, out, err)
			}
		}
		attempt() // size the run's scratch
		if n := testing.AllocsPerRun(100, attempt); n != 0 {
			t.Errorf("%s: a failed attempt allocates %.0f times, want 0", c.rule, n)
		}
		if r.st.ConditionChecks != 0 {
			t.Errorf("%s: %d condition checks, want 0 (the match must fail before k)", c.rule, r.st.ConditionChecks)
		}
	}
}
