package lopt

import (
	"context"
	"strings"
	"testing"

	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/rewrite"
	"lera/internal/rules"
	"lera/internal/term"
	"lera/internal/testdb"
)

// engine builds a rewrite engine over the syntactic rules with the
// syntactic externals registered; internal/core assembles the full
// optimizer.
func engine(t *testing.T) *rewrite.Engine {
	t.Helper()
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	return rewrite.New(RuleSet(), Externals(), cat, nil)
}

// TestFigure7SearchMerging: two stacked searches merge into one, with the
// outer qualification remapped through the inner projection.
func TestFigure7SearchMerging(t *testing.T) {
	e := engine(t)
	// Inner: search((FILM), [member('Adventure', 1.3)], (1.1, 1.2))
	inner := lera.Search(
		[]*term.Term{lera.Rel("FILM")},
		lera.Ands(term.F("MEMBER", term.Str("Adventure"), lera.Attr(1, 3))),
		[]*term.Term{lera.Attr(1, 1), lera.Attr(1, 2)},
	)
	// Outer: search((APPEARS_IN, inner), [1.1=2.1], (2.2))
	outer := lera.Search(
		[]*term.Term{lera.Rel("APPEARS_IN"), inner},
		lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1))),
		[]*term.Term{lera.Attr(2, 2)},
	)
	out, st, err := e.RunBlockCtx(context.Background(), outer, "merge", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applications != 1 {
		t.Fatalf("applications = %d; %s", st.Applications, lera.Format(out))
	}
	if lera.SearchCount(out) != 1 {
		t.Fatalf("merged tree still has %d searches: %s", lera.SearchCount(out), lera.Format(out))
	}
	got := lera.Format(out)
	// Relations: append(x*, v*, z) = (APPEARS_IN, FILM); outer ref 2.1
	// maps through inner proj (1.1 shifted by 1) to 2.1; inner member
	// shifts to 2.3; outer proj 2.2 maps to inner 1.2 shifted -> 2.2.
	want := "search((APPEARS_IN, FILM), [2.1=1.1 ∧ member('Adventure', 2.3)], (2.2))"
	// Conjunct order is canonical; accept either order of the equality.
	alt := "search((APPEARS_IN, FILM), [1.1=2.1 ∧ member('Adventure', 2.3)], (2.2))"
	if got != want && got != alt {
		t.Errorf("merged = %s", got)
	}
	// The merged query must still be schema-valid.
	if _, err := lera.Infer(out, e.Cat, nil); err != nil {
		t.Errorf("schema after merge: %v", err)
	}
}

// A three-level stack merges to a single search (the rule applies once
// per level).
func TestSearchMergingStack(t *testing.T) {
	e := engine(t)
	q := lera.Search([]*term.Term{lera.Rel("FILM")}, lera.TrueQual(),
		[]*term.Term{lera.Attr(1, 1), lera.Attr(1, 2), lera.Attr(1, 3)})
	for i := 0; i < 3; i++ {
		q = lera.Search([]*term.Term{q}, lera.TrueQual(),
			[]*term.Term{lera.Attr(1, 1), lera.Attr(1, 2), lera.Attr(1, 3)})
	}
	out, st, err := e.RunBlockCtx(context.Background(), q, "merge", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// Three merges plus the final identity elimination: the whole stack
	// reduces to the base relation.
	if st.Applications != 4 || !lera.IsOp(out, lera.OpRel) {
		t.Errorf("stack merge: %d applications, %s", st.Applications, lera.Format(out))
	}
}

// Merging remaps complex inner projection expressions into the outer
// qualification (the SUBSTITUTE method's inlining path).
func TestSearchMergingInlinesProjections(t *testing.T) {
	e := engine(t)
	inner := lera.Search(
		[]*term.Term{lera.Rel("APPEARS_IN")},
		lera.TrueQual(),
		[]*term.Term{lera.Attr(1, 1), lera.Call("Salary", lera.Attr(1, 2))},
	)
	outer := lera.Search(
		[]*term.Term{inner},
		lera.Ands(lera.Cmp(">", lera.Attr(1, 2), term.Num(10000))),
		[]*term.Term{lera.Attr(1, 1)},
	)
	out, _, err := e.RunBlockCtx(context.Background(), outer, "merge", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	got := lera.Format(out)
	want := "search((APPEARS_IN), [salary(1.2)>10000], (1.1))"
	if got != want {
		t.Errorf("merged = %s, want %s", got, want)
	}
}

// TestFigure7UnionMerging: UNION(SET(x*, UNION(z))) flattens.
func TestFigure7UnionMerging(t *testing.T) {
	e := engine(t)
	q := lera.Union(
		lera.Rel("FILM"),
		lera.Union(lera.Rel("APPEARS_IN"), lera.Rel("DOMINATE")),
	)
	out, st, err := e.RunBlockCtx(context.Background(), q, "merge", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applications != 1 {
		t.Fatalf("applications = %d", st.Applications)
	}
	if len(out.Args[0].Args) != 3 {
		t.Errorf("flattened union members = %d: %s", len(out.Args[0].Args), lera.Format(out))
	}
}

func TestUnionSingleCollapses(t *testing.T) {
	e := engine(t)
	q := lera.Union(lera.Rel("FILM"))
	out, _, err := e.RunBlockCtx(context.Background(), q, "merge", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !lera.IsOp(out, lera.OpRel) {
		t.Errorf("singleton union must collapse: %s", lera.Format(out))
	}
}

// TestNormalizeBasicOps: FILTER and JOIN canonicalise into SEARCH with
// identity projections derived from the catalog schema (the paper's
// SCHEMA method).
func TestNormalizeBasicOps(t *testing.T) {
	e := engine(t)
	f := lera.Filter(lera.Rel("FILM"), lera.Ands(lera.Cmp("=", lera.Attr(1, 1), term.Num(1))))
	out, _, err := e.RunBlockCtx(context.Background(), f, "normalize", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if lera.Format(out) != "search((FILM), [1.1=1], (1.1, 1.2, 1.3))" {
		t.Errorf("filter = %s", lera.Format(out))
	}
	j := lera.Join(lera.Rel("FILM"), lera.Rel("APPEARS_IN"), lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1))))
	out2, _, err := e.RunBlockCtx(context.Background(), j, "normalize", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if lera.Format(out2) != "search((FILM, APPEARS_IN), [1.1=2.1], (1.1, 1.2, 1.3, 2.1, 2.2))" {
		t.Errorf("join = %s", lera.Format(out2))
	}
}

func TestNormalizeConnectives(t *testing.T) {
	e := engine(t)
	c1 := lera.Cmp("=", lera.Attr(1, 1), term.Num(1))
	c2 := lera.Cmp(">", lera.Attr(1, 2), term.Num(2))
	q := lera.Filter(lera.Rel("FILM"), term.F("AND", c1, c2))
	out, _, err := e.RunBlockCtx(context.Background(), q, "normalize", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	qual := out.Args[1]
	if !lera.IsOp(qual, lera.EAnds) || len(lera.Conjuncts(qual)) != 2 {
		t.Errorf("AND normalised = %s", lera.Format(qual))
	}
	// AND nested inside an ANDS set flattens too.
	q2 := lera.Filter(lera.Rel("FILM"), lera.Ands(term.F("AND", c1, c2)))
	out2, _, err := e.RunBlockCtx(context.Background(), q2, "normalize", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(lera.Conjuncts(out2.Args[1])) != 2 {
		t.Errorf("AND inside ANDS normalised = %s", lera.Format(out2.Args[1]))
	}
	// OR normalises into ORS.
	q3 := lera.Filter(lera.Rel("FILM"), term.F("OR", c1, c2))
	out3, _, err := e.RunBlockCtx(context.Background(), q3, "normalize", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !lera.IsOp(out3.Args[1], lera.EOrs) {
		t.Errorf("OR normalised = %s", lera.Format(out3.Args[1]))
	}
}

// TestFigure8PushUnion: a search over a union splits into a union of
// searches, recursively down to single members.
func TestFigure8PushUnion(t *testing.T) {
	e := engine(t)
	u := lera.Union(lera.Rel("FILM"), lera.Rel("FILM2"), lera.Rel("FILM3"))
	// Declare two more FILM-shaped relations.
	for _, n := range []string{"FILM2", "FILM3"} {
		r, _ := e.Cat.Relation("FILM")
		if _, err := e.Cat.DeclareRelation(n, r.Columns); err != nil {
			t.Fatal(err)
		}
	}
	q := lera.Search(
		[]*term.Term{u},
		lera.Ands(lera.Cmp("=", lera.Attr(1, 1), term.Num(1))),
		[]*term.Term{lera.Attr(1, 2)},
	)
	out, _, err := e.RunBlockCtx(context.Background(), q, "push", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	// Result: union of three searches, one per member (after the merge
	// block flattens the nested unions).
	out, _, err = e.RunBlockCtx(context.Background(), out, "merge", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !lera.IsOp(out, lera.OpUnion) {
		t.Fatalf("expected union at root: %s", lera.Format(out))
	}
	members := out.Args[0].Args
	if len(members) != 3 {
		t.Fatalf("members = %d: %s", len(members), lera.Format(out))
	}
	for _, m := range members {
		if !lera.IsOp(m, lera.OpSearch) {
			t.Errorf("member is not a search: %s", lera.Format(m))
		}
		if term.Contains(m, func(s *term.Term) bool { return lera.IsOp(s, lera.OpUnion) }) {
			t.Errorf("member still contains a union: %s", lera.Format(m))
		}
	}
}

// TestFigure8PushNest: conjuncts on non-nested attributes push inside the
// nest; conjuncts on the nested collection stay outside (the REFER
// condition).
func TestFigure8PushNest(t *testing.T) {
	e := engine(t)
	// NEST(APPEARS_IN, (2), Actors): output (Numf, Actors).
	n := lera.Nest(lera.Rel("APPEARS_IN"), []int{2}, "Actors")
	q := lera.Search(
		[]*term.Term{n},
		lera.Ands(
			lera.Cmp("=", lera.Attr(1, 1), term.Num(1)),       // on Numf: pushable
			term.F("NOT", term.F("ISEMPTY", lera.Attr(1, 2))), // on Actors: not pushable
		),
		[]*term.Term{lera.Attr(1, 2)},
	)
	out, st, err := e.RunBlockCtx(context.Background(), q, "push", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applications != 1 {
		t.Fatalf("applications = %d: %s", st.Applications, lera.Format(out))
	}
	got := lera.Format(out)
	// The inner search filters Numf=1 against APPEARS_IN's column 1.
	if !strings.Contains(got, "nest(search((APPEARS_IN), [1.1=1], (1.1, 1.2)), (2), Actors)") {
		t.Errorf("pushed = %s", got)
	}
	// The ISEMPTY conjunct stays in the outer search.
	if !strings.Contains(got, "¬(isempty(1.2))") {
		t.Errorf("kept conjunct missing: %s", got)
	}
	// Idempotent: nothing more to push.
	out2, st2, err := e.RunBlockCtx(context.Background(), out, "push", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Applications != 0 {
		t.Errorf("second push applied %d times: %s", st2.Applications, lera.Format(out2))
	}
}

// When every conjunct touches the nested column, the REFER condition
// blocks the rule entirely.
func TestPushNestVetoed(t *testing.T) {
	e := engine(t)
	n := lera.Nest(lera.Rel("APPEARS_IN"), []int{2}, "Actors")
	q := lera.Search(
		[]*term.Term{n},
		lera.Ands(term.F("NOT", term.F("ISEMPTY", lera.Attr(1, 2)))),
		[]*term.Term{lera.Attr(1, 1)},
	)
	_, st, err := e.RunBlockCtx(context.Background(), q, "push", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applications != 0 {
		t.Error("push through nest must be vetoed when nothing is pushable")
	}
	// A nest whose index is a real is not one PUSHNEST understands, though
	// the conjunct on Numf would push through a well-formed one.
	realIdx := term.F(lera.OpNest, lera.Rel("APPEARS_IN"), term.List(term.Flt(2)), term.Str("Actors"))
	q = lera.Search([]*term.Term{realIdx}, lera.Ands(lera.Cmp("=", lera.Attr(1, 1), term.Num(1))), []*term.Term{lera.Attr(1, 1)})
	if _, st, err = e.RunBlockCtx(context.Background(), q, "push", guard.Limits{}); err != nil || st.Applications != 0 {
		t.Errorf("push through a real-indexed nest: %d applications, %v; want vetoed", st.Applications, err)
	}
}

// E1 shape check at the unit level: a k-level view stack's operator count
// collapses to a single search regardless of k.
func TestMergeReducesProgramSize(t *testing.T) {
	e := engine(t)
	for k := 1; k <= 6; k++ {
		q := lera.Search([]*term.Term{lera.Rel("FILM")}, lera.TrueQual(),
			[]*term.Term{lera.Attr(1, 1), lera.Attr(1, 2), lera.Attr(1, 3)})
		for i := 0; i < k; i++ {
			q = lera.Search([]*term.Term{q}, lera.TrueQual(),
				[]*term.Term{lera.Attr(1, 1), lera.Attr(1, 2), lera.Attr(1, 3)})
		}
		before := lera.OperatorCount(q)
		out, _, err := e.RunBlockCtx(context.Background(), q, "merge", guard.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		after := lera.OperatorCount(out)
		// The stacked identity searches merge and then vanish entirely
		// (search_identity), leaving just the base relation reference.
		if after != 1 {
			t.Errorf("k=%d: operators %d -> %d, want 1", k, before, after)
		}
	}
}

// The REFERONLY constraint is available to implementor-written rules.
func TestReferOnlyConstraint(t *testing.T) {
	cat, _ := testdb.Catalog()
	ext := Externals()
	rs := RuleSet()
	extra := `
rule mark: SEARCH(LIST(r), q, e) / REFERONLY(q, 1) --> MARKED(r, q, e);
block(extra, {mark}, inf);
`
	rsx, err := rules.Parse(extra)
	if err != nil {
		t.Fatal(err)
	}
	rs.Merge(rsx)
	e := rewrite.New(rs, ext, cat, nil)
	q := lera.Search([]*term.Term{lera.Rel("FILM")},
		lera.Ands(lera.Cmp("=", lera.Attr(1, 1), term.Num(1))),
		[]*term.Term{lera.Attr(1, 2)})
	out, _, err := e.RunCtx(context.Background(), q, guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Functor != "MARKED" {
		t.Errorf("REFERONLY rule did not fire: %s", out)
	}
	// The relation index is an integer: REFERONLY(q, 2.0) is an error, not a
	// relation numbered by the real's float bits.
	if ok, err := referOnly(nil, []*term.Term{q.Args[1], term.Flt(2)}); ok || err == nil {
		t.Errorf("REFERONLY(q, 2.0) = %v, %v; want an error", ok, err)
	}
}

// The identity search introduced by view expansion disappears (§1's
// redundant sub-query elimination).
func TestSearchIdentityElimination(t *testing.T) {
	e := engine(t)
	id := lera.Search([]*term.Term{lera.Rel("FILM")}, lera.TrueQual(),
		[]*term.Term{lera.Attr(1, 1), lera.Attr(1, 2), lera.Attr(1, 3)})
	q := lera.Diff(id, lera.Rel("FILM"))
	out, st, err := e.RunBlockCtx(context.Background(), q, "merge", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applications != 1 || !lera.IsOp(out.Args[0], lera.OpRel) {
		t.Errorf("identity not eliminated: %s", lera.Format(out))
	}
	// Non-identity searches survive: wrong order, wrong arity, a filter.
	keep := []*term.Term{
		lera.Search([]*term.Term{lera.Rel("FILM")}, lera.TrueQual(),
			[]*term.Term{lera.Attr(1, 2), lera.Attr(1, 1), lera.Attr(1, 3)}),
		lera.Search([]*term.Term{lera.Rel("FILM")}, lera.TrueQual(),
			[]*term.Term{lera.Attr(1, 1)}),
		lera.Search([]*term.Term{lera.Rel("FILM")},
			lera.Ands(lera.Cmp("=", lera.Attr(1, 1), term.Num(1))),
			[]*term.Term{lera.Attr(1, 1), lera.Attr(1, 2), lera.Attr(1, 3)}),
	}
	for _, k := range keep {
		_, st, err := e.RunBlockCtx(context.Background(), k, "merge", guard.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if st.Applications != 0 {
			t.Errorf("non-identity eliminated: %s", lera.Format(k))
		}
	}
}

// Selections push through difference and intersection (set semantics).
func TestPushDiffAndInter(t *testing.T) {
	e := engine(t)
	qual := lera.Ands(lera.Cmp("=", lera.Attr(1, 1), term.Num(1)))
	proj := []*term.Term{lera.Attr(1, 2)}

	d := lera.Search([]*term.Term{lera.Diff(lera.Rel("FILM"), lera.Rel("FILM"))}, qual, proj)
	out, st, err := e.RunBlockCtx(context.Background(), d, "push", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Applications != 1 {
		t.Fatalf("push_diff applications = %d", st.Applications)
	}
	f := lera.Format(out)
	if !strings.Contains(f, "diff(search((FILM), [1.1=1]") {
		t.Errorf("pushed diff = %s", f)
	}
	// Re-application is blocked (outer qual now true).
	_, st2, err := e.RunBlockCtx(context.Background(), out, "push", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Applications != 0 {
		t.Error("push_diff must not re-apply")
	}

	i := lera.Search([]*term.Term{lera.Inter(lera.Rel("FILM"), lera.Rel("DOMINATE2"))}, qual, proj)
	// Declare a FILM-shaped second relation so schemas agree.
	r, _ := e.Cat.Relation("FILM")
	if _, err := e.Cat.DeclareRelation("DOMINATE2", r.Columns); err != nil {
		t.Fatal(err)
	}
	out2, st3, err := e.RunBlockCtx(context.Background(), i, "push", guard.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st3.Applications != 1 {
		t.Fatalf("push_inter applications = %d: %s", st3.Applications, lera.Format(out2))
	}
	if !strings.Contains(lera.Format(out2), "inter({") || !strings.Contains(lera.Format(out2), "[1.1=1]") {
		t.Errorf("pushed inter = %s", lera.Format(out2))
	}
}
