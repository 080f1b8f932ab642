package rulecheck

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"lera/internal/guard"
	"lera/internal/lopt"
	"lera/internal/rewrite"
	"lera/internal/testdb"
)

// dropQual is the canonical "statically clean, semantically broken" rule:
// it silently discards the first conjunct of a qualification. Every
// variable is bound, every symbol is vocabulary, it is size-decreasing so
// the divergence check stays quiet — only running queries through it can
// reveal the bug.
const dropQual = `
rule drop_qual: SEARCH(LIST(REL(n)), ANDS(SET(c, w*)), a) / --> SEARCH(LIST(REL(n)), ANDS(SET(w*)), a) / ;
`

func TestDiffCatchesDroppedConjunct(t *testing.T) {
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	rs := mustParse(t, dropQual)
	ext := rewrite.NewExternals()

	// The static lint has nothing to say at error or warn level: this
	// bug is invisible to syntactic analysis.
	for _, d := range Lint(rs, ext, cat) {
		if d.Severity >= SevWarn {
			t.Fatalf("rule should be statically clean, got: %s", d)
		}
	}

	ds, err := Diff(context.Background(), rs, ext, cat, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := want(t, ds, CodeCounterexample, "drop_qual", SevError, "results differ")
	// The counterexample must be reproducible: it names the seed and
	// shows both terms.
	for _, frag := range []string{"seed-1", "before:", "after:", "row(s) gained"} {
		if !strings.Contains(d.Msg, frag) {
			t.Fatalf("counterexample message missing %q:\n%s", frag, d.Msg)
		}
	}
}

func TestDiffCatchesBrokenExecution(t *testing.T) {
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	// Rewrites every single-relation search to scan a relation that does
	// not exist: the rewritten term fails where the original ran fine.
	rs := mustParse(t, `
rule break_exec: SEARCH(LIST(REL(n)), q, a) / --> SEARCH(LIST(REL('NO_SUCH_RELATION')), q, a) / ;
`)
	ds, err := Diff(context.Background(), rs, rewrite.NewExternals(), cat, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want(t, ds, CodeExecBroken, "break_exec", SevError, "NO_SUCH_RELATION")
}

func TestDiffDeterministic(t *testing.T) {
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	run := func() []Diagnostic {
		rs := mustParse(t, dropQual)
		ds, err := Diff(context.Background(), rs, rewrite.NewExternals(), cat, DiffOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical Diff runs disagree:\n%s\nvs\n%s", renderAll(a), renderAll(b))
	}
}

func TestDiffRespectsRowBudget(t *testing.T) {
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	rs := mustParse(t, dropQual)
	// A one-row budget makes every base execution trip the guard, so no
	// comparison can run — budget trips must never be reported as
	// semantic errors.
	ds, err := Diff(context.Background(), rs, rewrite.NewExternals(), cat, DiffOptions{
		Limits: guard.Limits{MaxRows: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if d.Severity == SevError {
			t.Fatalf("budget trip surfaced as error: %s", d)
		}
	}
}

func TestDiffCancellation(t *testing.T) {
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	rs := mustParse(t, dropQual)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Diff(ctx, rs, rewrite.NewExternals(), cat, DiffOptions{}); err == nil {
		t.Fatal("cancelled context must surface as an error")
	}
}

func TestDiffShippedOptimizerRulesClean(t *testing.T) {
	// The shipped logical-optimization library is the first regression
	// corpus: none of its rules may produce a counterexample or break
	// execution on the generated database.
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Diff(context.Background(), lopt.RuleSet(), lopt.Externals(), cat, DiffOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		if d.Severity >= SevWarn {
			t.Fatalf("shipped rule base produced a finding:\n%s", d)
		}
	}
}
