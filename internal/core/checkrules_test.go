package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"lera/internal/engine"
	"lera/internal/guard"
	"lera/internal/rulecheck"
	"lera/internal/testdb"
)

func TestWithRuleCheckRefusesBrokenRuleBase(t *testing.T) {
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	// An unbound RHS variable is an error-level lint finding, so the
	// rewriter must refuse to build.
	_, err = New(cat, WithRuleCheck(), WithRules(`
rule broken: UNIONN(s) / --> UNIONN(z) / ;
block(extension, {broken}, 1);
seq({typecheck, extension}, 1);
`))
	if err == nil {
		t.Fatal("WithRuleCheck should refuse a rule base with error-level findings")
	}
	if !strings.Contains(err.Error(), "RC001") || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("refusal should cite the finding, got: %v", err)
	}
}

// TestWithRuleCheckRefusesMalformedRHS: a right-hand side that applies a
// LERA operator to the wrong number of arguments is an RC004 error, so
// the checked rewriter refuses to build rather than degrade every query
// the rule touches.
func TestWithRuleCheckRefusesMalformedRHS(t *testing.T) {
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(cat, WithRuleCheck(), WithRules("rule bad: SEARCH(r, q, p) --> SEARCH(r, q); block(bb, {bad}, 1); seq({bb}, 1);"))
	if err == nil || !strings.Contains(err.Error(), "RC004") || !strings.Contains(err.Error(), "bad") {
		t.Fatalf("WithRuleCheck on SEARCH(r, q): %v, want the RC004 refusal", err)
	}
}

func TestWithRuleCheckAcceptsShippedRuleBase(t *testing.T) {
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	rw, err := New(cat, WithRuleCheck())
	if err != nil {
		t.Fatalf("shipped rule base must pass verification: %v", err)
	}
	// The advisory findings (guarded self-cycles etc.) are retained.
	for _, d := range rw.CheckDiagnostics() {
		if d.Severity == rulecheck.SevError {
			t.Fatalf("error-level diagnostic leaked past construction: %s", d)
		}
	}
}

func TestSessionCheckRules(t *testing.T) {
	s := NewSession()
	cat, err := testdb.Catalog()
	if err != nil {
		t.Fatal(err)
	}
	s.DB = engine.New(cat)
	s.Limits = guard.Limits{Timeout: 5 * time.Second, MaxRows: 10000}
	ds, err := s.CheckRules(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Fatal("expected advisory diagnostics over the shipped rule base")
	}
	for _, d := range ds {
		if d.Severity >= rulecheck.SevWarn {
			t.Fatalf("shipped rule base produced a non-advisory finding: %s", d)
		}
	}
}
