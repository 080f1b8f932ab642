package lera

import (
	"strings"
	"testing"

	"lera/internal/testdb"
	"lera/internal/value"
)

// TestPublicAPIQuickstart drives the documented public surface end to end.
func TestPublicAPIQuickstart(t *testing.T) {
	s := NewSession()
	s.MustExec(`
TABLE EMP (Id : INT, Name : CHAR, Salary : NUMERIC);
INSERT INTO EMP VALUES (1, 'Ada', 120000), (2, 'Grace', 130000), (3, 'Edsger', 90000);
CREATE VIEW RICH (Id, Name) AS SELECT Id, Name FROM EMP WHERE Salary > 100000;
`)
	res, err := s.Query("SELECT Name FROM RICH WHERE Id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].S != "Grace" {
		t.Errorf("rows = %v", res.Rows)
	}
	if SearchCount(res.Initial) != 2 || SearchCount(res.Rewritten) != 1 {
		t.Errorf("merge: %s -> %s", Format(res.Initial), Format(res.Rewritten))
	}
	if OperatorCount(res.Rewritten) >= OperatorCount(res.Initial) {
		t.Error("rewriting should shrink the program here")
	}
	out := FormatResult(res)
	if !strings.Contains(out, "Grace") || !strings.Contains(out, "1 rows") {
		t.Errorf("FormatResult = %q", out)
	}
}

// TestPublicAPIPaperPipeline runs the paper's Figures 2-5 through the
// exported API only.
func TestPublicAPIPaperPipeline(t *testing.T) {
	s := NewSession()
	if err := s.LoadFilms(); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query("SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'Quinn'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(testdb.DominatorsOfQuinn()) {
		t.Errorf("rows = %d", len(res.Rows))
	}
	rs, err := s.Exec("EXPLAIN SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'Quinn';")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Fatalf("EXPLAIN returned %d results", len(rs))
	}
	if !strings.Contains(rs[0].Message, "rule.apply rule=alexander ") {
		t.Errorf("EXPLAIN should show the alexander rule applied:\n%s", rs[0].Message)
	}
}

// TestPublicAPIExtensibility registers an ADT function and a rule through
// the exported surface.
func TestPublicAPIExtensibility(t *testing.T) {
	s := NewSession(WithRules(`
rule double_neg: NEG(NEG(x)) --> x;
block(ext, {double_neg}, inf);
seq({typecheck, normalize, merge, push, fixpoint, merge, constraints, semantic, ext, simplify, merge}, 2);
`))
	s.Cat.ADTs.Register("TWICE", 1, true, func(args []value.Value) (value.Value, error) {
		return value.Int(args[0].I * 2), nil
	})
	s.MustExec("TABLE T (A : INT); INSERT INTO T VALUES (3), (4);")
	res, err := s.Query("SELECT A FROM T WHERE TWICE(A) = - - 6")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].I != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
	f := Format(res.Rewritten)
	if strings.Contains(f, "neg(neg") {
		t.Errorf("double_neg did not fire: %s", f)
	}
}

// TestPublicAPIOptions smoke-tests every exported option constructor.
func TestPublicAPIOptions(t *testing.T) {
	opts := []Option{
		WithBlockLimit("constraints", 10), WithBlockLimit("push", 0), WithBlockLimit("merge", 5),
		WithRuleCheck(), WithPlanCache(8), WithPlanCacheValidation(2),
		WithConstraints("rule ic_numf: F(x) / ISA(x, INT) --> F(x) AND x > 0 / ;"),
		WithRules("seq({typecheck, normalize, merge, push, fixpoint, merge, constraints, semantic, simplify, merge}, 1);"),
	}
	rw, err := NewRewriter(NewSession().Cat, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if rw == nil {
		t.Fatal("nil rewriter")
	}
}
