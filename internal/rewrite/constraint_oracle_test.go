package rewrite_test

// Differential test of the constraint evaluator (evalConstraint, which
// instantiates only the arguments an external reads) against the
// instantiate-then-dispatch evaluator it replaced (export_test.go).

import (
	"bufio"
	"context"
	"os"
	"strings"
	"testing"

	"lera/internal/core"
	"lera/internal/guard"
	"lera/internal/rewrite"
	"lera/internal/term"
)

// maxSolutions stops a match's enumeration early, so a pathological
// partition count cannot stall the sweep.
const maxSolutions = 200

// corpusRoots returns the distinct query terms of the golden corpus
// (testdata/parallel_corpus.esql, which covers the rewrite_cold
// templates) as translated, after each block of the paper's sequence
// alone, and fully rewritten — with the session's rewriter.
func corpusRoots(t *testing.T) ([]*term.Term, *core.Rewriter) {
	t.Helper()
	s := core.NewSession()
	if err := s.LoadFilms(); err != nil {
		t.Fatal(err)
	}
	rw, err := s.Rewriter()
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open("../../testdata/parallel_corpus.esql")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]bool{}
	var out []*term.Term
	add := func(q *term.Term) {
		if k := q.String(); !seen[k] {
			seen[k] = true
			out = append(out, q)
		}
	}
	eng := rewrite.New(rw.RS, rw.Ext, rw.Cat, nil)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, `\`) {
			continue
		}
		res, err := s.Exec(line)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		for _, r := range res {
			if r.Initial == nil {
				continue
			}
			add(r.Initial)
			add(r.Rewritten)
			for _, blk := range rw.RS.Sequence.Blocks {
				if q, _, err := eng.RunBlockCtx(context.Background(), r.Initial, blk, guard.Limits{}); err == nil {
					add(q)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out, rw
}

// TestConstraintChecksMatchOracle: every rule of the full rule base at
// every Fun subterm of the corpus queries; on every complete match, each
// of the rule's constraints gives the same verdict and error text through
// the engine's evaluator as through the oracle, and leaves the argument
// stack empty.
func TestConstraintChecksMatchOracle(t *testing.T) {
	roots, rw := corpusRoots(t)
	e := rewrite.New(rw.RS, rw.Ext, rw.Cat, nil)
	var checks, held, failed int
	for _, root := range roots {
		term.Walk(root, func(sub *term.Term, path term.Path) bool {
			if sub.Kind != term.Fun {
				return true
			}
			for _, name := range rw.RS.RuleOrder {
				rule := rw.RS.Rules[name]
				if len(rule.Constraints) == 0 {
					continue
				}
				b := term.NewBindings()
				n := 0
				term.Match(rule.LHS, sub, b, func() bool {
					for _, c := range rule.Constraints {
						got, want := rewrite.CheckBothWays(e, root, path, b, name, c)
						checks++
						switch {
						case got != want:
							t.Errorf("rule %s, constraint %s at %s of %s, bindings %s:\n got  %s\n want %s",
								name, c, sub, root, b, got, want)
						case strings.HasPrefix(got, "ok=true"):
							held++
						case !strings.HasSuffix(got, "err=<nil>"):
							failed++
						}
					}
					n++
					return n >= maxSolutions
				})
				if t.Failed() {
					t.Fatalf("rule %s", name)
				}
			}
			return true
		})
	}
	// Guard against a vacuous sweep: the corpus must exercise constraints
	// that hold as well as ones that do not.
	if held < 100 || checks-held < 100 {
		t.Fatalf("only %d checks, %d held", checks, held)
	}
	t.Logf("%d roots: %d constraint checks, %d held, %d errors", len(roots), checks, held, failed)
}
