package term_test

// Differential tests of the stack matcher (match.go) against the closure
// matcher it replaced (OracleMatch, oracle_test.go): for the same pattern
// and subject both must offer the same solutions to k, in the same order,
// and leave the same bindings behind.

import (
	"bufio"
	"context"
	"os"
	"strings"
	"testing"

	"lera/internal/core"
	"lera/internal/guard"
	"lera/internal/rewrite"
	"lera/internal/rules"
	"lera/internal/term"
)

// maxSolutions stops an enumeration early (k accepts the n'th solution), so
// a pathological partition count cannot stall a run; both matchers stop at
// the same solution.
const maxSolutions = 500

type matchFn func(pattern, subject *term.Term, b *term.Bindings, k func() bool) bool

// solutions enumerates every solution of pattern against subject: the
// bindings as each is offered to k, then the verdict and what the bindings
// hold afterwards.
func solutions(match matchFn, pattern, subject *term.Term) []string {
	b := term.NewBindings()
	var got []string
	ok := match(pattern, subject, b, func() bool {
		got = append(got, b.String())
		return len(got) >= maxSolutions
	})
	if ok {
		return append(got, "accepted "+b.String())
	}
	return append(got, "rejected "+b.String())
}

func sameSolutions(t *testing.T, pattern, subject *term.Term) bool {
	t.Helper()
	want := solutions(term.OracleMatch, pattern, subject)
	got := solutions(term.Match, pattern, subject)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("%s against %s:\n got  %q\n want %q", pattern, subject, got, want)
		return false
	}
	return len(want) > 1
}

// corpusTerms returns every distinct subterm of the golden corpus queries
// (testdata/parallel_corpus.esql, which covers the rewrite_cold templates)
// as translated, after each block of the paper's sequence alone, and fully
// rewritten — together with the session's rule base.
func corpusTerms(t *testing.T) ([]*term.Term, *rules.RuleSet) {
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
		term.Visit(q, func(sub *term.Term) bool {
			if k := sub.String(); !seen[k] {
				seen[k] = true
				out = append(out, sub)
			}
			return true
		})
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
	return out, rw.RS
}

// TestMatchSolutionsMatchOracle: every rule left-hand side of the shipped
// Figure 7-12 libraries against every subterm of the corpus queries — all
// solutions, in order.
func TestMatchSolutionsMatchOracle(t *testing.T) {
	subjects, rs := corpusTerms(t)
	pairs, matched := 0, 0
	for _, name := range rs.RuleOrder {
		lhs := rs.Rules[name].LHS
		for _, sub := range subjects {
			pairs++
			if sameSolutions(t, lhs, sub) {
				matched++
			}
			if t.Failed() {
				t.Fatalf("rule %s", name)
			}
		}
	}
	// Guard against a vacuous corpus: most pairs fail at the head, but the
	// comparison must have seen real solutions.
	if matched < 100 {
		t.Fatalf("only %d of %d pairs had a solution", matched, pairs)
	}
	t.Logf("%d rules x %d subterms: %d pairs, %d with solutions", len(rs.RuleOrder), len(subjects), pairs, matched)
}

// FuzzMatch parses rule text and matches every rule's left-hand side
// against every left- and right-hand side (and their subterms) of the same
// text: the stack matcher must never panic and must enumerate the oracle's
// solutions. It also gives the rule parser arbitrary input. Seeds:
// testdata/fuzz/FuzzMatch.
func FuzzMatch(f *testing.F) {
	f.Add(`rule r: ANDS(SET(c, w*)) --> c; rule s: ANDS(SET(EQ(1, 2), LT(3, 4), GT(5, 6))) --> s;`)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 512 {
			return
		}
		rs, err := rules.Parse(src)
		if err != nil {
			return
		}
		var subjects []*term.Term
		for _, name := range rs.RuleOrder {
			r := rs.Rules[name]
			for _, side := range []*term.Term{r.LHS, r.RHS} {
				term.Visit(side, func(sub *term.Term) bool {
					subjects = append(subjects, sub)
					return true
				})
			}
		}
		if len(subjects) > 64 {
			subjects = subjects[:64]
		}
		for _, name := range rs.RuleOrder {
			lhs := rs.Rules[name].LHS
			if lhs.Size() > 16 {
				continue
			}
			for _, sub := range subjects {
				if sub.Size() > 12 {
					continue
				}
				sameSolutions(t, lhs, sub)
			}
		}
	})
}
