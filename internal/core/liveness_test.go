package core

// The liveness corpus: one input per shipped rule on which that rule
// fires. testdata/liveness_corpus.esql holds the inputs ESQL can reach;
// builtInputs holds the LERA terms translate never emits (FILTER, JOIN,
// DIFF, INTER and the binary connectives), built with the lera
// constructors. Three tests run it: the census (every rule of the
// default base applies at least once), soundness where the rules fire
// (rewritten answer = unrewritten answer, as bags) and the ablation
// verdict (neutralise one rule, rerun, compare every plan and answer;
// docs/RULES.md records the outcome per rule).

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/obs"
	"lera/internal/term"
)

const livenessCorpus = "liveness_corpus.esql"

// livenessInput is one unrewritten plan of the corpus, named by its
// corpus line or its builtInputs key.
type livenessInput struct {
	name string
	plan *term.Term
}

// builtInputs are the corpus terms ESQL cannot produce, over the Figure 2
// relations: FILM(Numf, Title, Categories), DOMINATE(Numf, ...).
func builtInputs() []livenessInput {
	numf := func(i int, op string, n int64) *term.Term { return lera.Cmp(op, lera.Attr(i, 1), term.Num(n)) }
	numfs := func(rel string, qual ...*term.Term) *term.Term {
		return lera.Search([]*term.Term{lera.Rel(rel)}, lera.Ands(qual...), []*term.Term{lera.Attr(1, 1)})
	}
	over := func(r *term.Term, qual *term.Term) *term.Term {
		return lera.Search([]*term.Term{r}, qual, []*term.Term{lera.Attr(1, 1)})
	}
	film := lera.Rel("FILM")
	return []livenessInput{
		{"built filter-and", lera.Filter(film, term.F("AND", numf(1, ">", 1), numf(1, "<", 4)))},
		{"built filter-or", lera.Filter(film, term.F("OR", numf(1, "=", 1), numf(1, "=", 3)))},
		{"built filter-ands-and", lera.Filter(film, lera.Ands(
			term.F("AND", numf(1, ">", 2), term.F("MEMBER", term.Str("Adventure"), lera.Attr(1, 3))),
			numf(1, "<=", 2)))},
		{"built join", lera.Join(film, lera.Rel("APPEARS_IN"), lera.Ands(lera.Cmp("=", lera.Attr(1, 1), lera.Attr(2, 1))))},
		{"built diff", over(lera.Diff(numfs("FILM"), numfs("DOMINATE", numf(1, "=", 1))), lera.Ands(numf(1, ">", 2)))},
		{"built inter", over(lera.Inter(numfs("FILM"), numfs("DOMINATE", numf(1, "<", 3))), lera.Ands(numf(1, ">", 1)))},
	}
}

// livenessSession loads the corpus file's setup (its \films line and its
// DDL) and returns the session with every input: the corpus SELECTs,
// translated, then builtInputs.
func livenessSession(t *testing.T) (*Session, []livenessInput) {
	t.Helper()
	f, err := os.Open("../../testdata/" + livenessCorpus)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s := NewSession()
	var inputs []livenessInput
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		switch {
		case text == `\films`:
			if err := s.LoadFilms(); err != nil {
				t.Fatal(err)
			}
		case text == "" || strings.HasPrefix(text, `\`):
		case strings.HasPrefix(strings.ToUpper(text), "SELECT"):
			q, err := translated(s, text)
			if err != nil {
				t.Fatalf("%s:%d: %v", livenessCorpus, line, err)
			}
			inputs = append(inputs, livenessInput{fmt.Sprintf("%s:%d", livenessCorpus, line), q})
		default:
			if _, err := s.Exec(text); err != nil {
				t.Fatalf("%s:%d: %v", livenessCorpus, line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return s, append(inputs, builtInputs()...)
}

// rewriteTraced rewrites one input with rw and returns the plan and the
// names of the rules that applied, in commit order.
func rewriteTraced(t *testing.T, rw *Rewriter, in livenessInput) (*term.Term, []string) {
	t.Helper()
	rec := obs.NewRecorder("liveness")
	plan, _, err := rw.RewriteCtx(obs.NewContext(context.Background(), rec), in.plan, guard.Limits{})
	if err != nil {
		t.Fatalf("%s: %v", in.name, err)
	}
	var fired []string
	for _, ev := range ruleApplies(t, rec.Finish()) {
		fired = append(fired, attr(ev.Attrs, "rule").(string))
	}
	return plan, fired
}

// answer executes a plan and returns its rows as a canonical bag.
func answer(t *testing.T, s *Session, name string, plan *term.Term) string {
	t.Helper()
	rel, err := s.DB.EvalCtx(context.Background(), plan)
	if err != nil {
		t.Fatalf("%s: %s: %v", name, lera.Format(plan), err)
	}
	return canon(rel.Rows)
}

// livenessRun is the corpus rewritten by the default base: per input its
// plan and unrewritten answer, and per rule its applications.
type livenessRun struct {
	s       *Session
	rw      *Rewriter
	inputs  []livenessInput
	plans   []*term.Term
	answers []string
	fired   map[string]int
}

func runLiveness(t *testing.T) *livenessRun {
	t.Helper()
	s, inputs := livenessSession(t)
	rw, err := s.Rewriter()
	if err != nil {
		t.Fatal(err)
	}
	run := &livenessRun{s: s, rw: rw, inputs: inputs, fired: map[string]int{}}
	for _, in := range inputs {
		plan, fired := rewriteTraced(t, rw, in)
		for _, name := range fired {
			run.fired[name]++
		}
		run.plans = append(run.plans, plan)
		run.answers = append(run.answers, answer(t, s, in.name, in.plan))
	}
	return run
}

// sortedRules lists the rule names of rw's base.
func sortedRules(rw *Rewriter) []string {
	var names []string
	for name := range rw.RS.Rules {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// TestRuleLiveness: every rule of the default base applies at least once
// on the liveness corpus. A rule no input fires is one nothing checks: a
// typo in its left-hand side, or a change to what translate emits, would
// go unnoticed.
func TestRuleLiveness(t *testing.T) {
	run := runLiveness(t)
	var dead []string
	for _, name := range sortedRules(run.rw) {
		if run.fired[name] == 0 {
			dead = append(dead, name)
		}
	}
	if len(dead) > 0 {
		t.Errorf("%d rule(s) of the default base apply to no input of testdata/%s or builtInputs: %s",
			len(dead), livenessCorpus, strings.Join(dead, ", "))
	}
}

// TestLivenessDifferential: where the rules fire, the rewritten answer
// equals the unrewritten one, as bags. This is the soundness check of
// every shipped rule on an input that fires it, alexander included. The
// corpus declares no integrity constraint: a declared constraint the data
// violates makes member_include_incons unsound, which the write path does
// not yet prevent.
func TestLivenessDifferential(t *testing.T) {
	run := runLiveness(t)
	for i, in := range run.inputs {
		if got := answer(t, run.s, in.name, run.plans[i]); got != run.answers[i] {
			t.Errorf("%s: rewritten to %s answers %s, unrewritten %s", in.name, lera.Format(run.plans[i]), got, run.answers[i])
		}
	}
}

// TestRuleVerdicts is the ablation: it neutralises one rule of the default
// base at a time (a same-named WithRules rule that matches nothing),
// reruns the corpus and compares every plan and every answer with the
// full base's. A rule is needed when some plan changes; docs/RULES.md
// must name the first such input. A rule whose absence changes no plan is
// redundant: the other rules already produce its result. The paper's
// printed rules stay with their figure named; any other redundant rule is
// deleted, and its row says so. Plans are compared as terms, not as
// lera.Format text, which prints a nested ANDS flat.
func TestRuleVerdicts(t *testing.T) {
	run := runLiveness(t)
	docs := ruleVerdicts(t)
	for _, name := range sortedRules(run.rw) {
		ablated, err := New(run.s.Cat, WithRules("rule "+name+": ZZNEVER(x) --> x;"))
		if err != nil {
			t.Fatal(err)
		}
		changed := ""
		for i, in := range run.inputs {
			plan, _ := rewriteTraced(t, ablated, in)
			if changed == "" && !term.Equal(plan, run.plans[i]) {
				changed = in.name
			}
			if got := answer(t, run.s, in.name, plan); got != run.answers[i] {
				t.Errorf("without %s, %s answers %s, want %s", name, in.name, got, run.answers[i])
			}
		}
		want, ok := "needed: `"+changed+"`", strings.HasPrefix(docs[name], "needed: `"+changed+"`")
		if changed == "" {
			want, ok = "paper-printed, redundant here (Figure N)", strings.HasPrefix(docs[name], "paper-printed, redundant here (Figure ")
		}
		if !ok {
			t.Errorf("docs/RULES.md gives %s the verdict %q; the ablation says %q", name, docs[name], want)
		}
		delete(docs, name)
	}
	for name, verdict := range docs {
		if !strings.HasPrefix(verdict, "deleted") && !strings.HasPrefix(verdict, "opt-in") {
			t.Errorf("docs/RULES.md gives %s the verdict %q, but the default base has no such rule", name, verdict)
		}
	}
}

// ruleVerdicts reads docs/RULES.md's rule tables: the last cell of every
// row whose first cell is one backquoted rule name.
func ruleVerdicts(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile("../../docs/RULES.md")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		name := cells[0]
		if len(cells) < 2 || len(name) < 3 || name[0] != '`' || name[len(name)-1] != '`' || strings.ContainsAny(name[1:len(name)-1], "` ") {
			continue
		}
		out[name[1:len(name)-1]] = cells[len(cells)-1]
	}
	return out
}
