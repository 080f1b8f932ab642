package rules_test

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"lera/internal/core"
	"lera/internal/lopt"
	"lera/internal/magic"
	"lera/internal/rules"
	"lera/internal/semantic"
)

// FuzzParseRules: the rule parser reads untrusted text (rulecheck --rules,
// WithRules). On any input it must not panic, and an error comes with a nil
// rule set. A rule set it accepts must survive its own rendering: each
// rule's String() parses back to the same text, and the whole set rendered
// in the concrete syntax parses back to an equal Fingerprint, so a rule
// base's fingerprint does not depend on how its source was laid out. Seeds:
// every shipped rule base and the examples of docs/RULES.md.
func FuzzParseRules(f *testing.F) {
	for _, src := range []string{
		lopt.SyntacticRules, semantic.SemanticRules, core.TypecheckRules,
		magic.FixpointRules, core.DefaultSequence,
		// A block whose one rule binds its outputs in a method call, with
		// an empty condition on both sides, and a sequence that names it.
		`
rule join_order:
  SEARCH(z, q, a)
  / -->
  SEARCH(z2, q2, a2)
  / JOINORDER(z, q, a, z2, q2, a2) ;

block(planning, {join_order}, inf);
seq({typecheck, normalize, merge, push, fixpoint, merge, constraints, semantic, simplify, merge, planning}, 2);
`,
		// Operators in the prefix form a term renders them in, and reals
		// that render with an exponent.
		"rule r: FOO(=(x, y), -(x, 2), NEG(-(x))) / *(x, 2) > 1e-07 --> BAR(/(x, 1e+21), 'it''s') / ;",
	} {
		f.Add(src)
	}
	if b, err := os.ReadFile("../../examples/extensibility/extension.rules"); err == nil {
		f.Add(string(b))
	} else {
		f.Fatal(err)
	}
	doc, err := os.ReadFile("../../docs/RULES.md")
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range regexp.MustCompile("(?s)```\n(.*?)```").FindAllStringSubmatch(string(doc), -1) {
		f.Add(m[1])
	}
	f.Fuzz(func(t *testing.T, src string) {
		rs, err := rules.Parse(src)
		if err != nil {
			if rs != nil {
				t.Fatalf("error %v came with a rule set", err)
			}
			return
		}
		for _, name := range rs.RuleOrder {
			text := rs.Rules[name].String()
			again, err := rules.Parse("rule " + text + ";")
			if err != nil {
				t.Fatalf("rule %s does not parse back: %v", text, err)
			}
			if got := again.Rules[name].String(); got != text {
				t.Fatalf("rule %s parses back as %s", text, got)
			}
		}
		again, err := rules.Parse(render(rs))
		if err != nil {
			t.Fatalf("rendered rule set does not parse back: %v\n%s", err, render(rs))
		}
		if again.Fingerprint() != rs.Fingerprint() {
			t.Fatalf("fingerprint changed on re-parse:\n%s", render(rs))
		}
	})
}

// render writes rs in the concrete syntax.
func render(rs *rules.RuleSet) string {
	var sb strings.Builder
	for _, n := range rs.RuleOrder {
		fmt.Fprintf(&sb, "rule %s;\n", rs.Rules[n])
	}
	limit := func(n int) string {
		if n == rules.Infinite {
			return "inf"
		}
		return fmt.Sprint(n)
	}
	for _, n := range rs.BlockOrder {
		b := rs.Blocks[n]
		fmt.Fprintf(&sb, "block(%s, {%s}, %s);\n", b.Name, strings.Join(b.Rules, ", "), limit(b.Limit))
	}
	if s := rs.Sequence; s != nil {
		fmt.Fprintf(&sb, "seq({%s}, %s);\n", strings.Join(s.Blocks, ", "), limit(s.Limit))
	}
	return sb.String()
}
