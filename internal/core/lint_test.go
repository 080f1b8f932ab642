package core

import (
	"strings"
	"testing"

	"lera/internal/catalog"
	"lera/internal/rulecheck"
	"lera/internal/term"
)

// TestBuiltinRuleBaseLint checks the assembled default rule base for
// internal consistency: every block referenced by the sequence exists,
// every method call names a registered method, and every constraint is
// either a known special form (comparisons, connectives, ISA, ground
// evaluation of pure ADT functions) or a registered constraint function.
// This is the drift check between rule text and Go externals.
func TestBuiltinRuleBaseLint(t *testing.T) {
	rw, err := New(catalog.New())
	if err != nil {
		t.Fatal(err)
	}
	if err := rw.RS.Validate(); err != nil {
		t.Fatal(err)
	}
	inBlocks := map[string]bool{}
	for _, b := range rw.RS.Blocks {
		for _, rn := range b.Rules {
			inBlocks[rn] = true
		}
	}
	knownConstraintForms := map[string]bool{
		"AND": true, "OR": true, "NOT": true, "ISA": true,
		"=": true, "<>": true, "<": true, ">": true, "<=": true, ">=": true,
		"MEMBER": true, // ground-evaluable through the ADT registry
	}
	for name, r := range rw.RS.Rules {
		if !inBlocks[name] {
			t.Errorf("rule %q is in no block (dead rule)", name)
		}
		for _, m := range r.Methods {
			if m.Kind != term.Fun || m.VarHead {
				t.Errorf("rule %q: method %s is not a fixed-head call", name, m)
				continue
			}
			if !rw.Ext.HasMethod(m.Functor) {
				t.Errorf("rule %q: method %q is not registered", name, m.Functor)
			}
		}
		for _, c := range r.Constraints {
			if c.Kind != term.Fun {
				continue
			}
			if c.VarHead || knownConstraintForms[strings.ToUpper(c.Functor)] {
				continue
			}
			if !rw.Ext.HasConstraint(c.Functor) {
				t.Errorf("rule %q: constraint %q is not registered", name, c.Functor)
			}
		}
		// Right-hand sides may only call builtins where a builtin is
		// clearly intended (upper bound check: any non-constructor,
		// non-LERA functor that IS registered as builtin is fine; we
		// just ensure the known builtins used in text exist).
		term.Walk(r.RHS, func(s *term.Term, _ term.Path) bool {
			if s.Kind == term.Fun && !s.VarHead {
				switch s.Functor {
				case "APPENDL", "ANDMERGE", "ORMERGE", "SET-UNION", "MKCALL":
					if !rw.Ext.HasBuiltin(s.Functor) {
						t.Errorf("rule %q: builtin %q is not registered", name, s.Functor)
					}
				}
			}
			return true
		})
	}
	// The sequence must reference every phase block exactly as DESIGN.md
	// documents.
	want := []string{"typecheck", "normalize", "merge", "push", "fixpoint", "merge", "constraints", "semantic", "simplify", "merge"}
	if strings.Join(rw.RS.Sequence.Blocks, ",") != strings.Join(want, ",") {
		t.Errorf("sequence = %v, want %v", rw.RS.Sequence.Blocks, want)
	}
}

// TestDefaultRuleInventory pins the default rule census by name, block by
// block in declaration order: adding, removing or reordering a built-in
// rule must be a conscious act. docs/RULES.md gives every one a verdict
// (TestRuleVerdicts), and the liveness corpus fires every one
// (TestRuleLiveness).
func TestDefaultRuleInventory(t *testing.T) {
	rw, err := New(catalog.New())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"typecheck":   "call_object_field call_tuple_field call_coll_field call_adt",
		"normalize":   "and_norm or_norm ands_in_ands filter_to_search join_to_search",
		"merge":       "union_merge union_single search_merge search_identity",
		"push":        "push_union push_nest push_diff push_inter",
		"fixpoint":    "alexander",
		"constraints": "",
		"semantic":    "transitivity_eq include_trans eq_subst",
		"simplify": "and_false and_true or_true or_false not_true not_false gt_le_incons lt_ge_incons eq_neq_incons sub_zero " +
			"member_enum_incons member_include_incons const_fold2 const_fold1",
	}
	inBlocks := 0
	for _, b := range rw.RS.Blocks {
		if got := strings.Join(b.Rules, " "); got != want[b.Name] {
			t.Errorf("block %q holds %q, want %q", b.Name, got, want[b.Name])
		}
		inBlocks += len(b.Rules)
	}
	if len(rw.RS.Blocks) != len(want) || len(rw.RS.Rules) != inBlocks || inBlocks != 35 {
		t.Errorf("%d blocks holding %d of %d rules, want %d blocks holding all 35", len(rw.RS.Blocks), inBlocks, len(rw.RS.Rules), len(want))
	}
	// Every default rule's LHS must be a well-formed pattern (parse
	// already guarantees functional LHS; re-assert as a guard).
	for name, r := range rw.RS.Rules {
		if r.LHS.Kind != term.Fun {
			t.Errorf("rule %q LHS not functional", name)
		}
	}
}

// An implementor's extension is audited by the same lint that \check and
// cmd/rulecheck run: a growing rule in a saturating block gets the §4.2
// termination advisory, a rule no block lists is reported dead — both
// info-level, so the rule base still loads under WithRuleCheck.
func TestRuleCheckReportsTerminationAndDeadRules(t *testing.T) {
	rw, err := New(catalog.New(), WithRuleCheck(), WithRules(`
rule grower: TINYF(x) --> BIGF(x, x);
block(growers, {grower}, inf);
rule orphan: ORPH(x) --> ORPH2(x);
`))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct{ code, rule string }{
		{rulecheck.CodeNonDecreasing, "grower"},
		{rulecheck.CodeDeadRule, "orphan"},
	} {
		found := false
		for _, d := range rw.CheckDiagnostics() {
			found = found || (d.Code == want.code && d.Rule == want.rule && d.Severity == rulecheck.SevInfo)
		}
		if !found {
			t.Errorf("no info-level %s for rule %q in %v", want.code, want.rule, rw.CheckDiagnostics())
		}
	}
}
