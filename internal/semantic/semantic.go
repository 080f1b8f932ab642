// Package semantic implements the semantic rewriting of Section 6:
// integrity constraints declared in the rule language (Figure 10) are
// compiled into qualification-augmentation rules; the implicit semantic
// knowledge of Figure 11 (transitivity, equality substitution, INCLUDE
// transitivity) and the predicate simplification rules of Figure 12
// (inconsistency detection, constant folding through EVALUATE) form the
// default semantic rule base.
//
// All rules operate on the canonical qualification form ANDS(SET(...)),
// whose set semantics make augmentation idempotent — the engine's
// no-change detection plus the block budgets of §4.2 bound the process,
// exactly the trade-off the paper's Section 7 discusses.
package semantic

import (
	"fmt"
	"strings"

	"lera/internal/lera"
	"lera/internal/rewrite"
	"lera/internal/rules"
	"lera/internal/term"
	"lera/internal/types"
	"lera/internal/value"
)

// SemanticRules is the default semantic rule base: Figure 11's implicit
// knowledge (block "semantic") and Figure 12's simplifications (block
// "simplify").
const SemanticRules = `
-- Figure 11 (1): transitivity of = and of INCLUDE. The DISTINCT and
-- NOTMEMBER guards keep the augmentation from re-deriving known facts.
rule transitivity_eq:
  ANDS(SET(w*, x = y, y = z))
  / DISTINCT(x, z), NOTMEMBER(x = z, w*)
  --> ANDS(SET(w*, x = y, y = z, x = z)) / ;

rule include_trans:
  ANDS(SET(w*, INCLUDE(x, y), INCLUDE(y, z)))
  / DISTINCT(x, z), NOTMEMBER(INCLUDE(x, z), w*)
  --> ANDS(SET(w*, INCLUDE(x, y), INCLUDE(y, z), INCLUDE(x, z))) / ;

-- Figure 11 (2): equality substitution for unary predicates.
rule eq_subst:
  ANDS(SET(w*, x = y, p(x)))
  / DISTINCT(x, y), NOTMEMBER(p(y), w*)
  --> ANDS(SET(w*, x = y, p(x), p(y))) / ;

-- Figure 12: predicate simplification.
rule gt_le_incons: ANDS(SET(w*, x > y, x <= y)) --> FALSE ;
rule lt_ge_incons: ANDS(SET(w*, x < y, x >= y)) --> FALSE ;
rule eq_neq_incons: ANDS(SET(w*, x = y, x <> y)) --> FALSE ;
rule and_false: ANDS(SET(w*, FALSE)) --> FALSE ;
rule and_true: ANDS(SET(w*, TRUE)) --> ANDS(SET(w*)) ;
rule or_true: ORS(SET(w*, TRUE)) --> TRUE ;
rule or_false: ORS(SET(w*, FALSE)) --> ORS(SET(w*)) ;
rule not_true: NOT(TRUE) --> FALSE ;
rule not_false: NOT(FALSE) --> TRUE ;
rule sub_zero: x - y = 0 / ISA(x, constant), ISA(y, constant) --> x = y / ;

-- Figure 12's generic constant folding: any pure ADT function applied to
-- constants evaluates at rewrite time.
rule const_fold2: F(x, y) / ISA(x, constant), ISA(y, constant), PUREFN(F(x, y)) --> a / EVALUATE(F(x, y), a) ;
rule const_fold1: F(x) / ISA(x, constant), PUREFN(F(x)) --> a / EVALUATE(F(x), a) ;

-- Section 6.1: a membership test against a declared domain whose
-- enumeration excludes the constant is inconsistent
-- (MEMBER('Cartoon', Categories) is false).
rule member_enum_incons:
  ANDS(SET(w*, MEMBER(c, x)))
  / ISA(c, constant), ENUMEXCLUDES(c, x)
  --> FALSE ;

-- Explicit-knowledge variant: when an INCLUDE(x, dom) constraint has been
-- added (Figure 10) and the constant is outside dom, the qualification is
-- inconsistent.
rule member_include_incons:
  ANDS(SET(w*, MEMBER(c, x), INCLUDE(x, d)))
  / ISA(c, constant), ISA(d, constant), NOT MEMBER(c, d)
  --> FALSE ;

block(semantic, {transitivity_eq, include_trans, eq_subst}, 200);
block(simplify, {and_false, and_true, or_true, or_false, not_true, not_false,
                 gt_le_incons, lt_ge_incons, eq_neq_incons, sub_zero,
                 member_enum_incons, member_include_incons,
                 const_fold2, const_fold1}, inf);
`

// RuleSet parses the semantic rule base.
func RuleSet() *rules.RuleSet { return rules.MustParse(SemanticRules) }

// RegisterExternals installs the semantic externals: PUREFN, ENUMEXCLUDES
// and TYPEDSUB (used by compiled integrity constraints).
func RegisterExternals(ext *rewrite.Externals) {
	ext.RegisterConstraint("PUREFN", pureFn)
	ext.RegisterConstraint("ENUMEXCLUDES", enumExcludes)
	ext.RegisterMethod("TYPEDSUB", typedSub)
}

// pureFn is true when the instantiated application's head is a registered
// pure ADT function — constructors and the logical connectives are
// excluded, so constant folding cannot destroy qualification structure.
func pureFn(ctx *rewrite.Ctx, args []*term.Term) (bool, error) {
	if len(args) != 1 || args[0].Kind != term.Fun {
		return false, fmt.Errorf("PUREFN takes one application")
	}
	f := args[0].Functor
	if args[0].VarHead || term.IsConstructor(f) {
		return false, nil
	}
	switch f {
	case lera.EAnds, lera.EOrs, lera.ENot, lera.EAttr, lera.ECall, lera.EValue, lera.EProject:
		return false, nil
	}
	return ctx.Cat.ADTs.IsPure(f), nil
}

// enumExcludes(c, x) is true when x's type (at the match site) is an
// enumeration, or a collection of an enumeration, whose values do not
// include the constant c — the implicit domain knowledge of Section 6.1.
func enumExcludes(ctx *rewrite.Ctx, args []*term.Term) (bool, error) {
	if len(args) != 2 {
		return false, fmt.Errorf("ENUMEXCLUDES takes (const, expr)")
	}
	c, x := args[0], args[1]
	if c.Kind != term.Const || c.Val.K != value.KString {
		return false, nil
	}
	rels, err := ctx.EnclosingRels()
	if err != nil {
		return false, nil
	}
	xt, err := lera.TypeOf(x, rels, ctx.Cat)
	if err != nil || xt == nil {
		return false, nil
	}
	enum := xt
	if xt.Kind == types.Collection && xt.Elem != nil {
		enum = xt.Elem
	}
	if enum.Kind != types.Enum {
		return false, nil
	}
	return !enum.HasEnumValue(c.Val.S), nil
}

// typedSub implements TYPEDSUB(f, 'T', x): bind x to the first subterm of
// the conjunct f whose inferred type ISA T (attribute references, VALUE,
// PROJECT and CALL expressions — constants are skipped, as literals do not
// carry user types). Vetoes when f has no such subterm. This is the
// mechanism by which a Figure 10 constraint "F(x) / ISA(x, T) --> F(x) AND
// P(x)" finds its x inside an arbitrary conjunct.
func typedSub(ctx *rewrite.Ctx, args []*term.Term) (bool, error) {
	if len(args) != 3 {
		return false, fmt.Errorf("TYPEDSUB takes (conjunct, type, out)")
	}
	f := args[0]
	tname := args[1]
	out := args[2]
	if tname.Kind != term.Const || tname.Val.K != value.KString {
		return false, fmt.Errorf("TYPEDSUB: type name must be a constant")
	}
	if out.Kind != term.Var {
		return false, fmt.Errorf("TYPEDSUB: output must be an unbound variable")
	}
	want, ok := ctx.Cat.Types.Lookup(tname.Val.S)
	if !ok {
		return false, nil
	}
	rels, err := ctx.EnclosingRels()
	if err != nil {
		return false, nil
	}
	var found *term.Term
	term.Visit(f, func(s *term.Term) bool {
		if s.Kind != term.Fun {
			return true
		}
		switch s.Functor {
		case lera.EAttr, lera.EValue, lera.EProject, lera.ECall:
			if t, err := lera.TypeOf(s, rels, ctx.Cat); err == nil && t != nil && ctx.Cat.Types.ISA(t, want) {
				found = s
				return false
			}
		}
		return true
	})
	if found == nil {
		return false, nil
	}
	ctx.Bind.BindVar(out.Name, found)
	return true, nil
}

// CompileConstraint compiles a Figure 10 integrity constraint
//
//	rule name: F(x) / ISA(x, T) --> F(x) AND P /
//
// into the guarded qualification-augmentation rule
//
//	rule name: ANDS(SET(w0*, f0)) / <other constraints>
//	           --> ANDS(SET(w0*, f0, P)) / TYPEDSUB(f0, 'T', x)
//
// which adds P to any qualification containing a conjunct with a
// T-typed subterm (bound to x). The paper's Figure 11(3) subclass
// substitution holds automatically because TYPEDSUB's ISA check accepts
// subtypes of T.
func CompileConstraint(r *rules.Rule) (*rules.Rule, error) {
	lhs := r.LHS
	if lhs.Kind != term.Fun || !lhs.VarHead || len(lhs.Args) != 1 || lhs.Args[0].Kind != term.Var {
		return nil, fmt.Errorf("semantic: constraint %s: left-hand side must be F(x) with a function variable", r.Name)
	}
	xName := lhs.Args[0].Name
	// Find the ISA(x, T) constraint.
	var typeName string
	var others []*term.Term
	for _, c := range r.Constraints {
		if c.Kind == term.Fun && strings.EqualFold(c.Functor, "ISA") && len(c.Args) == 2 &&
			c.Args[0].Kind == term.Var && c.Args[0].Name == xName &&
			c.Args[1].Kind == term.Const {
			typeName = c.Args[1].Val.S
			continue
		}
		others = append(others, c)
	}
	if typeName == "" {
		return nil, fmt.Errorf("semantic: constraint %s: missing ISA(%s, T) condition", r.Name, xName)
	}
	// RHS must be AND(lhs, P).
	rhs := r.RHS
	if rhs.Kind != term.Fun || rhs.Functor != "AND" || len(rhs.Args) != 2 || !term.Equal(rhs.Args[0], lhs) {
		return nil, fmt.Errorf("semantic: constraint %s: right-hand side must be %s AND <predicate>", r.Name, lhs)
	}
	pred := rhs.Args[1]

	// Fresh variable names for the guard.
	used := map[string]bool{}
	seqs := map[string]bool{}
	funs := map[string]bool{}
	for _, t := range append([]*term.Term{lhs, rhs}, r.Constraints...) {
		t.Vars(used, seqs, funs)
	}
	fresh := func(base string) string {
		for i := 0; i < 10; i++ {
			cand := base[:1] + string(rune('0'+i))
			if !used[cand] && !seqs[cand] {
				used[cand] = true
				return cand
			}
		}
		return base
	}
	wName := fresh("w0")
	fName := fresh("f0")

	newLHS := term.F(lera.EAnds, term.Set(term.SV(wName), term.V(fName)))
	newRHS := term.F(lera.EAnds, term.Set(term.SV(wName), term.V(fName), pred))
	methods := append([]*term.Term{
		term.F("TYPEDSUB", term.V(fName), term.Str(typeName), term.V(xName)),
	}, r.Methods...)
	return &rules.Rule{
		Name:        r.Name,
		LHS:         newLHS,
		Constraints: others,
		RHS:         newRHS,
		Methods:     methods,
	}, nil
}

// ParseConstraints parses Figure 10-style constraint declarations and
// compiles them; the result is a rule set with a single block
// "constraints" holding every compiled rule (bounded, per §7).
func ParseConstraints(src string, limit int) (*rules.RuleSet, error) {
	raw, err := rules.Parse(src)
	if err != nil {
		return nil, err
	}
	out := rules.NewRuleSet()
	var names []string
	for _, name := range raw.RuleOrder {
		compiled, err := CompileConstraint(raw.Rules[name])
		if err != nil {
			return nil, err
		}
		out.Rules[name] = compiled
		out.RuleOrder = append(out.RuleOrder, name)
		names = append(names, name)
	}
	out.Blocks["constraints"] = &rules.Block{Name: "constraints", Rules: names, Limit: limit}
	out.BlockOrder = append(out.BlockOrder, "constraints")
	return out, nil
}
