package lopt

import (
	"lera/internal/rewrite"
	"lera/internal/rules"
)

// SyntacticRules is the default syntactic rule base, written in the
// paper's rule language: normalisation of basic operators into the
// canonical compound forms, the Figure 7 merging rules and the Figure 8
// permutation rules. The blocks are assembled into the full optimizer
// sequence by internal/core.
const SyntacticRules = `
-- normalisation: binary connectives into canonical n-ary forms, basic
-- operators (filter, join) into the compound search (§3.1)
rule and_norm: AND(f, g) --> ANDMERGE(f, g);
rule or_norm: OR(f, g) --> ORMERGE(f, g);
rule ands_in_ands: ANDS(SET(w*, ANDS(z))) --> ANDS(SET-UNION(w*, z));
rule filter_to_search: FILTER(r, q) --> SEARCH(LIST(r), q, p9) / IDPROJ(r, p9);
rule join_to_search: JOIN(r, s, q) --> SEARCH(LIST(r, s), q, p9) / IDPROJ(r, s, p9);

-- Figure 7: operation merging. Two successive searches merge; their
-- qualifications are connected by "and" after SUBSTITUTE remaps the
-- outer references through the inner projection and SHIFT rebases the
-- inner qualification (the paper's substitute function, with the match
-- context passed explicitly).
rule search_merge:
  SEARCH(LIST(x*, SEARCH(z, g, b), v*), f, a)
  / -->
  SEARCH(APPENDL(x*, v*, z), ANDMERGE(f2, g2), a2)
  / SUBSTITUTE(f, x*, v*, z, b, f2), SHIFT(g, x*, v*, z, g2), SUBSTITUTE(a, x*, v*, z, b, a2) ;

rule union_merge: UNIONN(SET(x*, UNIONN(z))) --> UNIONN(SET-UNION(x*, z));
rule union_single: UNIONN(SET(u)) --> u;

-- Redundant sub-query elimination (§1): a search that neither filters nor
-- reshapes its single operand is the identity and disappears.
rule search_identity: SEARCH(LIST(r), q, e) / ISTRUEQ(q), ISIDPROJ(e, r) --> r;

-- Figure 8: operation permutation. A search over a union splits into a
-- union of searches (binary in the paper; n-ary unions peel one member
-- per application here). A search over a nest pushes the conjuncts that
-- REFER only to non-nested attributes inside the nest.
rule push_union:
  SEARCH(LIST(x*, UNIONN(SET(u, v, w*)), y*), f, a)
  / -->
  UNIONN(SET(
     SEARCH(APPENDL(x*, LIST(u), y*), f, a),
     SEARCH(APPENDL(x*, LIST(UNIONN(SET(v, w*))), y*), f, a)))
  / ;

rule push_nest:
  SEARCH(LIST(x*, NEST(z, a, b), y*), q, e)
  / -->
  SEARCH(LIST(x*, NEST(SEARCH(z2, q2, e2), a, b), y*), q3, e)
  / PUSHNEST(q, x*, z, a, b, q2, q3, e2, z2) ;

-- Under set semantics a selection commutes with difference on its left
-- operand and with intersection on any operand:
--   σq(u − v) = σq(u) − v        σq(u ∩ v) = σq(u) ∩ v
-- The NOT ISTRUEQ guard stops re-application once the qualification has
-- moved inside.
rule push_diff:
  SEARCH(LIST(DIFF(u, v)), q, a)
  / NOT ISTRUEQ(q)
  --> SEARCH(LIST(DIFF(SEARCH(LIST(u), q, p9), v)), ANDS(SET()), a)
  / IDPROJ(u, p9) ;

rule push_inter:
  SEARCH(LIST(INTERN(SET(u, w*))), q, a)
  / NOT ISTRUEQ(q)
  --> SEARCH(LIST(INTERN(SET(SEARCH(LIST(u), q, p9), w*))), ANDS(SET()), a)
  / IDPROJ(u, p9) ;

block(normalize, {and_norm, or_norm, ands_in_ands, filter_to_search, join_to_search}, inf);
block(merge, {union_merge, union_single, search_merge, search_identity}, inf);
block(push, {push_union, push_nest, push_diff, push_inter}, inf);
`

// RuleSet parses the syntactic rule base.
func RuleSet() *rules.RuleSet { return rules.MustParse(SyntacticRules) }

// Externals returns a fresh externals registry with both the generic and
// the syntactic externals installed.
func Externals() *rewrite.Externals {
	ext := rewrite.NewExternals()
	RegisterExternals(ext)
	return ext
}
