// Package rulecheck vets a rewrite-rule base before it touches production
// queries. The paper's extensibility pitch is that a database implementor
// grows the optimizer by adding rules, never by recompiling the engine
// (§4) — which means a buggy rule silently corrupts every query it
// matches. rulecheck closes that gap with two independent halves:
//
//   - Static analysis (Lint): per-rule lints over a parsed rules.RuleSet —
//     unbound right-hand-side variables, constraints and methods that name
//     externals not registered in rewrite.Externals, function symbols with
//     inconsistent arity or unknown to the LERA/catalog vocabulary,
//     non-size-decreasing self-cycles (possible divergence) and the §4.2
//     termination analysis of saturating blocks, duplicate or shadowed
//     rules within a block, and dangling block/rule references.
//
//   - Differential semantic testing (Diff): generate a small deterministic
//     database from the catalog schemas, synthesize LERA terms the rules
//     match, execute the original and the rewritten term through
//     internal/engine under guard.Limits, and compare the results as
//     multisets. A counterexample — a term plus a database on which the
//     two plans disagree — is the diagnostic.
//
// Both halves report structured Diagnostics; see the code constants for
// the catalogue. docs/RULES.md ("Validating your rules") walks through a
// deliberately broken rule per check.
package rulecheck

import (
	"encoding/json"
	"fmt"
)

// Severity grades a diagnostic.
type Severity int

// Severities, least to most severe.
const (
	// SevInfo is advisory: the rule is unusual but may well be intended
	// (an open-vocabulary symbol, a guarded self-cycle, a dead rule).
	SevInfo Severity = iota
	// SevWarn is a likely mistake that the engine's guards still contain
	// (possible divergence, arity drift, a shadowed rule).
	SevWarn
	// SevError is a rule that cannot work as written or demonstrably
	// changes query semantics.
	SevError
)

func (s Severity) String() string {
	switch s {
	case SevInfo:
		return "info"
	case SevWarn:
		return "warn"
	case SevError:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", int(s))
}

// MarshalJSON renders the severity as its lowercase name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Diagnostic codes. RC0xx come from the static analysis, RC1xx from the
// differential tester.
const (
	// CodeUnboundRHS: a right-hand-side variable is bound by neither the
	// left-hand side nor any method call (methods may bind outputs).
	CodeUnboundRHS = "RC001"
	// CodeUnknownConstraint: a constraint names an external that is not
	// registered, not a built-in form (AND/OR/NOT/ISA/comparison) and not
	// a ground-evaluable ADT function.
	CodeUnknownConstraint = "RC002"
	// CodeUnknownMethod: a method call names an unregistered method.
	CodeUnknownMethod = "RC003"
	// CodeArity: a function symbol is applied with inconsistent arity
	// across the rule, or with an arity the LERA vocabulary / ADT library
	// fixes differently. An error when a right-hand side applies a LERA
	// operator with the wrong arity (the plan it builds is malformed), a
	// warning otherwise.
	CodeArity = "RC004"
	// CodeUnknownSymbol: a function symbol is unknown to the LERA
	// vocabulary, the catalog's ADT library and the registered externals.
	// Advisory only — implementors register new ADTs at runtime.
	CodeUnknownSymbol = "RC005"
	// CodeDivergence: the left-hand side matches (a skolemized copy of)
	// the rule's own right-hand side and the rule does not decrease term
	// size — a self-cycle that only budgets can stop.
	CodeDivergence = "RC006"
	// CodeShadowed: a block lists a rule twice, or two rules in one block
	// have identical left-hand sides and constraints (the later one can
	// only fire when the earlier one's methods veto).
	CodeShadowed = "RC007"
	// CodeUnknownBlock: the sequence references an undeclared block.
	CodeUnknownBlock = "RC008"
	// CodeUnknownRule: a block references an undeclared rule.
	CodeUnknownRule = "RC009"
	// CodeDeadRule: a rule is declared but referenced by no block, so the
	// sequenced optimizer can never apply it.
	CodeDeadRule = "RC010"
	// CodeNonDecreasing is the §4.2 termination analysis ("subsets of
	// rewriting rules can be isolated that either increase or decrease the
	// number of terms in a query"): a rule whose right-hand side is not
	// smaller than its left-hand side sits in a block with an infinite
	// limit, so budgets alone cannot guarantee termination; the engine's
	// no-change detection and DefaultMaxChecks cap still apply. Advisory —
	// right-hand sides calling optimizer builtins are sized syntactically.
	CodeNonDecreasing = "RC011"

	// CodeCounterexample: the original and the rewritten term produced
	// different results on a generated database.
	CodeCounterexample = "RC100"
	// CodeExecBroken: the original term executed but the rewritten term
	// failed to.
	CodeExecBroken = "RC101"
	// CodeNotExercised: no generated corpus term made the rule fire; the
	// differential tester has nothing to say about it.
	CodeNotExercised = "RC102"
	// CodeRewriteError: the rewrite engine itself errored while applying
	// the rule (an external panicked or a budget tripped mid-rewrite).
	CodeRewriteError = "RC103"
)

// Diagnostic is one finding about one rule (or about the rule-base
// structure, in which case Rule may be empty or name a block).
type Diagnostic struct {
	// Rule is the rule the finding is about ("(all)" for whole-rule-base
	// differential findings, a block name for block-structure findings).
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	Code     string   `json:"code"`
	// Site locates the finding: a source position ("12:3") when the rule
	// carries one, plus the rule part ("rhs", "constraint 2", "method 1",
	// "block push", "seq") or the corpus query a counterexample came from.
	Site string `json:"site,omitempty"`
	Msg  string `json:"msg"`
}

func (d Diagnostic) String() string {
	site := ""
	if d.Site != "" {
		site = " (" + d.Site + ")"
	}
	who := d.Rule
	if who == "" {
		who = "rule base"
	}
	return fmt.Sprintf("%s %s %s%s: %s", d.Severity, d.Code, who, site, d.Msg)
}

// Count returns how many diagnostics have the given severity.
func Count(ds []Diagnostic, sev Severity) int {
	n := 0
	for _, d := range ds {
		if d.Severity == sev {
			n++
		}
	}
	return n
}
