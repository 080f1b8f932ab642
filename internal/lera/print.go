package lera

// The paper-style concrete printer: SEARCH terms print as
//
//	search((APPEARS_IN, FILM), [1.1=2.1 ∧ name(1.2)='Quinn'], (2.2, 2.3, salary(1.2)))
//
// matching the §3.1 notation (modulo whitespace normalisation, which
// EXPERIMENTS.md documents). Format is used by the tools, the EXPLAIN
// trace and the figure-reproduction golden tests.

import (
	"strings"

	"lera/internal/term"
	"lera/internal/value"
)

// Format renders a LERA term in the paper's concrete syntax.
func Format(t *term.Term) string {
	var sb strings.Builder
	formatExpr(&sb, t)
	return sb.String()
}

func formatExpr(sb *strings.Builder, t *term.Term) {
	if t == nil {
		sb.WriteString("<nil>")
		return
	}
	switch t.Kind {
	case term.Const:
		sb.WriteString(t.Val.String())
		return
	case term.Var:
		sb.WriteString(t.Name)
		return
	case term.SeqVar:
		sb.WriteString(t.Name + "*")
		return
	}
	switch t.Functor {
	case OpRel:
		if n, ok := RelName(t); ok {
			sb.WriteString(n)
			return
		}
	case OpSearch:
		if len(t.Args) == 3 {
			sb.WriteString("search(")
			formatParenList(sb, t.Args[0].Args)
			sb.WriteString(", ")
			formatQualBracketed(sb, t.Args[1])
			sb.WriteString(", ")
			formatParenList(sb, t.Args[2].Args)
			sb.WriteString(")")
			return
		}
	case OpFilter:
		if len(t.Args) == 2 {
			sb.WriteString("filter(")
			formatExpr(sb, t.Args[0])
			sb.WriteString(", ")
			formatQualBracketed(sb, t.Args[1])
			sb.WriteString(")")
			return
		}
	case OpJoin:
		if len(t.Args) == 3 {
			sb.WriteString("join(")
			formatExpr(sb, t.Args[0])
			sb.WriteString(", ")
			formatExpr(sb, t.Args[1])
			sb.WriteString(", ")
			formatQualBracketed(sb, t.Args[2])
			sb.WriteString(")")
			return
		}
	case OpUnion, OpInter:
		if len(t.Args) == 1 && IsOp(t.Args[0], term.FSet) {
			if t.Functor == OpUnion {
				sb.WriteString("union({")
			} else {
				sb.WriteString("inter({")
			}
			formatList(sb, t.Args[0].Args)
			sb.WriteString("})")
			return
		}
	case OpDiff:
		if len(t.Args) == 2 {
			sb.WriteString("diff(")
			formatExpr(sb, t.Args[0])
			sb.WriteString(", ")
			formatExpr(sb, t.Args[1])
			sb.WriteString(")")
			return
		}
	case OpFix:
		if len(t.Args) == 3 {
			sb.WriteString("fix(")
			sb.WriteString(rawString(t.Args[0]))
			sb.WriteString(", ")
			formatExpr(sb, t.Args[1])
			sb.WriteString(")")
			return
		}
	case OpLet:
		if len(t.Args) == 3 {
			sb.WriteString("let(")
			sb.WriteString(rawString(t.Args[0]))
			sb.WriteString(" = ")
			formatExpr(sb, t.Args[1])
			sb.WriteString(" in ")
			formatExpr(sb, t.Args[2])
			sb.WriteString(")")
			return
		}
	case OpNest:
		if len(t.Args) == 3 {
			sb.WriteString("nest(")
			formatExpr(sb, t.Args[0])
			sb.WriteString(", ")
			formatParenList(sb, t.Args[1].Args)
			sb.WriteString(", ")
			sb.WriteString(rawString(t.Args[2]))
			sb.WriteString(")")
			return
		}
	case OpUnnest:
		if len(t.Args) == 2 {
			sb.WriteString("unnest(")
			formatExpr(sb, t.Args[0])
			sb.WriteString(", ")
			formatExpr(sb, t.Args[1])
			sb.WriteString(")")
			return
		}
	case EAttr:
		if i, j, ok := AttrIdx(t); ok {
			sb.WriteString(itoa(i))
			sb.WriteString(".")
			sb.WriteString(itoa(j))
			return
		}
	case ECall:
		if name, ok := CallName(t); ok {
			sb.WriteString(strings.ToLower(name))
			sb.WriteString("(")
			formatList(sb, t.Args[1:])
			sb.WriteString(")")
			return
		}
	case EProject:
		if len(t.Args) == 2 {
			sb.WriteString("PROJECT(")
			formatExpr(sb, t.Args[0])
			sb.WriteString(", ")
			sb.WriteString(rawString(t.Args[1]))
			sb.WriteString(")")
			return
		}
	case EAnds, EOrs:
		if len(t.Args) == 1 {
			formatQual(sb, t)
			return
		}
	case ENot:
		if len(t.Args) == 1 {
			sb.WriteString("¬(")
			formatExpr(sb, t.Args[0])
			sb.WriteString(")")
			return
		}
	case "=", "<>", "<", ">", "<=", ">=":
		if len(t.Args) == 2 {
			formatExpr(sb, t.Args[0])
			sb.WriteString(t.Functor)
			formatExpr(sb, t.Args[1])
			return
		}
	case "+", "-", "*", "/":
		if len(t.Args) == 2 {
			sb.WriteString("(")
			formatExpr(sb, t.Args[0])
			sb.WriteString(" " + t.Functor + " ")
			formatExpr(sb, t.Args[1])
			sb.WriteString(")")
			return
		}
	case term.FSet:
		sb.WriteString("{")
		formatList(sb, t.Args)
		sb.WriteString("}")
		return
	case term.FList, term.FTuple:
		sb.WriteString("(")
		formatList(sb, t.Args)
		sb.WriteString(")")
		return
	}
	// Generic application: ADT functions print lower-case except the
	// conversion functions the paper capitalises.
	sb.WriteString(lowerFunctor(t.Functor))
	sb.WriteString("(")
	formatList(sb, t.Args)
	sb.WriteString(")")
}

// formatQual renders a qualification without brackets: conjuncts joined
// by " ∧ ", disjuncts by " ∨ ", TRUE/FALSE for empty.
func formatQual(sb *strings.Builder, q *term.Term) {
	switch {
	case IsOp(q, EAnds) && len(q.Args) == 1:
		cs := q.Args[0].Args
		if len(cs) == 0 {
			sb.WriteString("true")
			return
		}
		for i, c := range cs {
			if i > 0 {
				sb.WriteString(" ∧ ")
			}
			formatJunct(sb, c, len(cs) > 1)
		}
	case IsOp(q, EOrs) && len(q.Args) == 1:
		ds := q.Args[0].Args
		if len(ds) == 0 {
			sb.WriteString("false")
			return
		}
		for i, d := range ds {
			if i > 0 {
				sb.WriteString(" ∨ ")
			}
			formatJunct(sb, d, len(ds) > 1)
		}
	default:
		formatExpr(sb, q)
	}
}

// formatJunct renders one conjunct or disjunct of a qualification, in
// parentheses when it is a conjunction or disjunction itself beside others:
// x > 1 AND (x = 2 OR x = 3) must not read as (x > 1 AND x = 2) OR x = 3.
// Alone, as the one conjunct a SEARCH's ORS sits in, it needs none.
func formatJunct(sb *strings.Builder, t *term.Term, siblings bool) {
	if siblings && (IsOp(t, EAnds) || IsOp(t, EOrs)) && len(t.Args) == 1 {
		sb.WriteString("(")
		formatQual(sb, t)
		sb.WriteString(")")
		return
	}
	formatExpr(sb, t)
}

func formatQualBracketed(sb *strings.Builder, q *term.Term) {
	sb.WriteString("[")
	formatQual(sb, q)
	sb.WriteString("]")
}

func formatList(sb *strings.Builder, ts []*term.Term) {
	for i, t := range ts {
		if i > 0 {
			sb.WriteString(", ")
		}
		formatExpr(sb, t)
	}
}

func formatParenList(sb *strings.Builder, ts []*term.Term) {
	sb.WriteString("(")
	formatList(sb, ts)
	sb.WriteString(")")
}

// rawString renders a constant string without quotes (relation and field
// names in operator positions).
func rawString(t *term.Term) string {
	if t.Kind == term.Const && t.Val.K == value.KString {
		return t.Val.S
	}
	return t.String()
}

func itoa(i int) string {
	if i >= 0 && i < 10 {
		return string(rune('0' + i))
	}
	var digits []byte
	neg := i < 0
	if neg {
		i = -i
	}
	for i > 0 {
		digits = append([]byte{byte('0' + i%10)}, digits...)
		i /= 10
	}
	if neg {
		return "-" + string(digits)
	}
	return string(digits)
}
