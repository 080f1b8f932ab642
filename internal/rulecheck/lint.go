package rulecheck

import (
	"fmt"
	"sort"
	"strings"

	"lera/internal/catalog"
	"lera/internal/lera"
	"lera/internal/rewrite"
	"lera/internal/rules"
	"lera/internal/term"
)

// leraArity fixes the arity of the LERA operator and expression
// vocabulary (internal/lera) plus the fixed-arity rule-language forms.
// Symbols with variable arity (CALL, AND, OR in qualifications) are
// deliberately absent.
var leraArity = map[string]int{
	lera.OpRel: 1, lera.OpSearch: 3, lera.OpFilter: 2, lera.OpJoin: 3,
	lera.OpUnion: 1, lera.OpInter: 1, lera.OpDiff: 2,
	lera.OpFix: 3, lera.OpNest: 3, lera.OpUnnest: 2, lera.OpLet: 3,
	lera.EAttr: 2, lera.EValue: 1, lera.EProject: 2,
	lera.EAnds: 1, lera.EOrs: 1, lera.ENot: 1,
	"ISA": 2, "NEG": 1,
	"=": 2, "<>": 2, "<": 2, ">": 2, "<=": 2, ">=": 2,
}

// variadicVocab are known symbols with no fixed arity (the rule language
// writes AND/OR as binary but the evaluator folds them variadically).
var variadicVocab = map[string]bool{
	lera.ECall: true, "AND": true, "OR": true,
}

func isComparison(f string) bool {
	switch f {
	case "=", "<>", "<", ">", "<=", ">=":
		return true
	}
	return false
}

// Lint statically analyses a rule base. ext and cat are optional: a nil
// Externals skips the registered-external checks (RC002/RC003 degrade to
// vocabulary checks), a nil Catalog skips the ADT-library lookups.
func Lint(rs *rules.RuleSet, ext *rewrite.Externals, cat *catalog.Catalog) []Diagnostic {
	var ds []Diagnostic

	// Block structure: dangling rule references, duplicate listings,
	// shadowed rules, non-decreasing rules under an infinite limit
	// (RC007/RC009/RC011).
	for _, bn := range rs.BlockOrder {
		b := rs.Blocks[bn]
		seen := map[string]bool{}
		for _, rn := range b.Rules {
			r, ok := rs.Rules[rn]
			if !ok {
				ds = append(ds, Diagnostic{Rule: bn, Severity: SevError, Code: CodeUnknownRule,
					Site: blockSite(b), Msg: fmt.Sprintf("block %q references unknown rule %q", bn, rn)})
				continue
			}
			if seen[rn] {
				ds = append(ds, Diagnostic{Rule: bn, Severity: SevWarn, Code: CodeShadowed,
					Site: blockSite(b), Msg: fmt.Sprintf("block %q lists rule %q more than once", bn, rn)})
				continue
			}
			seen[rn] = true
			if b.Limit == rules.Infinite && !r.Decreasing() {
				ds = append(ds, Diagnostic{Rule: rn, Severity: SevInfo, Code: CodeNonDecreasing,
					Site: ruleSite(r, "block "+bn),
					Msg: fmt.Sprintf("rule in saturating block %q does not decrease term count (lhs %d, rhs %d nodes); termination relies on no-change detection",
						bn, r.LHS.Size(), r.RHS.Size())})
			}
		}
		for i := 1; i < len(b.Rules); i++ {
			ri, ok := rs.Rules[b.Rules[i]]
			if !ok {
				continue
			}
			for j := 0; j < i; j++ {
				rj, ok := rs.Rules[b.Rules[j]]
				if !ok || b.Rules[i] == b.Rules[j] {
					continue
				}
				if sameGuards(rj, ri) {
					ds = append(ds, Diagnostic{Rule: b.Rules[i], Severity: SevWarn, Code: CodeShadowed,
						Site: blockSite(b),
						Msg:  fmt.Sprintf("rule %q in block %q has the same left-hand side and constraints as earlier rule %q, which shadows it", b.Rules[i], bn, b.Rules[j])})
					break
				}
			}
		}
	}

	// Sequence structure (RC008).
	if rs.Sequence != nil {
		for _, bn := range rs.Sequence.Blocks {
			if _, ok := rs.Blocks[bn]; !ok {
				ds = append(ds, Diagnostic{Severity: SevError, Code: CodeUnknownBlock,
					Site: seqSite(rs.Sequence), Msg: fmt.Sprintf("seq references unknown block %q", bn)})
			}
		}
	}

	// Dead rules (RC010): only meaningful once blocks exist — a rule set
	// with no blocks runs as one implicit all-rules block.
	inBlock := map[string]bool{}
	for _, bn := range rs.BlockOrder {
		for _, rn := range rs.Blocks[bn].Rules {
			inBlock[rn] = true
		}
	}
	for _, rn := range rs.RuleOrder {
		r := rs.Rules[rn]
		if len(rs.Blocks) > 0 && !inBlock[rn] {
			ds = append(ds, Diagnostic{Rule: rn, Severity: SevInfo, Code: CodeDeadRule,
				Site: ruleSite(r, ""), Msg: "rule is not referenced by any block and can never fire"})
		}
		ds = append(ds, lintRule(r, ext, cat)...)
	}
	return ds
}

// sameGuards reports whether two rules have equal left-hand sides and
// equal constraint lists — the earlier one then matches whenever the
// later one would.
func sameGuards(a, b *rules.Rule) bool {
	if !term.Equal(a.LHS, b.LHS) || len(a.Constraints) != len(b.Constraints) {
		return false
	}
	for i := range a.Constraints {
		if !term.Equal(a.Constraints[i], b.Constraints[i]) {
			return false
		}
	}
	return true
}

func ruleSite(r *rules.Rule, part string) string {
	pos := ""
	if r.Line > 0 {
		pos = fmt.Sprintf("%d:%d", r.Line, r.Col)
	}
	switch {
	case pos == "":
		return part
	case part == "":
		return pos
	default:
		return pos + " " + part
	}
}

func blockSite(b *rules.Block) string {
	if b.Line > 0 {
		return fmt.Sprintf("%d:%d", b.Line, b.Col)
	}
	return ""
}

func seqSite(s *rules.Seq) string {
	if s.Line > 0 {
		return fmt.Sprintf("%d:%d", s.Line, s.Col)
	}
	return "seq"
}

func lintRule(r *rules.Rule, ext *rewrite.Externals, cat *catalog.Catalog) []Diagnostic {
	var ds []Diagnostic

	// RC001: every RHS variable must be bound by the LHS or appear in a
	// method call (methods such as SUBSTITUTE and EVALUATE bind outputs;
	// constraints cannot bind).
	lv, lsq, lf := map[string]bool{}, map[string]bool{}, map[string]bool{}
	r.LHS.Vars(lv, lsq, lf)
	bv, bsq, bf := copySet(lv), copySet(lsq), copySet(lf)
	for _, m := range r.Methods {
		m.Vars(bv, bsq, bf)
	}
	rv, rsq, rf := map[string]bool{}, map[string]bool{}, map[string]bool{}
	r.RHS.Vars(rv, rsq, rf)
	for _, n := range sortedKeys(rv) {
		if !bv[n] {
			ds = append(ds, Diagnostic{Rule: r.Name, Severity: SevError, Code: CodeUnboundRHS,
				Site: ruleSite(r, "rhs"),
				Msg:  fmt.Sprintf("right-hand-side variable %q is bound by neither the left-hand side nor any method", n)})
		}
	}
	for _, n := range sortedKeys(rsq) {
		if !bsq[n] {
			ds = append(ds, Diagnostic{Rule: r.Name, Severity: SevError, Code: CodeUnboundRHS,
				Site: ruleSite(r, "rhs"),
				Msg:  fmt.Sprintf("right-hand-side collection variable %q* is bound by neither the left-hand side nor any method", n)})
		}
	}
	for _, n := range sortedKeys(rf) {
		if !bf[n] {
			ds = append(ds, Diagnostic{Rule: r.Name, Severity: SevError, Code: CodeUnboundRHS,
				Site: ruleSite(r, "rhs"),
				Msg:  fmt.Sprintf("right-hand-side function variable %q is bound by neither the left-hand side nor any method", n)})
		}
	}

	// Constraints run before methods, so they may only use LHS bindings.
	for i, c := range r.Constraints {
		cv, csq, cf := map[string]bool{}, map[string]bool{}, map[string]bool{}
		c.Vars(cv, csq, cf)
		for _, n := range sortedKeys(cv) {
			if !lv[n] {
				ds = append(ds, Diagnostic{Rule: r.Name, Severity: SevWarn, Code: CodeUnboundRHS,
					Site: ruleSite(r, fmt.Sprintf("constraint %d", i+1)),
					Msg:  fmt.Sprintf("constraint references variable %q that the left-hand side does not bind (constraints run before methods)", n)})
			}
		}
	}

	// RC002: constraints must resolve to something evaluable.
	for i, c := range r.Constraints {
		ds = append(ds, lintConstraint(r, i, c, ext, cat)...)
	}

	// RC003: methods must be registered method calls.
	for i, m := range r.Methods {
		site := ruleSite(r, fmt.Sprintf("method %d", i+1))
		if m.Kind != term.Fun || m.VarHead {
			ds = append(ds, Diagnostic{Rule: r.Name, Severity: SevError, Code: CodeUnknownMethod,
				Site: site, Msg: fmt.Sprintf("method %s is not a call to a registered method", m)})
			continue
		}
		if ext != nil && !ext.HasMethod(m.Functor) {
			ds = append(ds, Diagnostic{Rule: r.Name, Severity: SevError, Code: CodeUnknownMethod,
				Site: site, Msg: fmt.Sprintf("method %q is not registered in the rewriter's externals", m.Functor)})
		}
	}

	// RC004 + RC005: walk every application in the rule.
	ds = append(ds, lintSymbols(r, ext, cat)...)

	// RC006: possible divergence — LHS matches the rule's own
	// (skolemized) RHS and the rule does not shrink the term.
	if !r.Decreasing() && selfMatches(r) {
		sev := SevWarn
		note := "no constraints or methods guard it"
		if len(r.Constraints) > 0 || len(r.Methods) > 0 {
			sev = SevInfo
			note = "its constraints/methods must prevent re-application"
		}
		ds = append(ds, Diagnostic{Rule: r.Name, Severity: sev, Code: CodeDivergence,
			Site: ruleSite(r, ""),
			Msg: fmt.Sprintf("left-hand side matches the rule's own right-hand side and the rule does not decrease term size (lhs %d, rhs %d nodes); %s, so termination relies on block budgets",
				r.LHS.Size(), r.RHS.Size(), note)})
	}
	return ds
}

// lintConstraint checks one constraint term. The evaluator accepts the
// special forms AND/OR/NOT (recursing into their arguments), ISA,
// comparisons, registered constraint externals, and falls back to ground
// evaluation through the catalog's ADT library.
func lintConstraint(r *rules.Rule, idx int, c *term.Term, ext *rewrite.Externals, cat *catalog.Catalog) []Diagnostic {
	site := ruleSite(r, fmt.Sprintf("constraint %d", idx+1))
	var ds []Diagnostic
	var check func(t *term.Term)
	check = func(t *term.Term) {
		if t.Kind != term.Fun || t.VarHead {
			return
		}
		switch strings.ToUpper(t.Functor) {
		case "AND", "OR", "NOT":
			for _, a := range t.Args {
				check(a)
			}
			return
		case "ISA":
			return
		}
		if isComparison(t.Functor) {
			return
		}
		if ext != nil && ext.HasConstraint(t.Functor) {
			return
		}
		if cat != nil {
			if _, ok := cat.ADTs.Lookup(t.Functor); ok {
				return
			}
		}
		ds = append(ds, Diagnostic{Rule: r.Name, Severity: SevError, Code: CodeUnknownConstraint,
			Site: site,
			Msg: fmt.Sprintf("constraint %q is not a registered constraint, a built-in form (AND/OR/NOT/ISA/comparison) or a ground-evaluable ADT function",
				t.Functor)})
	}
	check(c)
	return ds
}

// lintSymbols checks arity consistency (RC004) and symbol vocabulary
// (RC005) across every function application of the rule.
func lintSymbols(r *rules.Rule, ext *rewrite.Externals, cat *catalog.Catalog) []Diagnostic {
	var ds []Diagnostic
	type use struct {
		arities map[int]bool
		site    string
	}
	uses := map[string]*use{}
	var order []string
	unknownSeen := map[string]bool{}

	scan := func(part string, t *term.Term) {
		site := ruleSite(r, part)
		term.Visit(t, func(sub *term.Term) bool {
			if sub.Kind != term.Fun || sub.VarHead {
				return true
			}
			f := strings.ToUpper(sub.Functor)
			if term.IsConstructor(f) || f == term.FCollection {
				return true
			}
			// Applications containing collection variables have variable
			// arity by construction.
			hasSeq := false
			for _, a := range sub.Args {
				if a.Kind == term.SeqVar {
					hasSeq = true
					break
				}
			}
			if !hasSeq {
				u := uses[f]
				if u == nil {
					u = &use{arities: map[int]bool{}, site: site}
					uses[f] = u
					order = append(order, f)
				}
				u.arities[len(sub.Args)] = true
				if want, fixed := fixedArity(f, cat); fixed && len(sub.Args) != want {
					// A LERA operator the rule builds with the wrong arity
					// is a malformed plan (the rewriter refuses it at run
					// time); elsewhere a mismatch only fails to match.
					sev := SevWarn
					if _, op := leraArity[f]; op && part == "rhs" {
						sev = SevError
					}
					ds = append(ds, Diagnostic{Rule: r.Name, Severity: sev, Code: CodeArity,
						Site: site,
						Msg:  fmt.Sprintf("%s is applied to %d arguments but its declared arity is %d", f, len(sub.Args), want)})
				}
			}
			if !knownSymbol(f, ext, cat) && !unknownSeen[f] {
				unknownSeen[f] = true
				ds = append(ds, Diagnostic{Rule: r.Name, Severity: SevInfo, Code: CodeUnknownSymbol,
					Site: site,
					Msg:  fmt.Sprintf("function symbol %q is not LERA vocabulary, a registered ADT function or a registered external (fine if it is registered at runtime)", f)})
			}
			return true
		})
	}

	scan("lhs", r.LHS)
	for i, c := range r.Constraints {
		scan(fmt.Sprintf("constraint %d", i+1), c)
	}
	scan("rhs", r.RHS)
	for i, m := range r.Methods {
		scan(fmt.Sprintf("method %d", i+1), m)
	}

	for _, f := range order {
		u := uses[f]
		if len(u.arities) > 1 {
			ds = append(ds, Diagnostic{Rule: r.Name, Severity: SevWarn, Code: CodeArity,
				Site: u.site,
				Msg:  fmt.Sprintf("%s is applied with inconsistent arities %v within this rule", f, sortedInts(u.arities))})
		}
	}
	return ds
}

// fixedArity resolves the declared arity of a symbol, if any: the LERA
// vocabulary first, then the catalog's ADT library (variadic entries have
// no fixed arity).
func fixedArity(f string, cat *catalog.Catalog) (int, bool) {
	if n, ok := leraArity[f]; ok {
		return n, true
	}
	if variadicVocab[f] {
		return 0, false
	}
	if cat != nil {
		if e, ok := cat.ADTs.Lookup(f); ok && e.Arity >= 0 {
			return e.Arity, true
		}
	}
	return 0, false
}

func knownSymbol(f string, ext *rewrite.Externals, cat *catalog.Catalog) bool {
	if _, ok := leraArity[f]; ok {
		return true
	}
	if variadicVocab[f] {
		return true
	}
	if cat != nil {
		if _, ok := cat.ADTs.Lookup(f); ok {
			return true
		}
	}
	if ext != nil && (ext.HasConstraint(f) || ext.HasMethod(f) || ext.HasBuiltin(f)) {
		return true
	}
	return false
}

// selfMatches reports whether the rule's LHS matches any subterm of a
// skolemized copy of its RHS — the "trivially non-terminating self-cycle"
// test. Variables in the RHS are replaced by unique constants so that a
// match witnesses a genuine instance-of relation.
func selfMatches(r *rules.Rule) bool {
	sk := skolemize(r.RHS)
	found := false
	term.Visit(sk, func(sub *term.Term) bool {
		if _, ok := term.MatchFirst(r.LHS, sub); ok {
			found = true
			return false
		}
		return true
	})
	return found
}

func skolemize(t *term.Term) *term.Term {
	switch t.Kind {
	case term.Const:
		return t
	case term.Var:
		return term.Str("\x00var:" + t.Name)
	case term.SeqVar:
		return term.Str("\x00seq:" + t.Name)
	case term.Fun:
		args := make([]*term.Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = skolemize(a)
		}
		functor := t.Functor
		if t.VarHead {
			functor = "\x00fun:" + t.Functor
		}
		return term.F(functor, args...)
	}
	return t
}

func copySet(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedInts(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
