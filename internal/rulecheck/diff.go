package rulecheck

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"lera/internal/catalog"
	"lera/internal/engine"
	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/rewrite"
	"lera/internal/rules"
	"lera/internal/term"
)

// DiffOptions configures the differential tester. The zero value is
// usable: seed 1, 4 rows per relation and no guard limits.
type DiffOptions struct {
	// Seed drives all data generation. Same seed, same catalog, same
	// rule base => byte-identical diagnostics.
	Seed uint64
	// RowsPerRelation is the generated database size.
	RowsPerRelation int
	// Limits is the guard budget for each rewrite and each execution;
	// Limits.Timeout is applied per phase, exactly as a Session does.
	Limits guard.Limits
}

// ruleBudget bounds how often a single rule may fire per corpus term, so
// even divergent rules terminate without an error (every prefix of a
// sound rule's applications must preserve semantics).
const ruleBudget = 16

func (o DiffOptions) withDefaults() DiffOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RowsPerRelation <= 0 {
		o.RowsPerRelation = 4
	}
	return o
}

// Diff runs differential semantic testing: for every rule, every corpus
// term the rule's left-hand side fires on is executed both before and
// after the rewrite, and the results are compared as multisets; a rule's
// first finding ends its testing. Then every corpus term runs through the
// whole rule base (blocks and sequence as declared), catching unsound rule
// interactions that no single rule exhibits alone. Findings are returned
// as diagnostics (RC100-RC103); the error return is reserved for setup
// failures and context cancellation.
func Diff(ctx context.Context, rs *rules.RuleSet, ext *rewrite.Externals, cat *catalog.Catalog, opt DiffOptions) ([]Diagnostic, error) {
	opt = opt.withDefaults()
	inst := Generate(cat, opt.Seed, opt.RowsPerRelation)
	db, err := NewDB(cat, inst, opt.Limits)
	if err != nil {
		return nil, err
	}
	corpus := Corpus(cat, inst, opt.Seed)

	var ds []Diagnostic
	for _, rn := range rs.RuleOrder {
		if err := ctx.Err(); err != nil {
			return ds, err
		}
		r := rs.Rules[rn]
		eng := rewrite.New(singleRuleSet(r), ext, cat, nil)
		exercised := false
		for _, q := range corpus {
			d, fired, err := diffOne(ctx, db, eng, r, q, opt)
			if err != nil {
				return ds, err
			}
			exercised = exercised || fired
			if d != nil {
				ds = append(ds, *d)
				break
			}
		}
		if !exercised {
			ds = append(ds, Diagnostic{Rule: rn, Severity: SevInfo, Code: CodeNotExercised,
				Site: ruleSite(r, ""),
				Msg:  "no generated corpus term made this rule fire; differential testing says nothing about it"})
		}
	}

	// A structurally invalid rule set (dangling block/sequence
	// references, reported by the lint as RC008/RC009) cannot be run
	// through the engine.
	if err := rs.Validate(); err != nil {
		ds = append(ds, Diagnostic{Rule: "(all)", Severity: SevInfo, Code: CodeNotExercised,
			Msg: fmt.Sprintf("end-to-end differential testing skipped: %v", err)})
		return ds, nil
	}
	eng := rewrite.New(rs, ext, cat, nil)
	for _, q := range corpus {
		if err := ctx.Err(); err != nil {
			return ds, err
		}
		d, err := diffWhole(ctx, db, eng, q, opt)
		if err != nil {
			return ds, err
		}
		if d != nil {
			ds = append(ds, *d)
		}
	}
	return ds, nil
}

// singleRuleSet wraps one rule in a finite-budget block so the rewrite
// engine applies just that rule, at most ruleBudget times.
func singleRuleSet(r *rules.Rule) *rules.RuleSet {
	rs := rules.NewRuleSet()
	rs.Rules[r.Name] = r
	rs.RuleOrder = []string{r.Name}
	b := &rules.Block{Name: "check", Rules: []string{r.Name}, Limit: ruleBudget}
	rs.Blocks["check"] = b
	rs.BlockOrder = []string{"check"}
	return rs
}

// diffOne tests one rule — eng is its singleRuleSet compiled — against one
// corpus term. Returns a diagnostic (or nil), whether the rule fired, and
// a hard error only on context cancellation.
func diffOne(ctx context.Context, db *engine.DB, eng *rewrite.Engine, r *rules.Rule, q Query, opt DiffOptions) (*Diagnostic, bool, error) {
	rewritten, st, err := runPhase(ctx, eng, opt.Limits, q.Term)
	if err != nil {
		if ctx.Err() != nil {
			return nil, false, ctx.Err()
		}
		sev := SevError
		if isBudget(err) {
			sev = SevWarn
		}
		return &Diagnostic{Rule: r.Name, Severity: sev, Code: CodeRewriteError,
			Site: ruleSite(r, q.Name),
			Msg:  fmt.Sprintf("rewrite failed on %s: %v", lera.Format(q.Term), err)}, true, nil
	}
	if st == nil || st.Applications == 0 {
		return nil, false, nil
	}

	base, errBase := evalPhase(ctx, db, opt.Limits, q.Term)
	if errBase != nil {
		// The corpus term itself is not executable here (or busted a
		// budget); nothing to compare, but the rule did fire.
		if ctx.Err() != nil {
			return nil, true, ctx.Err()
		}
		return nil, true, nil
	}
	out, errOut := evalPhase(ctx, db, opt.Limits, rewritten)
	if errOut != nil {
		if ctx.Err() != nil {
			return nil, true, ctx.Err()
		}
		sev := SevError
		if isBudget(errOut) {
			sev = SevWarn
		}
		return &Diagnostic{Rule: r.Name, Severity: sev, Code: CodeExecBroken,
			Site: ruleSite(r, q.Name),
			Msg: fmt.Sprintf("original executes but rewritten term fails: %v\n  before: %s\n  after:  %s",
				errOut, lera.Format(q.Term), lera.Format(rewritten))}, true, nil
	}
	if diff := compare(base, out); diff != "" {
		return &Diagnostic{Rule: r.Name, Severity: SevError, Code: CodeCounterexample,
			Site: ruleSite(r, q.Name),
			Msg: fmt.Sprintf("counterexample on seed-%d database: results differ (%s)\n  before: %s\n  after:  %s",
				opt.Seed, diff, lera.Format(q.Term), lera.Format(rewritten))}, true, nil
	}
	return nil, true, nil
}

// diffWhole runs one corpus term through the full rule base.
func diffWhole(ctx context.Context, db *engine.DB, eng *rewrite.Engine, q Query, opt DiffOptions) (*Diagnostic, error) {
	rewritten, _, err := runPhase(ctx, eng, opt.Limits, q.Term)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		sev := SevError
		if isBudget(err) {
			sev = SevWarn
		}
		return &Diagnostic{Rule: "(all)", Severity: sev, Code: CodeRewriteError,
			Site: q.Name, Msg: fmt.Sprintf("full-sequence rewrite failed on %s: %v", lera.Format(q.Term), err)}, nil
	}
	base, errBase := evalPhase(ctx, db, opt.Limits, q.Term)
	if errBase != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, nil
	}
	out, errOut := evalPhase(ctx, db, opt.Limits, rewritten)
	if errOut != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		sev := SevError
		if isBudget(errOut) {
			sev = SevWarn
		}
		return &Diagnostic{Rule: "(all)", Severity: sev, Code: CodeExecBroken,
			Site: q.Name,
			Msg: fmt.Sprintf("original executes but fully rewritten term fails: %v\n  before: %s\n  after:  %s",
				errOut, lera.Format(q.Term), lera.Format(rewritten))}, nil
	}
	if diff := compare(base, out); diff != "" {
		return &Diagnostic{Rule: "(all)", Severity: SevError, Code: CodeCounterexample,
			Site: q.Name,
			Msg: fmt.Sprintf("full-sequence counterexample: results differ (%s)\n  before: %s\n  after:  %s",
				diff, lera.Format(q.Term), lera.Format(rewritten))}, nil
	}
	return nil, nil
}

// runPhase rewrites q under lim, the wall-clock budget applied to this
// phase alone, mirroring Session.rewriteGuarded.
func runPhase(ctx context.Context, eng *rewrite.Engine, lim guard.Limits, q *term.Term) (*term.Term, *rewrite.Stats, error) {
	if lim.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lim.Timeout)
		defer cancel()
	}
	return eng.RunCtx(ctx, q, lim)
}

// evalPhase is runPhase for execution.
func evalPhase(ctx context.Context, db *engine.DB, lim guard.Limits, t *term.Term) (*engine.Relation, error) {
	if lim.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, lim.Timeout)
		defer cancel()
	}
	return db.EvalCtx(ctx, t)
}

// isBudget reports whether an error is a guard budget trip rather than a
// semantic failure.
func isBudget(err error) bool {
	return errors.Is(err, guard.ErrDeadline) || errors.Is(err, guard.ErrStepBudget) ||
		errors.Is(err, guard.ErrTermSize) || errors.Is(err, guard.ErrRowBudget) ||
		errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// compare diffs two relations as multisets of rows. Empty string means
// equal; otherwise a short human-readable delta.
func compare(a, b *engine.Relation) string {
	am, bm := multiset(a), multiset(b)
	if len(am) == len(bm) {
		equal := true
		for k, n := range am {
			if bm[k] != n {
				equal = false
				break
			}
		}
		if equal {
			return ""
		}
	}
	var missing, extra []string
	for k, n := range am {
		if bm[k] < n {
			missing = append(missing, k)
		}
	}
	for k, n := range bm {
		if am[k] < n {
			extra = append(extra, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(extra)
	parts := []string{fmt.Sprintf("%d vs %d rows", relLen(a), relLen(b))}
	if len(missing) > 0 {
		parts = append(parts, fmt.Sprintf("%d row(s) lost, e.g. %s", len(missing), firstKey(missing)))
	}
	if len(extra) > 0 {
		parts = append(parts, fmt.Sprintf("%d row(s) gained, e.g. %s", len(extra), firstKey(extra)))
	}
	return strings.Join(parts, "; ")
}

func relLen(r *engine.Relation) int {
	if r == nil {
		return 0
	}
	return len(r.Rows)
}

func multiset(r *engine.Relation) map[string]int {
	out := map[string]int{}
	if r == nil {
		return out
	}
	for _, row := range r.Rows {
		out[rowsKey(row)]++
	}
	return out
}

func firstKey(keys []string) string {
	k := strings.ReplaceAll(keys[0], "\x1f", " | ")
	k = strings.ReplaceAll(k, "\x00", "")
	if len(k) > 80 {
		k = k[:80] + "…"
	}
	return strings.TrimSpace(k)
}
