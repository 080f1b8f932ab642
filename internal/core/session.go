package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"lera/internal/catalog"
	"lera/internal/engine"
	"lera/internal/esql"
	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/obs"
	"lera/internal/plancache"
	"lera/internal/rewrite"
	"lera/internal/rulecheck"
	"lera/internal/term"
	"lera/internal/testdb"
	"lera/internal/translate"
	"lera/internal/value"
)

// Session ties the whole pipeline together: ESQL text -> catalog
// declarations / stored data / translated, rewritten and executed
// queries. It is what cmd/edsql and the examples drive.
//
// The session embeds its database, and the database holds every
// execution setting: s.Limits, s.Parallelism, s.BatchSize, s.SpillDir,
// s.CollectStats and s.Injector are the DB's own fields (as are
// s.Cat and s.SetObject), so setting one on s or on s.DB is the same
// assignment and no query copies anything down. Limits also bounds the
// rewrite phase: its Timeout applies to rewrite and execute separately,
// so a rewrite that burns its whole budget still leaves the fallback plan
// time to run (docs/GUARDRAILS.md).
type Session struct {
	*engine.DB

	cfg     config
	rw      *Rewriter
	Rewrite bool // rewriting enabled (true by default)

	// Obs is the session's observability sink (see internal/obs and
	// docs/OBSERVABILITY.md): nil disables the layer entirely; with an
	// observer, pipeline metrics accumulate in Obs.Metrics and — when
	// Obs.Trace is on — every query carries a span/event trace and
	// per-operator execution statistics on Result.Report.
	Obs *obs.Observer

	// Plans is the session's plan cache (nil unless WithPlanCache was
	// given; see internal/plancache and docs/PLANCACHE.md). Forks share
	// the parent's cache pointer — entries are keyed by template hash
	// AND cache environment (rule-base fingerprint with its block
	// budgets, guard budget shape, schema version), so sessions with
	// different rule bases can share one cache without ever serving each
	// other's plans.
	Plans *plancache.Cache[planEnv]

	// prepared is the PREPARE/EXECUTE registry: statement ASTs with
	// their validated parameter counts, keyed by uppercased name. Fork
	// copies the map (a snapshot: later PREPAREs on either side are
	// private), which is what a session pool wants.
	prepared map[string]*preparedStmt

	// met holds the handles of the metrics each query updates (observe.go).
	met queryMetrics
}

// preparedStmt is one PREPARE'd SELECT: the parsed body with its $n
// placeholders intact, plus the validated parameter count.
type preparedStmt struct {
	sel     *esql.Select
	nparams int
}

// NewSession creates a session with an empty catalog and database.
func NewSession(opts ...Option) *Session {
	s := &Session{
		DB:      engine.New(catalog.New()),
		cfg:     newConfig(opts),
		Rewrite: true,
	}
	// A WithInjector option arms the executor too: the rewriter reads it
	// from its config, the engine from DB.Injector, so one injector
	// covers constraints, methods, builtins and ADT calls alike.
	s.Injector = s.cfg.injector
	if s.cfg.planCache > 0 {
		s.Plans = plancache.New[planEnv](s.cfg.planCache)
	}
	return s
}

// Fork returns a session sharing this one's catalog, compiled rule base
// and stored data as an immutable snapshot, with private execution state
// — the session-pool primitive. The fork shares the parent's *Rewriter:
// one rule base, parsed, validated and compiled once (here, if the parent
// has not run a query yet, so a broken rule base fails at fork time rather
// than on the first query) and immutable afterwards, so no fork lexes,
// parses or validates rule text. Private to the fork are its engine DB
// fork (shared relations/objects; private counters, guard state, stats
// and a copy of every execution setting the DB holds — Limits,
// Parallelism, BatchSize, SpillDir, CollectStats, Injector), its
// prepared statements, and copies of Rewrite and Obs. Forks are safe to
// use concurrently with each other and with the parent PROVIDED the
// shared state stays immutable: no DDL, INSERT or SetObject on any of
// them after forking. leraserver enforces this by admitting only SELECT
// statements.
//
// Plan-cache semantics (docs/PLANCACHE.md): the fork shares the
// parent's Plans pointer, so it sees — and contributes to — the same
// cache, including entries stored before the fork. This is safe because
// every entry is guarded by its cache environment: the rule-base
// fingerprint (block budgets included) and catalog schema version are
// part of the key, so a session whose effective rule base differs (e.g. after a
// DDL-induced rebuild) can never be served a plan derived under the old
// rules — it observes an invalidation and re-derives. Cached templates and
// plans are immutable structural terms holding no row data or bindings.
// The prepared-statement registry, by contrast, is copied: a snapshot
// at fork time, with later PREPAREs private to each side.
func (s *Session) Fork() (*Session, error) {
	rw, err := s.Rewriter()
	if err != nil {
		return nil, err
	}
	ns := &Session{
		DB:      s.DB.Fork(),
		cfg:     s.cfg,
		rw:      rw,
		Rewrite: s.Rewrite,
		Obs:     s.Obs,
		Plans:   s.Plans,
	}
	if len(s.prepared) > 0 {
		ns.prepared = make(map[string]*preparedStmt, len(s.prepared))
		for k, v := range s.prepared {
			ns.prepared[k] = v
		}
	}
	return ns, nil
}

// Rewriter returns the session's rewriter, building a new one when the
// catalog's schema has moved since the current one read it (declared
// constraints are compiled into rules, by DDL or by Catalog.AddConstraint
// alike).
func (s *Session) Rewriter() (*Rewriter, error) {
	if s.rw == nil || s.rw.schemaVersion != s.Cat.SchemaVersion() {
		rw, err := build(s.Cat, s.cfg)
		if err != nil {
			return nil, err
		}
		s.rw = rw
	}
	return s.rw, nil
}

// ResultKind discriminates Exec results.
type ResultKind int

// Result kinds.
const (
	ResultDDL ResultKind = iota
	ResultInsert
	ResultRows
	// ResultExplain is the outcome of EXPLAIN [ANALYZE]: Message holds
	// the rendered plan/report, Report the structured form.
	ResultExplain
)

// Result is the outcome of executing one statement.
type Result struct {
	Kind    ResultKind
	Message string

	// For queries. Rows are read-only: they may share cells with the
	// session's stored relations (engine.Relation).
	Columns   []string
	Rows      [][]value.Value
	Initial   *term.Term // translated LERA before rewriting
	Rewritten *term.Term

	// Stats carries the rewrite statistics of a query. The contract:
	// Stats is non-nil only for ResultRows/ResultExplain results of a
	// session with rewriting enabled — DDL and INSERT statements never
	// rewrite, and a query run with Session.Rewrite=false has nothing to
	// report. Callers should not nil-check ad hoc; use RewriteStats,
	// which is total.
	Stats *rewrite.Stats

	// Report is the per-query observability record (phase timings, span
	// trace, per-operator execution statistics). Non-nil whenever the
	// session has an observer, and always for EXPLAIN ANALYZE.
	Report *QueryReport

	// Cache records what the plan cache did for this query — hit, miss,
	// store, invalidation, eviction count, template hash. Nil when the
	// session has no plan cache (or the statement was not a SELECT).
	Cache *plancache.Outcome

	// Budget is the guard-budget consumption of this query: rows
	// materialized and rewrite steps applied against their caps.
	// Populated for every executed SELECT (it is a value snapshot of
	// counters the engine keeps anyway, so the disabled-observability
	// path pays nothing for it).
	Budget guard.Consumption
}

// RewriteStats returns the rewrite statistics by value, with the zero
// Stats standing in for "no rewrite ran" (DDL, INSERT, rewriting
// disabled, nil result). This is the accessor shells and harnesses use
// instead of nil-checking Result.Stats.
func (r *Result) RewriteStats() rewrite.Stats {
	if r == nil || r.Stats == nil {
		return rewrite.Stats{}
	}
	return *r.Stats
}

// Exec parses and executes a sequence of ESQL statements with no
// cancellation (see ExecCtx).
func (s *Session) Exec(src string) ([]*Result, error) {
	return s.ExecCtx(context.Background(), src)
}

// ExecCtx parses and executes a sequence of ESQL statements under a
// cancellation context.
func (s *Session) ExecCtx(ctx context.Context, src string) ([]*Result, error) {
	t0 := time.Now()
	stmts, err := esql.Parse(src)
	s.obsParse(time.Since(t0), err)
	if err != nil {
		return nil, err
	}
	var out []*Result
	for _, st := range stmts {
		r, err := s.ExecStmtCtx(ctx, st)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// MustExec executes or panics; for examples and benchmarks.
func (s *Session) MustExec(src string) []*Result {
	rs, err := s.Exec(src)
	if err != nil {
		panic(err)
	}
	return rs
}

// Query executes a single SELECT and returns its result.
func (s *Session) Query(src string) (*Result, error) {
	return s.QueryCtx(context.Background(), src)
}

// QueryCtx executes a single SELECT under a cancellation context. When
// the session traces, the recorder is opened here so the span tree also
// covers the parse phase. With a plan cache armed, a text the cache has
// learned is served from it without being parsed (text.go).
func (s *Session) QueryCtx(ctx context.Context, src string) (*Result, error) {
	rec := s.Obs.Recorder("query")
	ctx = obs.NewContext(ctx, rec)
	pSpan := rec.Begin("parse")
	t0 := time.Now()
	known, plan := s.lookupText(src)
	var q *esql.Select
	var err error
	if plan == nil {
		q, err = esql.ParseQuery(src)
	}
	parseDur := time.Since(t0)
	rec.End(pSpan)
	s.obsParse(parseDur, err)
	if err != nil {
		return nil, err
	}
	if plan != nil {
		return s.serveText(ctx, known, plan, parseDur)
	}
	qt := queryText{known: known}
	res, err := s.execSelect(ctx, q, false, &qt)
	if res != nil && res.Report != nil {
		res.Report.Phases.Parse = parseDur
	}
	if err == nil && known == nil && qt.template != nil {
		s.learnText(src, &qt, res)
	}
	return res, err
}

// ExecStmtCtx executes one parsed statement under a cancellation context.
func (s *Session) ExecStmtCtx(ctx context.Context, st esql.Stmt) (*Result, error) {
	s.obsStatement()
	switch d := st.(type) {
	case *esql.TypeDecl:
		if err := translate.DeclareType(s.Cat, d); err != nil {
			return nil, err
		}
		s.obsCatalog()
		return &Result{Kind: ResultDDL, Message: fmt.Sprintf("type %s declared", d.Name)}, nil
	case *esql.TableDecl:
		if err := translate.DeclareTable(s.Cat, d); err != nil {
			return nil, err
		}
		s.obsCatalog()
		return &Result{Kind: ResultDDL, Message: fmt.Sprintf("table %s declared", d.Name)}, nil
	case *esql.ViewDecl:
		v, err := translate.DeclareView(s.Cat, d)
		if err != nil {
			return nil, err
		}
		s.obsCatalog()
		kind := "view"
		if v.Recursive {
			kind = "recursive view"
		}
		return &Result{Kind: ResultDDL, Message: fmt.Sprintf("%s %s declared", kind, v.Name)}, nil
	case *esql.InsertStmt:
		name, rows, err := translate.Insert(s.Cat, d)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			if err := s.DB.Insert(name, row); err != nil {
				return nil, err
			}
		}
		return &Result{Kind: ResultInsert, Message: fmt.Sprintf("%d rows inserted into %s", len(rows), name)}, nil
	case *esql.Select:
		return s.ExecSelectCtx(ctx, d)
	case *esql.Explain:
		return s.ExplainCtx(ctx, d)
	case *esql.PrepareStmt:
		return s.execPrepare(d)
	case *esql.ExecuteStmt:
		return s.execExecute(ctx, d)
	}
	return nil, fmt.Errorf("core: unsupported statement %T", st)
}

// execPrepare registers a PREPARE'd statement: the body's $n
// placeholders are validated (contiguous $1..$n) here; translation and
// type checking happen at EXECUTE time, once literals are bound.
func (s *Session) execPrepare(d *esql.PrepareStmt) (*Result, error) {
	n, err := esql.CountParams(d.Sel)
	if err != nil {
		return nil, err
	}
	key := strings.ToUpper(d.Name)
	if _, dup := s.prepared[key]; dup {
		return nil, guard.Invalid(fmt.Errorf("core: prepared statement %q already exists", d.Name))
	}
	if s.prepared == nil {
		s.prepared = map[string]*preparedStmt{}
	}
	s.prepared[key] = &preparedStmt{sel: d.Sel, nparams: n}
	noun := "parameters"
	if n == 1 {
		noun = "parameter"
	}
	return &Result{Kind: ResultDDL, Message: fmt.Sprintf("prepared %s (%d %s)", d.Name, n, noun)}, nil
}

// execExecute binds EXECUTE arguments (evaluated as constant
// expressions) into a deep copy of the prepared body and runs it down
// the ordinary SELECT path — so plan caching, metrics, EXPLAIN and
// bit-identity guarantees all come from the one shared mechanism.
func (s *Session) execExecute(ctx context.Context, d *esql.ExecuteStmt) (*Result, error) {
	p := s.prepared[strings.ToUpper(d.Name)]
	if p == nil {
		return nil, guard.Invalid(fmt.Errorf("core: no prepared statement %q (PREPARE it first)", d.Name))
	}
	if len(d.Args) != p.nparams {
		return nil, guard.Invalid(fmt.Errorf("core: %s expects %d argument(s), got %d", d.Name, p.nparams, len(d.Args)))
	}
	args := make([]esql.Expr, len(d.Args))
	for i, a := range d.Args {
		v, err := translate.Literal(s.Cat, a)
		if err != nil {
			return nil, fmt.Errorf("core: EXECUTE %s argument %d: %w", d.Name, i+1, err)
		}
		args[i] = &esql.Lit{Val: v}
	}
	bound, err := esql.BindParams(p.sel, args)
	if err != nil {
		return nil, err
	}
	return s.ExecSelectCtx(ctx, bound)
}

// ExecSelectCtx translates, rewrites and executes one SELECT under a
// cancellation context and the session's guard Limits.
//
// Rewriting degrades gracefully: if the optimizer fails — an external
// panicked, the budget ran out, the deadline fired — the query is NOT
// lost. The session falls back to the last fully-validated intermediate
// term (or the initial translated term when no rule committed) and
// executes that instead; Result.Stats records Degraded and the reason.
// Execution errors, by contrast, are real failures and are returned,
// but the Result is returned alongside them so callers can see which
// plan was running.
func (s *Session) ExecSelectCtx(ctx context.Context, sel *esql.Select) (*Result, error) {
	return s.execSelect(ctx, sel, false, nil)
}

// execSelect is the shared SELECT path behind ExecSelectCtx, QueryCtx and
// EXPLAIN ANALYZE. With analyze set, tracing and per-operator statistics
// collection are forced on for this one query even if the session
// observer has them off (or the session has no observer at all). qt is
// what QueryCtx and this path tell each other about the query's text
// (text.go), nil for a query that came without one.
func (s *Session) execSelect(ctx context.Context, sel *esql.Select, analyze bool, qt *queryText) (*Result, error) {
	rec := obs.FromContext(ctx)
	if rec == nil && (analyze || (s.Obs != nil && s.Obs.Trace)) {
		rec = obs.NewRecorder("query")
		ctx = obs.NewContext(ctx, rec)
	}
	var rep *QueryReport
	if s.Obs != nil || analyze {
		rep = &QueryReport{}
	}

	tSpan := rec.Begin("translate")
	t0 := time.Now()
	q, err := translate.Select(s.Cat, sel)
	rec.End(tSpan)
	if rep != nil {
		rep.Phases.Translate = time.Since(t0)
	}
	if err != nil {
		s.obsQueryDone(nil, err)
		return nil, err
	}
	res := &Result{Kind: ResultRows, Initial: q, Rewritten: q, Report: rep}
	var schema *lera.Schema
	if s.Rewrite {
		rSpan := rec.Begin("rewrite")
		t0 = time.Now()
		res.Rewritten, res.Stats, res.Cache, schema = s.rewritePlan(ctx, q, qt)
		rec.End(rSpan)
		if rep != nil {
			rep.Phases.Rewrite = time.Since(t0)
		}
		if rec.Enabled() {
			st := res.RewriteStats()
			rSpan.SetAttrs(
				obs.Int("checks", st.ConditionChecks),
				obs.Int("applications", st.Applications),
				obs.Int("rounds", st.Rounds))
			if oc := res.Cache; oc != nil && oc.Hit {
				rSpan.SetAttrs(obs.Str("plan", "cached"))
			}
		}
	}
	if schema == nil {
		schema, _ = lera.Infer(res.Rewritten, s.Cat, nil)
	}
	if schema != nil {
		for _, c := range schema.Cols {
			res.Columns = append(res.Columns, c.Name)
		}
	}
	if qt != nil && qt.known != nil {
		s.checkText(qt.known, res)
	}
	return s.execute(ctx, res, analyze)
}

// execute runs res.Rewritten, the execution half of a SELECT, and
// completes res with its rows, budget and report.
func (s *Session) execute(ctx context.Context, res *Result, analyze bool) (*Result, error) {
	rec, rep := obs.FromContext(ctx), res.Report
	execCtx, cancel := s.phaseCtx(ctx)
	defer cancel()

	collect := analyze || rec.Enabled() || s.DB.CollectStats
	savedCollect := s.DB.CollectStats
	if collect {
		s.DB.CollectStats = true
	}
	before := s.DB.Count
	spillBefore := s.DB.Spill
	eSpan := rec.Begin("execute")
	t0 := time.Now()
	rel, evalErr := s.DB.EvalCtx(execCtx, res.Rewritten)
	rec.End(eSpan)
	s.DB.CollectStats = savedCollect
	rst := res.RewriteStats()
	res.Budget = guard.Consumption{
		RowsUsed:     s.DB.LastRowsCharged(),
		RowsLimit:    int64(s.Limits.MaxRows),
		StepsUsed:    int64(rst.Applications),
		StepsLimit:   int64(rst.StepsLimit),
		MemPeakBytes: s.DB.LastMemPeak(),
		MemLimit:     s.Limits.MaxMemBytes,
	}
	if rep != nil {
		rep.Phases.Execute = time.Since(t0)
		rep.ExecCounters = counterDelta(before, s.DB.Count)
		rep.Spill = spillDelta(spillBefore, s.DB.Spill)
		if collect {
			rep.Exec = s.DB.LastExecStats()
		}
	}
	if evalErr != nil {
		if rep != nil {
			rep.Trace = rec.Finish()
		}
		s.obsQueryDone(res, evalErr)
		return res, evalErr
	}
	res.Rows = rel.Rows
	res.Message = fmt.Sprintf("%d rows", len(rel.Rows))
	if rec.Enabled() {
		eSpan.SetAttrs(obs.Int("rows", len(rel.Rows)))
	}
	if rep != nil {
		rep.Trace = rec.Finish()
	}
	s.obsQueryDone(res, nil)
	return res, nil
}

// rewriteGuarded runs the optimizer under the session Limits and never
// fails: on any rewrite error it returns a safe fallback term (the last
// committed intermediate, else the untouched input) with the degradation
// recorded in the returned Stats. A rewritten plan must also type (see
// typePlan), or the query falls back to q; the schema returned is the one
// that check inferred, nil when the plan is q (its caller infers it).
func (s *Session) rewriteGuarded(ctx context.Context, q *term.Term) (*term.Term, *rewrite.Stats, *lera.Schema) {
	rw, err := s.Rewriter()
	if err != nil {
		return q, &rewrite.Stats{
			Degraded:          true,
			DegradationReason: "rewriter unavailable: " + err.Error(),
			DegradationCode:   string(guard.CodeOf(err)),
		}, nil
	}
	rwCtx, cancel := s.phaseCtx(ctx)
	defer cancel()
	rq, st, err := rw.RewriteCtx(rwCtx, q, s.Limits)
	var schema *lera.Schema
	if err == nil && rq != q {
		if schema, err = typePlan(s.Cat, q, rq); err != nil {
			rq = q
		}
	}
	if err == nil {
		return rq, st, schema
	}
	st.Degraded = true
	st.DegradationReason = err.Error()
	st.DegradationCode = string(guard.CodeOf(err))
	if rec := obs.FromContext(ctx); rec != nil {
		rec.Event("rewrite.degraded", obs.Str("reason", st.DegradationReason))
	}
	return rq, st, nil
}

// typePlan is the rewrite post-condition only the catalog can check: the
// rewritten plan infers, with as many columns as q, the query as
// translated. lera.Validate passes a plan that names an attribute past its
// SEARCH's relations or columns, which would fail at execution, and one
// that changed the answer's width, which would not. Its failure is
// INVALID: the catalog refuses a plan a rule built, as it refuses a
// statement.
func typePlan(cat *catalog.Catalog, q, plan *term.Term) (*lera.Schema, error) {
	schema, err := lera.Infer(plan, cat, nil)
	if lera.IsOp(q, lera.OpNest) {
		q = q.Args[0] // a GROUP BY's NEST keeps its SEARCH's column count
	}
	if want := len(q.Args[2].Args); err == nil && schema.Arity() != want {
		err = fmt.Errorf("%d columns where the query has %d", schema.Arity(), want)
	}
	if err != nil {
		return nil, guard.Invalid(fmt.Errorf("rewrite: a rule built a plan the catalog cannot type: %w", err))
	}
	return schema, nil
}

// phaseCtx bounds one pipeline phase — a rewrite or an execution — by
// Limits.Timeout; each phase gets the whole budget (see Session).
func (s *Session) phaseCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.Limits.Timeout > 0 {
		return context.WithTimeout(ctx, s.Limits.Timeout)
	}
	return ctx, func() {}
}

// LoadFilms loads the paper's running example into the session: the
// Figure 2 schema, the Figure 4 and Figure 5 views, and the sample
// instance of internal/testdb (rows and actor objects). It is the one
// bootstrap behind edsql's \films, leraserver -films, the examples and
// the tests.
func (s *Session) LoadFilms() error {
	for _, src := range []string{esql.Figure2DDL, esql.Figure4View, esql.Figure5View} {
		if _, err := s.Exec(src); err != nil {
			return err
		}
	}
	inst, err := testdb.Data()
	if err != nil {
		return err
	}
	for name, rows := range inst.Rows {
		if err := s.DB.Load(name, rows); err != nil {
			return err
		}
	}
	for oid, obj := range inst.Objects {
		s.SetObject(oid, obj)
	}
	return nil
}

// CheckRules verifies the session's assembled rule base — static lint
// plus differential semantic testing — under the session's guard Limits,
// so a `--timeout` given to the shell bounds the verifier the same way it
// bounds queries. The returned diagnostics are ordered deterministically;
// the error return is reserved for a broken rewriter or cancellation.
func (s *Session) CheckRules(ctx context.Context) ([]rulecheck.Diagnostic, error) {
	rw, err := s.Rewriter()
	if err != nil {
		return nil, err
	}
	return rw.CheckRules(ctx, s.Limits)
}

// formatPresizeMax bounds FormatResult's one-shot presize of its builder;
// an answer longer than this grows by the builder's own doubling.
const formatPresizeMax = 4 << 20

// FormatResult renders a query result as an aligned text table.
func FormatResult(r *Result) string {
	if r.Kind != ResultRows {
		return r.Message
	}
	var sb strings.Builder
	if len(r.Columns) > 0 {
		header := strings.Join(r.Columns, " | ")
		sb.WriteString(header)
		sb.WriteString("\n")
		sb.WriteString(strings.Repeat("-", len(header)))
		sb.WriteString("\n")
	}
	// Cells are appended through one scratch buffer (value.AppendText), never
	// rendered to a string each, and the builder grows once, to the first
	// row's length times the row count — up to formatPresizeMax: the first
	// row is a guess at the others, and one long first cell must not size
	// the whole answer.
	var cell []byte
	for n, row := range r.Rows {
		start := sb.Len()
		for i, v := range row {
			if i > 0 {
				sb.WriteString(" | ")
			}
			cell = v.AppendText(cell[:0])
			sb.Write(cell)
		}
		sb.WriteString("\n")
		if n == 0 {
			sb.Grow(min((len(r.Rows)-1)*(sb.Len()-start+2), formatPresizeMax) + len(r.Message))
		}
	}
	sb.WriteString(r.Message)
	return sb.String()
}
