package main

// Runners: the two ways a query list is executed — by one caller in
// process through core.Session, and by two closed-loop clients over
// loopback HTTP against internal/server. Each can run a pass untraced
// (the product's own entry point, nothing else) or traced (the same work
// staged through the layers' public functions with a span around each).

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"lera/internal/core"
	"lera/internal/engine"
	"lera/internal/esql"
	"lera/internal/guard"
	"lera/internal/lera"
	"lera/internal/obs"
	"lera/internal/plancache"
	"lera/internal/server"
	"lera/internal/translate"
)

type passMode int

const (
	untraced   passMode = iota // the timed path: Session.Query / Client.Query
	traced                     // staged through public calls, spans recorded
	ungoverned                 // exec_spill only: untraced with the memory grant lifted
)

// passData is what one pass over the list produces: per-operation
// latency and digest (indexed like the list), failed operations, and —
// on traced passes — the product counters the pass moved.
type passData struct {
	id     int32 // the pass's index in the run, shared with its spans
	mode   passMode
	wall   time.Duration
	cpu    time.Duration
	lat    []time.Duration
	dig    []opDigest
	err    error // the first failed operation's error
	counts layerCounts
	queued int64        // served, traced passes: the admission queue's length at the pass's end
	engine []engineSelf // traced in-process passes: per-operation OpStats self times
}

// layerCounts are product counters summed over one pass. All of them
// except respBytes repeat exactly for a given seed.
type layerCounts struct {
	queryBytes, translateNodes, rewriteNodesOut           int64
	matchAttempts, conditionChecks, applications, rounds  int64
	degraded                                              int64
	scanned, joinPairs, emitted, predEvals, fixIterations int64
	rowsOut, rowsCharged, memPeak                         int64
	spillPartitions, spillBytes, spillReads               int64
	respBytes                                             int64
	cacheHits, cacheMisses, cacheEvictions, shed          int64
}

// engineSelf is one operation's OpStats tree reduced to self time by
// operator class.
type engineSelf struct{ search, fix, other time.Duration }

type runner interface {
	// pass executes the list once; id is the pass's index in the run.
	pass(mode passMode, id int32, tr *tracer) *passData
	// totals reads the cumulative product counters visible without
	// tracing; the harness takes their difference over the window.
	totals() totals
	close() error
}

// newSession builds a session from an in-process plan (or, for a served
// plan, from its init script): the from-scratch set-up of the four
// in-process workloads, and the second session verification runs the
// unrewritten plan on.
func newSession(p *plan, spillDir string) (*core.Session, error) {
	s := core.NewSession()
	// Parallelism's default is the host's core count; pinned so that the
	// benchmark measures the same program everywhere.
	s.Parallelism = 1
	if p.served {
		if _, err := s.Exec(p.initESQL); err != nil {
			return nil, err
		}
		return s, nil
	}
	if _, err := s.Exec(p.ddl); err != nil {
		return nil, err
	}
	for _, t := range p.tables {
		if err := s.DB.Load(t.name, t.rows); err != nil {
			return nil, err
		}
	}
	for oid, v := range p.objects {
		s.SetObject(oid, v)
	}
	s.Limits = p.limits
	if p.spill {
		s.SpillDir = spillDir
	}
	return s, nil
}

// newReferenceSession is newSession without the memory grant: the
// reference answers come from the plain in-memory path.
func newReferenceSession(p *plan) (*core.Session, error) {
	q := *p
	q.limits, q.spill = guard.Limits{}, false
	return newSession(&q, "")
}

// --- in process ---

type sessionRunner struct {
	p *plan
	s *core.Session
}

func newSessionRunner(p *plan, spillDir string) (runner, error) {
	s, err := newSession(p, spillDir)
	if err != nil {
		return nil, err
	}
	return &sessionRunner{p: p, s: s}, nil
}

func (r *sessionRunner) close() error { return nil }

func (r *sessionRunner) pass(mode passMode, id int32, tr *tracer) *passData {
	n := len(r.p.queries)
	pd := &passData{id: id, mode: mode, lat: make([]time.Duration, n), dig: make([]opDigest, n)}
	r.s.Limits = r.p.limits
	if mode == ungoverned {
		r.s.Limits = guard.Limits{}
	}
	if mode == traced {
		pd.engine = make([]engineSelf, n)
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	for i, q := range r.p.queries {
		var text string
		var err error
		start := time.Now()
		if mode == traced {
			text, err = r.staged(q, id, int32(i), tr, pd)
		} else {
			var res *core.Result
			if res, err = r.s.Query(q); err == nil {
				text = core.FormatResult(res)
				if res.RewriteStats().Degraded {
					err = fmt.Errorf("rewrite degraded: %s", res.Stats.DegradationReason)
				}
			}
		}
		pd.lat[i] = time.Since(start)
		if err != nil {
			if pd.err == nil {
				pd.err = fmt.Errorf("%q: %w", q, err)
			}
			continue
		}
		pd.dig[i] = digestText(text)
	}
	pd.wall = time.Since(t0)
	pd.cpu = cpuTime() - cpu0
	return pd
}

// staged is Session.Query taken apart: the same pipeline through each
// layer's public entry point, one child span each under the operation's
// root, with the counters each call returns folded into the pass.
func (r *sessionRunner) staged(q string, pass, op int32, tr *tracer, pd *passData) (string, error) {
	s, c := r.s, &pd.counts
	ctx := context.Background()
	root := tr.begin("op", pass, op, -1)
	defer tr.end(root)
	stage := func(name string) func() {
		id := tr.begin(name, pass, op, root)
		return func() { tr.end(id) }
	}

	done := stage("esql.parse")
	sel, err := esql.ParseQuery(q)
	done()
	if err != nil {
		return "", err
	}
	c.queryBytes += int64(len(q))

	done = stage("translate.select")
	initial, err := translate.Select(s.Cat, sel)
	done()
	if err != nil {
		return "", err
	}
	c.translateNodes += int64(initial.Size())

	rw, err := s.Rewriter()
	if err != nil {
		return "", err
	}
	done = stage("rewrite.run")
	plan, st, err := rw.RewriteCtx(ctx, initial, s.Limits)
	done()
	if err != nil {
		// Session.Query would degrade to a fallback plan here; the
		// benchmark's workloads are chosen so that none does.
		c.degraded++
		return "", fmt.Errorf("rewrite degraded: %w", err)
	}
	c.matchAttempts += int64(st.MatchAttempts)
	c.conditionChecks += int64(st.ConditionChecks)
	c.applications += int64(st.Applications)
	c.rounds += int64(st.Rounds)
	c.rewriteNodesOut += int64(plan.Size())

	done = stage("lera.infer")
	schema, err := lera.Infer(plan, s.Cat, nil)
	done()
	if err != nil {
		return "", err
	}

	db := s.DB
	db.Limits, db.Parallelism, db.BatchSize, db.SpillDir = s.Limits, s.Parallelism, s.BatchSize, s.SpillDir
	db.CollectStats = true
	count0, spill0 := db.Count, db.Spill
	done = stage("engine.eval")
	rel, err := db.EvalCtx(ctx, plan)
	done()
	db.CollectStats = false
	if err != nil {
		return "", err
	}
	c.scanned += int64(db.Count.Scanned - count0.Scanned)
	c.joinPairs += int64(db.Count.JoinPairs - count0.JoinPairs)
	c.emitted += int64(db.Count.Emitted - count0.Emitted)
	c.predEvals += int64(db.Count.PredEvals - count0.PredEvals)
	c.fixIterations += int64(db.Count.FixIterations - count0.FixIterations)
	c.spillPartitions += db.Spill.Partitions - spill0.Partitions
	c.spillBytes += db.Spill.Bytes - spill0.Bytes
	c.spillReads += db.Spill.Reads - spill0.Reads
	c.rowsOut += int64(len(rel.Rows))
	c.rowsCharged += db.LastRowsCharged()
	if mp := db.LastMemPeak(); mp > c.memPeak {
		c.memPeak = mp
	}
	pd.engine[op] = opSelfTimes(db.LastExecStats())

	res := &core.Result{Kind: core.ResultRows, Rows: rel.Rows, Message: fmt.Sprintf("%d rows", len(rel.Rows))}
	for _, col := range schema.Cols {
		res.Columns = append(res.Columns, col.Name)
	}
	done = stage("core.format")
	text := core.FormatResult(res)
	done()
	return text, nil
}

// opSelfTimes walks an OpStats tree and sums each node's self time
// (its duration minus its retained children's) by operator class.
func opSelfTimes(root *engine.OpStats) engineSelf {
	var out engineSelf
	var walk func(o *engine.OpStats)
	walk = func(o *engine.OpStats) {
		self := o.Duration
		for _, ch := range o.Children {
			self -= ch.Duration
			walk(ch)
		}
		switch o.Op {
		case "SEARCH", "JOIN":
			out.search += self
		case "FIX":
			out.fix += self
		default:
			out.other += self
		}
	}
	if root != nil {
		walk(root)
	}
	return out
}

// --- over the wire ---

type serverRunner struct {
	p       *plan
	srv     *server.Server
	serveCh chan error
	clients []*server.Client
	wires   []*countingTransport
	shadow  *core.Session // traced passes: the counters the wire does not carry
}

// countingTransport counts response body bytes as the client reads them.
type countingTransport struct {
	http.Transport
	bytes int64 // read only between passes; each client owns its transport
}

type countingBody struct {
	io.ReadCloser
	n *int64
}

func (b countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	*b.n += int64(n)
	return n, err
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.Transport.RoundTrip(req)
	if err == nil {
		resp.Body = countingBody{resp.Body, &t.bytes}
	}
	return resp, err
}

func newServerRunner(p *plan) (runner, error) {
	srv, err := server.New(server.Config{
		InitESQL:    p.initESQL,
		PlanCache:   servedPlanCache,
		Parallelism: 1,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &serverRunner{p: p, srv: srv, serveCh: make(chan error, 1)}
	go func() { r.serveCh <- srv.Serve(ln) }()
	for i := 0; i < servedClients; i++ {
		wire := &countingTransport{}
		wire.MaxIdleConnsPerHost = 1
		r.wires = append(r.wires, wire)
		r.clients = append(r.clients, &server.Client{
			BaseURL: "http://" + ln.Addr().String(),
			Retry:   server.RetryPolicy{MaxAttempts: 1},
			HTTP:    &http.Client{Transport: wire},
		})
	}
	return r, nil
}

func (r *serverRunner) close() error {
	for _, w := range r.wires {
		w.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.srv.Drain(ctx); err != nil {
		return err
	}
	return <-r.serveCh
}

func (r *serverRunner) pass(mode passMode, id int32, tr *tracer) *passData {
	n := len(r.p.queries)
	pd := &passData{id: id, mode: mode, lat: make([]time.Duration, n), dig: make([]opDigest, n)}
	var before registrySnapshot
	var bytes0 int64
	if mode == traced {
		before = readRegistry(r.srv.Metrics())
		for _, w := range r.wires {
			bytes0 += w.bytes
		}
	}
	var engineSum engine.Counters
	var mu sync.Mutex
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	t0 := time.Now()
	for ci, cl := range r.clients {
		wg.Add(1)
		go func(ci int, cl *server.Client) {
			defer wg.Done()
			var first error
			var sum engine.Counters
			for i := ci; i < n; i += len(r.clients) {
				var root int32
				if mode == traced {
					root = tr.begin("client.roundtrip", id, int32(i), -1)
				}
				start := time.Now()
				out := cl.Query(context.Background(), r.p.queries[i])
				pd.lat[i] = time.Since(start)
				if mode == traced {
					tr.end(root)
				}
				if out.Code != guard.CodeOK || out.Resp == nil || out.Resp.Degraded {
					if first == nil {
						first = fmt.Errorf("%q: code %s, degraded %t: %v", r.p.queries[i], out.Code, out.Resp != nil && out.Resp.Degraded, out.Err)
					}
					continue
				}
				if mode == traced {
					tr.child("server.handle", root, out.Resp.ElapsedNs)
					if c := out.Resp.Counters; c != nil {
						sum.Add(*c)
					}
				}
				pd.dig[i] = digestText(renderResponse(out.Resp))
			}
			mu.Lock()
			if pd.err == nil {
				pd.err = first
			}
			engineSum.Add(sum)
			mu.Unlock()
		}(ci, cl)
	}
	wg.Wait() // the per-pass barrier
	pd.wall = time.Since(t0)
	pd.cpu = cpuTime() - cpu0
	if mode == traced {
		c := &pd.counts
		after := readRegistry(r.srv.Metrics())
		pd.queued = after.queued
		c.matchAttempts = after.matchAttempts - before.matchAttempts
		c.conditionChecks = after.conditionChecks - before.conditionChecks
		c.applications = after.applications - before.applications
		c.degraded = after.degraded - before.degraded
		c.cacheHits = after.cacheHits - before.cacheHits
		c.cacheMisses = after.cacheMisses - before.cacheMisses
		c.cacheEvictions = after.cacheEvictions - before.cacheEvictions
		c.shed = after.shed - before.shed
		c.spillPartitions = after.spillPartitions - before.spillPartitions
		c.spillBytes = after.spillBytes - before.spillBytes
		c.spillReads = after.spillReads - before.spillReads
		c.memPeak = after.memPeak
		c.scanned, c.joinPairs, c.emitted = int64(engineSum.Scanned), int64(engineSum.JoinPairs), int64(engineSum.Emitted)
		c.predEvals, c.fixIterations = int64(engineSum.PredEvals), int64(engineSum.FixIterations)
		for _, w := range r.wires {
			c.respBytes += w.bytes
		}
		c.respBytes -= bytes0
		for _, q := range r.p.queries {
			c.queryBytes += int64(len(q))
		}
	}
	return pd
}

// registrySnapshot is the part of the server's metrics registry — the
// same numbers /metrics exposes — that the benchmark reads.
type registrySnapshot struct {
	matchAttempts, conditionChecks, applications, degraded int64
	cacheHits, cacheMisses, cacheEvictions, shed, queued   int64
	spillPartitions, spillBytes, spillReads, memPeak       int64
	parse, translate, rewrite, execute, cacheHit, request  histSnapshot
}

type histSnapshot struct {
	count uint64
	sum   float64
}

func readRegistry(reg *obs.Registry) registrySnapshot {
	snap := reg.Snapshot()
	num := func(name string) int64 { v, _ := snap[name].(int64); return v }
	hist := func(name string) histSnapshot {
		h, _ := snap[name].(obs.HistogramSummary)
		return histSnapshot{h.Count, h.Sum}
	}
	var request histSnapshot
	series, _ := snap["lera_server_request_seconds"].(map[string]obs.HistogramSummary)
	for _, h := range series {
		request.count += h.Count
		request.sum += h.Sum
	}
	return registrySnapshot{
		matchAttempts:   num("lera_rewrite_match_attempts_total"),
		conditionChecks: num("lera_rewrite_condition_checks_total"),
		applications:    num("lera_rule_applications_total"),
		degraded:        num("lera_rewrite_degraded_total"),
		cacheHits:       num("lera_plancache_hits_total"),
		cacheMisses:     num("lera_plancache_misses_total"),
		cacheEvictions:  num("lera_plancache_evictions_total"),
		shed:            num("lera_server_shed_total"),
		queued:          num("lera_server_queued"),
		spillPartitions: num("lera_engine_spill_partitions_total"),
		spillBytes:      num("lera_engine_spill_bytes_total"),
		spillReads:      num("lera_engine_spill_reads_total"),
		memPeak:         num("lera_engine_mem_peak_bytes"),
		parse:           hist("lera_parse_seconds"),
		translate:       hist("lera_translate_seconds"),
		rewrite:         hist("lera_rewrite_seconds"),
		execute:         hist("lera_execute_seconds"),
		cacheHit:        hist("lera_plancache_hit_seconds"),
		request:         request,
	}
}

// cacheStages times the plan cache's two public functions on the
// workload's own terms, and collects from an in-process shadow session
// the counts a wire response does not carry. Called once, outside the
// timed window, by a traced served run.
func (r *serverRunner) cacheStages() (templatizeUs, substituteUs float64, c layerCounts, err error) {
	if r.shadow == nil {
		if r.shadow, err = newSession(r.p, ""); err != nil {
			return 0, 0, c, err
		}
	}
	var tmplNs, substNs []float64
	for _, q := range r.p.queries {
		res, err := r.shadow.Query(q)
		if err != nil {
			return 0, 0, c, err
		}
		c.translateNodes += int64(res.Initial.Size())
		c.rewriteNodesOut += int64(res.Rewritten.Size())
		c.rowsOut += int64(len(res.Rows))
		c.rowsCharged += res.Budget.RowsUsed
		t0 := time.Now()
		tmpl, params := plancache.Templatize(res.Initial)
		t1 := time.Now()
		_, serr := plancache.Substitute(tmpl, params)
		t2 := time.Now()
		if serr != nil {
			return 0, 0, c, serr
		}
		tmplNs = append(tmplNs, float64(t1.Sub(t0)))
		substNs = append(substNs, float64(t2.Sub(t1)))
	}
	return median(tmplNs) / 1e3, median(substNs) / 1e3, c, nil
}

// spillLeftovers counts the entries a run left in its spill directory.
func spillLeftovers(dir string) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	return len(entries)
}
