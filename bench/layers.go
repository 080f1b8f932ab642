package main

// Per-layer metrics of a traced run: medians of span self time over the
// traced passes' quiet set, product counters per operation, and the
// harness's own readings that say whether to believe the run.

import "fmt"

type layerMetrics struct {
	p          *plan
	r          runner
	by         map[passMode][]*passData
	tr         *tracer
	tot0, tot1 registrySnapshot // served: the registry before and after the window

	gcCycles, gcCPU, cpu, heapLive float64
	interference, slowdown         float64
	passes, quietOps               int
}

// inProcessStages are the child spans of an in-process operation, in
// pipeline order.
var inProcessStages = []string{"esql.parse", "translate.select", "rewrite.run", "lera.infer", "engine.eval", "core.format"}

func (lm *layerMetrics) compute(out map[string]metricValue, smoke bool) error {
	set := func(name string, v float64) {
		d, ok := findMetric(perLayer, name)
		if !ok {
			panic("bench: unknown per-layer metric " + name)
		}
		out[name] = metricValue{v, d.Unit}
	}
	for _, d := range perLayer {
		set(d.Name, 0)
	}
	u, t := lm.by[untraced], lm.by[traced]
	if len(t) == 0 || len(u) == 0 {
		return refuse("window too short for a traced run: %d untraced and %d traced passes", len(u), len(t))
	}
	nops := float64(len(lm.p.queries))

	// Counters: every traced pass must have moved them identically.
	c := t[0].counts
	for _, pd := range t[1:] {
		a, b := c, pd.counts
		a.respBytes, b.respBytes = 0, 0 // ElapsedNs changes the length of a response
		if a != b && !smoke {
			return refuse("product counters differ between traced passes: %+v vs %+v", c, pd.counts)
		}
	}

	quietU, quietT := quietPasses(u), quietPasses(t)
	quietIDs := map[int32]bool{}
	for _, pd := range quietT {
		quietIDs[pd.id] = true
	}
	sum := summarize(lm.tr.spans, quietIDs)
	selfUs := func(name string) float64 { return sum.selfMedianNs[name] / 1e3 }

	if sr, ok := lm.r.(*serverRunner); ok {
		d := func(a, b histSnapshot) (sum, mean float64) {
			n := float64(b.count - a.count)
			if n == 0 {
				return 0, 0
			}
			return b.sum - a.sum, (b.sum - a.sum) / n
		}
		parseSum, parseMean := d(lm.tot0.parse, lm.tot1.parse)
		transSum, transMean := d(lm.tot0.translate, lm.tot1.translate)
		rewSum, rewMean := d(lm.tot0.rewrite, lm.tot1.rewrite)
		execSum, execMean := d(lm.tot0.execute, lm.tot1.execute)
		_, hitMean := d(lm.tot0.cacheHit, lm.tot1.cacheHit)
		reqSum, _ := d(lm.tot0.request, lm.tot1.request)
		hits := float64(lm.tot1.cacheHits - lm.tot0.cacheHits)
		misses := float64(lm.tot1.cacheMisses - lm.tot0.cacheMisses)
		// The server's own phase timers (means; the wire carries no
		// spans). The rewrite phase of a hit is the cache lookup, so the
		// rewriter's time is reported only when it actually ran.
		set("esql.parse_us", parseMean*1e6)
		set("translate.select_us", transMean*1e6)
		set("engine.eval_ms", execMean*1e3)
		if misses > 0 {
			set("rewrite.run_us", rewMean*1e6)
		}
		set("plancache.hit_us", hitMean*1e6)
		if hits+misses > 0 {
			set("plancache.hit_ratio", hits/(hits+misses))
		}
		if reqSum > 0 {
			set("server.phase_share", (parseSum+transSum+rewSum+execSum)/reqSum)
		}
		set("plancache.entries", float64(lm.tot1.cacheMisses-lm.tot1.cacheEvictions))
		set("plancache.evictions", float64(lm.tot1.cacheEvictions-lm.tot0.cacheEvictions))
		set("guard.shed_total", float64(lm.tot1.shed-lm.tot0.shed))
		queuedMax := int64(0)
		for _, pd := range t {
			queuedMax = max(queuedMax, pd.queued)
		}
		set("guard.queued_max", float64(queuedMax))
		set("server.handle_ms", selfUs("server.handle")/1e3)
		set("server.wire_overhead_ms", selfUs("client.roundtrip")/1e3)
		set("server.resp_bytes", float64(c.respBytes)/nops)

		tmplUs, substUs, shadow, err := sr.cacheStages()
		if err != nil {
			return fmt.Errorf("plan-cache stages: %w", err)
		}
		set("plancache.templatize_us", tmplUs)
		set("plancache.substitute_us", substUs)
		c.translateNodes, c.rewriteNodesOut = shadow.translateNodes, shadow.rewriteNodesOut
		c.rowsOut, c.rowsCharged = shadow.rowsOut, shadow.rowsCharged
	} else {
		set("esql.parse_us", selfUs("esql.parse"))
		set("translate.select_us", selfUs("translate.select"))
		set("rewrite.run_us", selfUs("rewrite.run"))
		set("lera.infer_us", selfUs("lera.infer"))
		set("engine.eval_ms", selfUs("engine.eval")/1e3)
		set("core.format_us", selfUs("core.format"))
		// What the session adds around the layers it calls: the mean
		// untraced operation against the mean of its stages' sum (means,
		// because the medians of a mixed list do not add up).
		staged := 0.0
		for _, name := range inProcessStages {
			staged += sum.selfSumNs[name]
		}
		set("core.glue_us", 1e6/qps(quietU)-staged/1e3/(nops*float64(len(quietT))))

		var search, fix, other []float64
		for _, pd := range quietT {
			for _, e := range pd.engine {
				search = append(search, ms(e.search))
				fix = append(fix, ms(e.fix))
				other = append(other, ms(e.other))
			}
		}
		set("engine.search_self_ms", median(search))
		set("engine.fix_self_ms", median(fix))
		set("engine.other_self_ms", median(other))
	}

	set("esql.query_bytes", float64(c.queryBytes)/nops)
	set("translate.term_nodes", float64(c.translateNodes)/nops)
	set("rewrite.match_attempts", float64(c.matchAttempts)/nops)
	set("rewrite.condition_checks", float64(c.conditionChecks)/nops)
	set("rewrite.applications", float64(c.applications)/nops)
	set("rewrite.rounds", float64(c.rounds)/nops)
	if c.matchAttempts > 0 {
		set("rewrite.useful_ratio", float64(c.applications)/float64(c.matchAttempts))
	}
	set("rewrite.term_nodes_out", float64(c.rewriteNodesOut)/nops)
	set("rewrite.degraded", float64(c.degraded))
	set("engine.rows_scanned", float64(c.scanned)/nops)
	set("engine.join_pairs", float64(c.joinPairs)/nops)
	set("engine.rows_emitted", float64(c.emitted)/nops)
	set("engine.pred_evals", float64(c.predEvals)/nops)
	set("engine.fix_iterations", float64(c.fixIterations)/nops)
	set("engine.rows_out", float64(c.rowsOut)/nops)
	if c.scanned > 0 {
		set("engine.emit_ratio", float64(c.rowsOut)/float64(c.scanned))
	}
	set("engine.mem_peak_kb", float64(c.memPeak)/1024)
	set("guard.rows_charged", float64(c.rowsCharged)/nops)
	set("spill.partitions", float64(c.spillPartitions)/nops)
	set("spill.bytes_written", float64(c.spillBytes)/nops)
	set("spill.records_read", float64(c.spillReads)/nops)
	if c.spillReads > 0 {
		set("spill.bytes_per_build_row", float64(c.spillBytes)/float64(c.spillReads))
	}
	if g := lm.by[ungoverned]; len(g) > 0 {
		set("spill.overhead_ms", 1e3/qps(quietU)-1e3/qps(quietPasses(g)))
	}

	set("runtime.gc_cycles", lm.gcCycles)
	if lm.cpu > 0 {
		set("runtime.gc_cpu_pct", 100*lm.gcCPU/lm.cpu)
	}
	set("runtime.heap_live_mb", lm.heapLive/(1<<20))
	set("host.interference", lm.interference)
	set("host.slowdown", lm.slowdown)
	set("host.passes", float64(lm.passes))
	set("host.quiet_ops", float64(lm.quietOps))
	set("trace.overhead_pct", 100*(qps(quietU)-qps(quietT))/qps(quietU))
	set("trace.coverage_pct", sum.coveragePct)

	if smoke {
		return nil
	}
	if c.degraded > 0 {
		return refuse("%d rewrites degraded", c.degraded)
	}
	if limit := lm.p.maxExecuteShare; limit > 0 {
		if share := sum.selfSumNs["engine.eval"] / sum.rootNs; share > limit {
			return refuse("%s execute share %.0f%% (limit %.0f%%): execution is no longer negligible", lm.p.workload, 100*share, 100*limit)
		}
	}
	return nil
}
