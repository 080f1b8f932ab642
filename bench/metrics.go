package main

// The metric catalogue: every name the benchmark prints, with its unit,
// its direction and — for end-to-end metrics — the share of the parent's
// median by which it may worsen before a change counts as a regression.
// BENCHMARK.json at the repository root is generated from these tables
// (-benchmark-json) and a self-test keeps the two in step. Definitions
// are in README.md.

import (
	"encoding/json"
)

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only
	Exact  bool    // per-layer only: must repeat exactly for a given seed
}

// defaultSeconds is the timed window of one run, the same on every
// commit; it is BENCHMARK.json's run_seconds.
const defaultSeconds = 16

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_query", Unit: "KB", Better: "lower", Bound: 0.04},
	{Name: "allocs_per_query", Unit: "1", Better: "lower", Bound: 0.04},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

var perLayer = []metricDef{
	{Name: "esql.parse_us", Unit: "us", Better: "lower"},
	{Name: "esql.query_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "translate.select_us", Unit: "us", Better: "lower"},
	{Name: "translate.term_nodes", Unit: "count", Better: "lower", Exact: true},
	{Name: "rewrite.run_us", Unit: "us", Better: "lower"},
	{Name: "rewrite.match_attempts", Unit: "count", Better: "lower", Exact: true},
	{Name: "rewrite.condition_checks", Unit: "count", Better: "lower", Exact: true},
	{Name: "rewrite.applications", Unit: "count", Better: "lower", Exact: true},
	{Name: "rewrite.rounds", Unit: "count", Better: "lower", Exact: true},
	{Name: "rewrite.useful_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "rewrite.term_nodes_out", Unit: "count", Better: "lower", Exact: true},
	{Name: "rewrite.degraded", Unit: "count", Better: "lower", Exact: true},
	{Name: "lera.infer_us", Unit: "us", Better: "lower"},
	{Name: "engine.eval_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.rows_scanned", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.join_pairs", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.rows_emitted", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.pred_evals", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.fix_iterations", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.rows_out", Unit: "count", Better: "lower", Exact: true},
	{Name: "engine.emit_ratio", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "engine.search_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.fix_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.other_self_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.mem_peak_kb", Unit: "KB", Better: "lower", Exact: true},
	{Name: "spill.partitions", Unit: "count", Better: "lower", Exact: true},
	{Name: "spill.bytes_written", Unit: "B", Better: "lower", Exact: true},
	{Name: "spill.records_read", Unit: "count", Better: "lower", Exact: true},
	{Name: "spill.bytes_per_build_row", Unit: "B", Better: "lower", Exact: true},
	{Name: "spill.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "plancache.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "plancache.hit_us", Unit: "us", Better: "lower"},
	{Name: "plancache.templatize_us", Unit: "us", Better: "lower"},
	{Name: "plancache.substitute_us", Unit: "us", Better: "lower"},
	{Name: "plancache.entries", Unit: "count", Better: "lower"},
	{Name: "plancache.evictions", Unit: "count", Better: "lower"},
	{Name: "guard.shed_total", Unit: "count", Better: "lower"},
	{Name: "guard.queued_max", Unit: "count", Better: "lower"},
	{Name: "guard.rows_charged", Unit: "count", Better: "lower", Exact: true},
	{Name: "server.handle_ms", Unit: "ms", Better: "lower"},
	{Name: "server.wire_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "server.phase_share", Unit: "ratio", Better: "higher"},
	{Name: "core.glue_us", Unit: "us", Better: "lower"},
	{Name: "core.format_us", Unit: "us", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_pct", Unit: "%", Better: "lower"},
	{Name: "runtime.heap_live_mb", Unit: "MB", Better: "lower"},
	{Name: "host.interference", Unit: "ratio", Better: "lower"},
	{Name: "host.slowdown", Unit: "ratio", Better: "lower"},
	{Name: "host.passes", Unit: "count", Better: "higher"},
	{Name: "host.quiet_ops", Unit: "count", Better: "higher"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.coverage_pct", Unit: "%", Better: "higher"},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
