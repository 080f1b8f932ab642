// Command edsql is a small interactive shell over the ESQL session:
// statements end with ';', meta-commands start with '\'.
//
//	\q               quit
//	\rewrite on|off  toggle the rewriter
//	\plan on|off     print translated/rewritten LERA for each query
//	\counters        show and reset engine work counters
//	\trace on|off    record and print a span trace for each query
//	\metrics         print the session metrics (Prometheus text form)
//	\films           load the paper's Figure 2-5 example database
//	\tables          list relations and views
//	\check           verify the rule base (lint + differential testing)
//	\cache [clear]   plan-cache statistics / empty the cache (docs/PLANCACHE.md)
//	\slowlog [N]     show the last N slow-query captures (default all;
//	                 full EXPLAIN ANALYZE trees, docs/OBSERVABILITY.md)
//	\set parallelism N  size the intra-query worker pool (0 = all cores, 1 = serial)
//	\help            this text
//
// Guardrail flags (see docs/GUARDRAILS.md):
//
//	--timeout D      per-phase wall-clock budget (e.g. 2s, 500ms)
//	--max-steps N    cap on committed rule applications per query
//	--max-rows N     cap on rows materialized during execution
//	--max-mem N      per-operator memory grant in bytes; over-grant hash
//	                 structures spill to --spill-dir (results unchanged,
//	                 docs/PERF.md) or fail with MEM_BUDGET without one.
//	                 Governed queries report the tracked peak as a
//	                 "mem used/limit" clause in budget notices
//	--spill-dir DIR  where governed operators spill; files are removed
//	                 when each query finishes
//	--parallelism N  intra-query worker pool size (0 = all cores, 1 = serial;
//	                 results are bit-identical at every setting, see docs/PERF.md)
//	--plan-cache N   arm a plan cache of N entries (docs/PLANCACHE.md);
//	                 each query then prints its cache outcome (hit/miss)
//	--slow-threshold D  slow-query capture latency bound for \slowlog
//	                 (0 = default 500ms; degraded/failed queries are
//	                 captured regardless)
//
// When a budget interrupts the rewriter, the shell still answers the
// query from the fallback plan and prints a one-line degradation notice.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"lera"
	"lera/internal/guard"
)

func main() {
	timeout := flag.Duration("timeout", 0, "per-phase wall-clock budget for rewrite and execution (0 = none)")
	maxSteps := flag.Int("max-steps", 0, "cap on committed rule applications per query (0 = none)")
	maxRows := flag.Int("max-rows", 0, "cap on rows materialized during execution (0 = none)")
	maxMem := flag.Int64("max-mem", 0, "per-operator memory grant in bytes; over-grant operators spill to -spill-dir or fail (0 = none)")
	spillDir := flag.String("spill-dir", "", "directory for spill files under -max-mem (empty = no spilling, fail with MEM_BUDGET)")
	parallelism := flag.Int("parallelism", 0, "intra-query worker pool size (0 = all cores, 1 = serial)")
	planCache := flag.Int("plan-cache", 0, "plan-cache entries (0 = off; see docs/PLANCACHE.md)")
	planCacheVal := flag.Int("plan-cache-validate", 0, "re-validate every n'th plan-cache hit against a cold rewrite (0 = off)")
	slowThreshold := flag.Duration("slow-threshold", 0, "slow-query capture latency threshold for \\slowlog (0 = default 500ms)")
	flag.Parse()

	var opts []lera.Option
	if *planCache > 0 {
		opts = append(opts, lera.WithPlanCache(*planCache))
		if *planCacheVal > 0 {
			opts = append(opts, lera.WithPlanCacheValidation(*planCacheVal))
		}
	}
	limits := lera.Limits{Timeout: *timeout, MaxSteps: *maxSteps, MaxRows: *maxRows, MaxMemBytes: *maxMem}
	if err := errors.Join(
		limits.Validate(""),
		guard.NonNegative("", "-parallelism", int64(*parallelism)),
	); err != nil {
		fmt.Fprintln(os.Stderr, "edsql:", err)
		os.Exit(2)
	}
	s := lera.NewSession(opts...)
	s.Limits = limits
	s.SpillDir = *spillDir
	s.Parallelism = *parallelism
	s.Obs = lera.NewObserver()
	// Stats collection stays on so \slowlog entries retain the full
	// EXPLAIN ANALYZE operator tree (rendered output is unchanged:
	// OpStats only print through EXPLAIN ANALYZE and \slowlog).
	s.DB.CollectStats = true
	slowRing = lera.NewSlowLog(64, *slowThreshold)
	showPlan := true
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1024*1024), 1024*1024)

	fmt.Println("edsql — rule-based query rewriter shell (\\help for help)")
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("edsql> ")
		} else {
			fmt.Print("  ...> ")
		}
	}
	prompt()
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !meta(s, &showPlan, trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.Contains(line, ";") {
			src := buf.String()
			buf.Reset()
			run(s, showPlan, src)
		}
		prompt()
	}
}

// lastCache remembers the cache outcome of the most recently executed
// query so \metrics can report it alongside the Prometheus counters.
var lastCache *lera.PlanCacheOutcome

// slowRing is the shell's always-on slow-query capture ring (\slowlog):
// sized at startup, threshold from --slow-threshold.
var slowRing *lera.SlowLog

func meta(s *lera.Session, showPlan *bool, cmd string) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\q", "\\quit":
		return false
	case "\\rewrite":
		if len(fields) > 1 {
			s.Rewrite = fields[1] == "on"
		}
		fmt.Println("rewrite:", s.Rewrite)
	case "\\plan":
		if len(fields) > 1 {
			*showPlan = fields[1] == "on"
		}
		fmt.Println("plan:", *showPlan)
	case "\\trace":
		if len(fields) > 1 {
			s.Obs.Trace = fields[1] == "on"
		}
		fmt.Println("trace:", s.Obs.Trace)
	case "\\metrics":
		if err := s.Obs.Metrics.WritePrometheus(os.Stdout); err != nil {
			fmt.Println("error:", err)
		}
		if lastCache != nil {
			fmt.Printf("# last query: cache %s\n", lastCache.Describe("hit", "miss"))
		}
	case "\\counters":
		c := s.DB.Count
		fmt.Printf("scanned=%d joinPairs=%d emitted=%d predEvals=%d fixIterations=%d\n",
			c.Scanned, c.JoinPairs, c.Emitted, c.PredEvals, c.FixIterations)
		s.DB.ResetCounters()
	case "\\films":
		if err := s.LoadFilms(); err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println("Figure 2 schema, Figure 4/5 views and sample data loaded")
		}
	case "\\tables":
		fmt.Println("relations:", strings.Join(s.Cat.RelationNames(), ", "))
		fmt.Println("views:    ", strings.Join(s.Cat.ViewNames(), ", "))
	case "\\check":
		check(s)
	case "\\cache":
		if s.Plans == nil {
			fmt.Println("plan cache: off (start with --plan-cache N)")
			break
		}
		if len(fields) > 1 && fields[1] == "clear" {
			fmt.Printf("plan cache: %d entries dropped\n", s.Plans.Clear())
			break
		}
		st := s.Plans.Snapshot()
		fmt.Printf("plan cache: %d/%d entries\n", st.Entries, st.Capacity)
		fmt.Printf("  hits=%d misses=%d evictions=%d invalidations=%d\n", st.Hits, st.Misses, st.Evictions, st.Invalidations)
		fmt.Printf("  rejected_templates=%d validation_failures=%d\n", st.Rejections, st.ValidationFailures)
	case "\\slowlog":
		entries := slowRing.Snapshot()
		limit := len(entries)
		if len(fields) > 1 {
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				fmt.Println("usage: \\slowlog [N]")
				break
			}
			if n < limit {
				limit = n
			}
		}
		fmt.Printf("slow-query ring: %d/%d retained (threshold %s, %d captured, %d evicted)\n",
			len(entries), slowRing.Size(), slowRing.Threshold, slowRing.Captured(), slowRing.Evicted())
		for _, e := range entries[:limit] {
			fmt.Println(lera.FormatSlowEntry(e))
		}
	case "\\set":
		if len(fields) == 3 && fields[1] == "parallelism" {
			n := 0
			if _, err := fmt.Sscanf(fields[2], "%d", &n); err != nil || n < 0 {
				fmt.Println("usage: \\set parallelism N  (0 = all cores, 1 = serial)")
				break
			}
			s.Parallelism = n
		} else if len(fields) != 1 {
			fmt.Println("usage: \\set parallelism N")
			break
		}
		fmt.Println("parallelism:", s.Parallelism, "(0 = all cores, 1 = serial)")
	case "\\help":
		fmt.Println("statements end with ';'. Meta: \\q \\rewrite on|off \\plan on|off \\trace on|off \\metrics \\counters \\films \\tables \\check \\cache [clear] \\slowlog [N] \\set parallelism N")
	default:
		fmt.Println("unknown meta-command (try \\help)")
	}
	return true
}

// check verifies the session's rule base: the static lint plus the
// differential semantic tester, both bounded by the session Limits — so a
// shell started with --timeout applies that budget to every rewrite and
// execution phase the verifier runs.
func check(s *lera.Session) {
	ds, err := s.CheckRules(context.Background())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, d := range ds {
		fmt.Println(d)
	}
	errs, warns := 0, 0
	for _, d := range ds {
		switch d.Severity {
		case lera.SevError:
			errs++
		case lera.SevWarn:
			warns++
		}
	}
	fmt.Printf("rule base: %d finding(s) — %d error(s), %d warning(s)\n", len(ds), errs, warns)
	if errs == 0 {
		fmt.Println("ok: no error-level findings")
	}
}

func run(s *lera.Session, showPlan bool, src string) {
	t0 := time.Now()
	results, err := s.Exec(src)
	elapsed := time.Since(t0)
	if err != nil {
		// The bracketed code is the same stable vocabulary the server's
		// protocols speak (guard.CodeOf, docs/SERVER.md).
		fmt.Printf("error [%s]: %v\n", guard.CodeOf(err), err)
	}
	capture(t0, src, elapsed, results, err)
	for _, r := range results {
		if r.Kind == lera.ResultRows && showPlan {
			fmt.Println("translated:", lera.Format(r.Initial))
			if s.Rewrite {
				fmt.Println("rewritten: ", lera.Format(r.Rewritten))
			}
		}
		if r.Cache != nil {
			lastCache = r.Cache
			if r.Kind == lera.ResultRows {
				fmt.Println("cache", r.Cache.Describe("hit", "miss"))
			}
		}
		if st := r.RewriteStats(); st.Degraded {
			code := st.DegradationCode
			if code == "" {
				code = string(guard.CodeInternal)
			}
			fmt.Printf("notice: rewrite degraded [%s], answered from fallback plan — %s (budget: %s)\n",
				code, st.DegradationReason, r.Budget)
		}
		if r.Kind == lera.ResultRows && r.Report != nil && r.Report.Trace != nil {
			// The operators are the execution tree; the span tree stops at
			// the execute span, as in EXPLAIN ANALYZE.
			if ex := r.Report.Exec; ex != nil {
				fmt.Print("execution:\n")
				for _, c := range ex.Children {
					fmt.Print(c.Format(true))
				}
			}
			fmt.Print("trace:\n", lera.FormatTrace(r.Report.Trace, true))
		}
		fmt.Println(lera.FormatResult(r))
	}
}

// capture feeds the shell's slow-query ring after one run() chunk: every
// degraded or failed query is retained, and when the whole chunk crossed
// the latency threshold the last row-producing result is retained with
// its report (the shell times chunks, not statements, so attribution is
// per ';'-terminated input). A failed statement has no result — results
// hold the statements before it — so its entry carries the error and
// nothing of another statement's. Entries carry the chunk's start t0, as
// the server's carry the request's.
func capture(t0 time.Time, src string, elapsed time.Duration, results []*lera.Result, err error) {
	if slowRing == nil {
		return
	}
	query := strings.TrimSpace(src)
	add := func(r *lera.Result, err error) {
		slowRing.Add(lera.NewSlowEntry(t0, "", query, string(guard.CodeOf(err)), elapsed, r, err))
	}
	var last *lera.Result
	for _, r := range results {
		if r.Kind != lera.ResultRows {
			continue
		}
		last = r
		if st := r.RewriteStats(); st.Degraded {
			add(r, nil)
		}
	}
	switch {
	case err != nil:
		add(nil, err)
	case last != nil && !last.RewriteStats().Degraded && slowRing.ShouldCapture(elapsed, false, string(guard.CodeOK)):
		add(last, nil)
	}
}
