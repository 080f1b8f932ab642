// Command leraserver serves the LERA pipeline to network clients: an
// HTTP/JSON API, multi-tenant guard budgets, admission control with typed
// shedding, graceful drain on SIGTERM/SIGINT, and an optional
// deterministic chaos mode for robustness testing. See docs/SERVER.md.
//
//	leraserver -addr :7457 -films -tenants tenants.json
//	leraserver -addr :7457 -films -chaos 'server.request:stall:every=10:stall=5ms'
//	leraserver -addr :7457 -films -query-log queries.jsonl -slow-threshold 250ms
//
// Endpoints: POST/GET /query, GET /metrics (Prometheus text), GET
// /healthz (503 while draining), GET /debug/slowlog (the slow-query
// capture ring; docs/OBSERVABILITY.md). With -pprof-addr a
// net/http/pprof server runs on a separate listener (off by default —
// profiling endpoints never share the query port).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux for -pprof-addr
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"lera/internal/guard"
	"lera/internal/obs"
	"lera/internal/server"
)

// options collects the flag values run needs.
type options struct {
	addr         string
	films        bool
	initFile     string
	rulesFile    string
	tenantsFile  string
	chaosSpec    string
	maxInFlight  int
	maxQueue     int
	drainTimeout time.Duration
	drainGrace   time.Duration
	parallelism  int
	planCache    int
	planCacheVal int
	maxMem       int64
	spillDir     string

	queryLog       string
	queryLogSample int
	queryLogBuffer int
	slowlogSize    int
	slowThreshold  time.Duration
	pprofAddr      string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:7457", "HTTP listen address")
	flag.BoolVar(&o.films, "films", false, "load the paper's Figure 2-5 example database")
	flag.StringVar(&o.initFile, "init", "", "ESQL file executed at boot (DDL, views, INSERTs)")
	flag.StringVar(&o.rulesFile, "rules", "", "extra rule-language source merged into the rule base")
	flag.StringVar(&o.tenantsFile, "tenants", "", "tenant-config JSON file (per-tenant guard budgets)")
	flag.StringVar(&o.chaosSpec, "chaos", "", "chaos spec, e.g. 'member:error:every=7,server.request:stall:every=5:stall=20ms'")
	flag.IntVar(&o.maxInFlight, "max-inflight", 8, "max concurrently executing queries (= session-pool size)")
	flag.IntVar(&o.maxQueue, "max-queue", 0, "max queries waiting for a slot (0 = 2*max-inflight, negative = none)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "graceful-drain wait before cancelling in-flight work")
	flag.DurationVar(&o.drainGrace, "drain-grace", 2*time.Second, "post-cancel wait for cancellations to land")
	flag.IntVar(&o.parallelism, "parallelism", 1, "intra-query parallelism per session (0 = GOMAXPROCS)")
	flag.IntVar(&o.planCache, "plancache", 0, "plan-cache entries shared by the session pool (0 = off)")
	flag.IntVar(&o.planCacheVal, "plancache-validate", 0, "re-validate every n'th plan-cache hit against a cold rewrite (0 = off)")
	flag.Int64Var(&o.maxMem, "max-mem", 0, "per-operator memory grant in bytes for tenants without their own maxMemBytes (0 = ungoverned)")
	flag.StringVar(&o.spillDir, "spill-dir", "", "directory for spill files when an operator outgrows its memory grant (empty = fail with MEM_BUDGET)")
	flag.StringVar(&o.queryLog, "query-log", "", "structured query log: JSON-lines file, one wide event per request ('-' = stderr)")
	flag.IntVar(&o.queryLogSample, "query-log-sample", 1, "keep 1 in N query-log events (1 = all; skipped events are counted)")
	flag.IntVar(&o.queryLogBuffer, "query-log-buffer", 0, "query-log channel capacity (0 = default; overflow drops are counted)")
	flag.IntVar(&o.slowlogSize, "slowlog", 0, "slow-query ring capacity (0 = default 64, negative = disabled)")
	flag.DurationVar(&o.slowThreshold, "slow-threshold", 0, "slow-query capture latency threshold (0 = default 500ms)")
	flag.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "leraserver:", err)
		// A negative limit in a flag or the tenants file is a usage error.
		var ce *guard.ConfigError
		if errors.As(err, &ce) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

func run(o options) error {
	ob := obs.NewObserver()
	obs.RegisterBuildInfo(ob.Metrics, commit(), runtime.Version())
	cfg := server.Config{
		LoadFilms:           o.films,
		MaxInFlight:         o.maxInFlight,
		MaxQueue:            o.maxQueue,
		DrainTimeout:        o.drainTimeout,
		DrainGrace:          o.drainGrace,
		Parallelism:         o.parallelism,
		PlanCache:           o.planCache,
		PlanCacheValidation: o.planCacheVal,
		MaxMemBytes:         o.maxMem,
		SpillDir:            o.spillDir,
		Observer:            ob,
		ErrorLog:            os.Stderr,
		SlowLogSize:         o.slowlogSize,
		SlowThreshold:       o.slowThreshold,
	}
	if o.planCache > 0 {
		fmt.Fprintf(os.Stderr, "leraserver: plan cache armed (%d entries)\n", o.planCache)
	}
	if o.queryLog != "" {
		sink := &obs.WriterSink{W: os.Stderr}
		if o.queryLog != "-" {
			f, err := os.Create(o.queryLog)
			if err != nil {
				return fmt.Errorf("opening query log: %w", err)
			}
			sink = &obs.WriterSink{W: f, CloseW: f}
		}
		cfg.QueryLog = obs.NewQueryLog(sink, o.queryLogBuffer, o.queryLogSample)
		fmt.Fprintf(os.Stderr, "leraserver: query log on (%s, sample 1/%d)\n", o.queryLog, max(o.queryLogSample, 1))
	}
	if o.initFile != "" {
		src, err := os.ReadFile(o.initFile)
		if err != nil {
			return err
		}
		cfg.InitESQL = string(src)
	}
	if o.rulesFile != "" {
		src, err := os.ReadFile(o.rulesFile)
		if err != nil {
			return err
		}
		cfg.Rules = string(src)
	}
	if o.tenantsFile != "" {
		t, err := server.LoadTenants(o.tenantsFile)
		if err != nil {
			return err
		}
		cfg.Tenants = t
	}
	if o.chaosSpec != "" {
		faults, err := server.ParseChaos(o.chaosSpec)
		if err != nil {
			return err
		}
		cfg.Chaos = faults
		fmt.Fprintf(os.Stderr, "leraserver: chaos mode armed (%d faults)\n", len(faults))
	}

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if len(cfg.Tenants) > 0 {
		fmt.Fprintf(os.Stderr, "leraserver: tenants %v\n", cfg.Tenants.Names())
	}

	if o.pprofAddr != "" {
		// pprof on its own listener, never the query port: the blank
		// net/http/pprof import registered /debug/pprof on the default
		// mux, so serving that mux here is the whole integration.
		go func() {
			fmt.Fprintf(os.Stderr, "leraserver: pprof on %s/debug/pprof\n", o.pprofAddr)
			if err := http.ListenAndServe(o.pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "leraserver: pprof server:", err)
			}
		}()
	}

	// SIGTERM/SIGINT starts the graceful drain; a second signal is the
	// operator insisting, so exit hard.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "leraserver: %v — draining (timeout %v)\n", sig, o.drainTimeout)
		go func() {
			<-sigCh
			fmt.Fprintln(os.Stderr, "leraserver: second signal — exiting immediately")
			os.Exit(2)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout+o.drainGrace+5*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "leraserver: drain:", err)
		}
	}()

	fmt.Fprintf(os.Stderr, "leraserver: listening on %s (HTTP)\n", o.addr)
	return srv.ListenAndServe(o.addr)
}

// commit returns the git revision the binary was built from, for the
// lera_build_info metric, with a "-dirty" suffix when the working tree
// was modified, or "unknown" when neither the vcs stamp the Go linker
// embeds in module builds (present even in a binary deployed far from
// the checkout) nor a git checkout (which covers `go run` from the repo)
// is available.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
