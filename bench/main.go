// Command bench is the repository's benchmark: five workloads, eight
// end-to-end metrics computed over each run's quiet set, and a traced
// run that times every layer from outside through its public entry
// points. README.md in this directory is the specification; run.sh is
// the entry point BENCHMARK.json names.
//
//	go run . -all                         every workload, every metric
//	go run . -workload exec_join -seed 2  one run
//	go run . -workload exec_join -trace 1 the per-layer metrics
//	go run . -compare A.jsonl B.jsonl     two sets of -out records
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"sort"
	"strconv"
)

func main() {
	var (
		name       = flag.String("workload", "", "run one workload: rewrite_cold, exec_join, exec_closure, exec_spill or served_mixed")
		all        = flag.Bool("all", false, "run every workload, each in a process of its own")
		seed       = flag.Int64("seed", 1, "seed of all generated data and query constants")
		seconds    = flag.Float64("seconds", defaultSeconds, "length of the timed window")
		trace      = flag.Int("trace", 0, "1: the traced run (per-layer metrics); 0: the untraced run (end-to-end metrics)")
		traceOut   = flag.String("trace-out", "", "with -trace 1: write every span to this file as JSON")
		out        = flag.String("out", "", "append the run's record to this file, one JSON object per line")
		smoke      = flag.Bool("smoke", false, "check answers only: skip the checks that refuse an untrustworthy run")
		tmp        = flag.String("tmp", ".bench_build/tmp", "directory for spill files")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		compare    = flag.Bool("compare", false, "compare two sets of records: -compare A.jsonl B.jsonl")
		regenDir   = flag.String("regen", "", "write expected/<workload>.json for seed 1 into this directory")
		printJSON  = flag.Bool("benchmark-json", false, "print BENCHMARK.json as generated from the metric tables")
		probeChild = flag.Bool("probe", false, "run as a host probe: one timing per line of input (what a run starts beside itself)")
	)
	flag.Parse()

	switch {
	case *probeChild:
		if err := probeMain(); err != nil {
			fatal(err)
		}
	case *printJSON:
		data, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
	case *regenDir != "":
		if err := regen(*regenDir); err != nil {
			fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two files of records"))
		}
		ok, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *all:
		if err := runAll(); err != nil {
			fatal(err)
		}
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q (use -workload <name> or -all)", *name))
		}
		cfg := runConfig{
			w: w, seed: *seed, seconds: *seconds, trace: *trace != 0,
			smoke: *smoke, tmpDir: *tmp, traceOut: *traceOut,
		}
		if err := runOne(cfg, *out, *cpuprofile); err != nil {
			fatal(err)
		}
	}
}

// runOne runs one workload and reports it. A run that failed operations
// is still reported (with correct: false) before the error is returned;
// a run refused for any other reason is not.
func runOne(cfg runConfig, outPath, profilePath string) error {
	if profilePath != "" {
		f, err := os.Create(profilePath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	res, err := runWorkload(cfg)
	if res != nil && (err == nil || res.Failed > 0) {
		if perr := report(res, outPath); perr != nil && err == nil {
			err = perr
		}
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// report prints every metric by name with its unit, then the one-line
// JSON result the driver reads, and appends the full record to outPath.
func report(res *runResult, outPath string) error {
	fmt.Printf("# workload=%s seed=%d trace=%t window=%gs passes=%d quiet_passes=%d samples=%d host_slowdown=%.3f attempted=%d failed=%d\n",
		res.Workload, res.Seed, res.Trace, res.Seconds, res.Passes, res.QuietPasses, res.Samples, res.Slowdown, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-28s %s %s\n", n, strconv.FormatFloat(m.Value, 'g', -1, 64), m.Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if outPath == "" {
		return nil
	}
	rec, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(outPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(rec, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a process of its own (a run is one
// workload in one process), passing the other flags through, and closes
// with a one-line JSON summary.
func runAll() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var pass []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "all" && f.Name != "workload" {
			pass = append(pass, "-"+f.Name+"="+f.Value.String())
		}
	})
	failed := []string{}
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"-workload", w.name}, pass...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			failed = append(failed, w.name)
		}
	}
	summary, err := json.Marshal(struct {
		Workloads int      `json:"workloads"`
		Failed    []string `json:"failed"`
		Claim     *string  `json:"claim"`
	}{len(workloads), failed, nil})
	if err != nil {
		return err
	}
	fmt.Println(string(summary))
	if len(failed) > 0 {
		return fmt.Errorf("%d workloads failed: %v", len(failed), failed)
	}
	return nil
}
