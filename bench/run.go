package main

// One run: one workload in one process — five from-scratch set-ups, a
// timed window of whole passes, verification, and the metrics computed
// from them. README.md ("How a run is measured") is the specification.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	setupRepeats = 5
	warmupPasses = 2

	// A window short of the passes the trust checks need is stretched to
	// at most this many times its length.
	maxStretch = 3

	// A run below any of these is refused rather than reported.
	minTimedOps     = 600
	minPasses       = 20
	maxInterference = 2.0
	minHitRatio     = 0.95
)

type runConfig struct {
	w        workload
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool // answer checking only: the trust checks are skipped
	tmpDir   string
	traceOut string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run's record: what -out appends and -compare reads.
type runResult struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Trace       bool                   `json:"trace"`
	Seconds     float64                `json:"seconds"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Passes      int                    `json:"passes"`
	QuietPasses int                    `json:"quiet_passes"`
	Samples     int                    `json:"samples"`
	Slowdown    float64                `json:"host_slowdown"` // the timing metrics are the measured ones over this
	Metrics     map[string]metricValue `json:"metrics"`
	Claim       *string                `json:"claim"` // the benchmark claims no gain: always null
}

// errRefused marks a run that finished but cannot be trusted.
var errRefused = errors.New("refusing to report")

func refuse(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errRefused, fmt.Sprintf(format, args...))
}

// totals are cumulative product counters a runner exposes without
// tracing.
type totals struct {
	spillPartitions, spillBytes, spillReads int64
	reg                                     registrySnapshot // served only
}

func (r *sessionRunner) totals() totals {
	sp := r.s.DB.Spill
	return totals{spillPartitions: sp.Partitions, spillBytes: sp.Bytes, spillReads: sp.Reads}
}

func (r *serverRunner) totals() totals {
	reg := readRegistry(r.srv.Metrics())
	return totals{spillPartitions: reg.spillPartitions, spillBytes: reg.spillBytes, spillReads: reg.spillReads, reg: reg}
}

func runWorkload(cfg runConfig) (*runResult, error) {
	p, err := cfg.w.gen(cfg.seed)
	if err != nil {
		return nil, err
	}
	spillDir := filepath.Join(cfg.tmpDir, fmt.Sprintf("spill-%d", os.Getpid()))
	if p.spill {
		if err := os.MkdirAll(spillDir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(spillDir)
	}

	r, first, setupS, err := setUp(cfg, p, spillDir)
	if err != nil {
		return nil, err
	}
	defer r.close()

	modes := []passMode{untraced}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		modes = append(modes, traced)
		if p.spill {
			modes = append(modes, ungoverned)
		}
	}
	probe, err := startProber()
	if err != nil {
		return nil, err
	}
	win, err := measure(r, probe, modes, passesNeeded(cfg, len(p.queries)), time.Duration(cfg.seconds*float64(time.Second)), tr)
	if serr := probe.stop(); err == nil && serr != nil {
		err = fmt.Errorf("host probe: %w", serr)
	}
	if err != nil {
		return nil, err
	}

	// Verification: the committed answers for seed 1, else the
	// unrewritten plan on a second session.
	var ref []digest
	if cfg.seed == 1 {
		if ref, err = loadExpected(p.workload); err == nil {
			if len(ref) != len(p.queries) {
				err = fmt.Errorf("expected/%s.json holds %d digests for %d queries: rerun -regen", p.workload, len(ref), len(p.queries))
			} else {
				err = checkClosed(p, ref)
			}
		}
	} else {
		ref, err = reference(p, false)
	}
	if err != nil {
		return nil, err
	}
	res := &runResult{
		Workload: p.workload, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
		Passes: len(win.passes), Metrics: map[string]metricValue{},
	}
	nops := len(p.queries)
	by := map[passMode][]*passData{}
	for _, pd := range win.passes {
		by[pd.mode] = append(by[pd.mode], pd)
		res.Attempted += nops
		for i := range pd.dig {
			var why string
			switch {
			case pd.dig[i].Bag == "":
				why = fmt.Sprint(pd.err)
			case first[i].digest != ref[i]:
				why = fmt.Sprintf("%q: %d rows, digest %s; the reference has %d rows, digest %s", p.queries[i], first[i].Rows, first[i].Bag, ref[i].Rows, ref[i].Bag)
			case pd.dig[i] != first[i]:
				why = fmt.Sprintf("%q: pass %d answered differently from the warm-up pass", p.queries[i], pd.id)
			default:
				continue
			}
			if res.Failed++; res.Failed <= 3 {
				fmt.Fprintln(os.Stderr, "bench: failed operation:", why)
			}
		}
	}
	res.Correct = res.Failed == 0

	// Timing metrics come from the untraced passes' quiet set.
	u := by[untraced]
	quiet := quietPasses(u)
	res.QuietPasses, res.Samples = len(quiet), len(quiet)*nops
	quietWall, quietCPU := sumWallCPU(quiet)
	walls := make([]float64, len(u))
	for i, pd := range u {
		walls[i] = float64(pd.wall)
	}
	interference := median(walls) / (float64(quietWall) / float64(len(quiet)))
	res.Slowdown = hostSlowdown(win.probes)

	if cfg.trace {
		lm := layerMetrics{
			p: p, r: r, by: by, tr: tr, tot0: win.tot0.reg, tot1: win.tot1.reg,
			gcCycles: float64(win.mem1.NumGC - win.mem0.NumGC), gcCPU: win.gcCPU, cpu: win.cpu.Seconds(),
			heapLive: win.heapLive, interference: interference, slowdown: res.Slowdown,
			passes: len(win.passes), quietOps: res.Samples,
		}
		if err := lm.compute(res.Metrics, cfg.smoke); err != nil {
			return res, err
		}
		if cfg.traceOut != "" {
			if err := writeTrace(cfg.traceOut, tr.spans); err != nil {
				return res, err
			}
		}
	} else {
		lat := pooledLatencies(quiet)
		ops := float64(res.Attempted)
		set := func(name string, v float64) {
			d, _ := findMetric(endToEnd, name)
			res.Metrics[name] = metricValue{v, d.Unit}
		}
		// Times are reported as a calm host would have measured them: over
		// the slowdown the host probe saw during the window (probe.go).
		h := res.Slowdown
		set("setup_s", setupS/h)
		set("query_p50_ms", quantile(lat, 0.5)/1e6/h)
		set("query_p90_ms", quantile(lat, 0.9)/1e6/h)
		set("throughput_qps", qps(quiet)*h)
		set("cpu_ms_per_query", ms(quietCPU)/float64(res.Samples)/h)
		set("alloc_kb_per_query", float64(win.mem1.TotalAlloc-win.mem0.TotalAlloc)/1024/ops)
		set("allocs_per_query", float64(win.mem1.Mallocs-win.mem0.Mallocs)/ops)
		set("peak_rss_mb", quantile(win.rss, 0.9)/(1<<20))
	}

	if res.Failed > 0 {
		return res, refuse("%d of %d operations failed", res.Failed, res.Attempted)
	}
	if cfg.smoke {
		return res, nil
	}

	// Trust checks.
	for _, m := range modes {
		if len(by[m]) < quietMinPasses {
			return res, refuse("only %d passes in mode %d (need %d): window too short", len(by[m]), m, quietMinPasses)
		}
	}
	if !cfg.trace {
		if ops := len(u) * nops; ops < minTimedOps || len(u) < minPasses {
			return res, refuse("%d timed operations in %d passes (need %d in %d)", ops, len(u), minTimedOps, minPasses)
		}
	}
	if res.Samples < quietMinOps {
		return res, refuse("quiet set holds %d operations (need %d)", res.Samples, quietMinOps)
	}
	if interference > maxInterference {
		return res, refuse("host.interference %.2f: the median pass took more than %.0fx a quiet pass", interference, maxInterference)
	}
	// A governed workload must spill and clean up after itself, an
	// ungoverned one must not spill at all, and a served one must hit its
	// plan cache and shed nothing.
	spilled := win.tot1.spillPartitions - win.tot0.spillPartitions
	switch {
	case p.spill && spilled == 0:
		return res, refuse("%s wrote no spill partition: the grant no longer forces a spill", p.workload)
	case p.spill && spillLeftovers(spillDir) > 0:
		return res, refuse("%s left %d entries behind in %s", p.workload, spillLeftovers(spillDir), spillDir)
	case !p.spill && spilled != 0:
		return res, refuse("%s spilled %d partitions: it must run in memory", p.workload, spilled)
	}
	if p.served {
		hits := float64(win.tot1.reg.cacheHits - win.tot0.reg.cacheHits)
		misses := float64(win.tot1.reg.cacheMisses - win.tot0.reg.cacheMisses)
		if hits/(hits+misses) < minHitRatio {
			return res, refuse("%s plancache.hit_ratio %.3f (need %.2f)", p.workload, hits/(hits+misses), minHitRatio)
		}
		if shed := win.tot1.reg.shed - win.tot0.reg.shed; shed > 0 {
			return res, refuse("%s shed %d requests at %d clients", p.workload, shed, servedClients)
		}
	}
	return res, nil
}

// setUp builds the workload's instance from scratch setupRepeats times,
// warm-up passes included, and returns the last instance, the digests of
// its last warm-up pass and the fastest set-up's seconds. A traced run
// reports no setup_s and sets up once.
func setUp(cfg runConfig, p *plan, spillDir string) (r runner, first []opDigest, fastest float64, err error) {
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if r != nil {
			// Close the previous instance and give its memory back, so
			// that every set-up starts from the same place.
			if err := r.close(); err != nil {
				return nil, nil, 0, err
			}
			r = nil
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		if p.served {
			r, err = newServerRunner(p)
		} else {
			r, err = newSessionRunner(p, spillDir)
		}
		if err != nil {
			return nil, nil, 0, err
		}
		for j := 0; j < warmupPasses; j++ {
			first = r.pass(untraced, -1, nil).dig
		}
		if d := time.Since(t0).Seconds(); i == 0 || d < fastest {
			fastest = d
		}
	}
	return r, first, fastest, nil
}

// window is what the timed window recorded.
type window struct {
	passes     []*passData
	probes     []time.Duration // the host probe, sampled after every pass
	rss        []float64       // resident set at every pass boundary, ascending
	mem0, mem1 runtime.MemStats
	tot0, tot1 totals
	gcCPU      float64       // seconds of GC CPU
	cpu        time.Duration // process CPU
	heapLive   float64
}

// passesNeeded is how many passes of each mode the trust checks ask of a
// window: none of a smoke run, enough for a quiet set of a traced one,
// and minTimedOps operations in minPasses passes of an untraced one.
func passesNeeded(cfg runConfig, nops int) int {
	atLeast := func(passes, ops int) int { return max(passes, (ops+nops-1)/nops) }
	switch {
	case cfg.smoke:
		return 0
	case cfg.trace:
		return atLeast(quietMinPasses, quietMinOps)
	}
	return atLeast(minPasses, minTimedOps)
}

// measure runs whole passes, cycling through modes, until d has elapsed
// — and past that, up to maxStretch times d, until every mode has run
// need passes: on a host several times slower than the one the lists
// were sized on, a longer window beats a refused run.
func measure(r runner, probe *prober, modes []passMode, need int, d time.Duration, tr *tracer) (*window, error) {
	w := &window{}
	runtime.GC()
	runtime.ReadMemStats(&w.mem0)
	gc0, cpu0 := gcCPUSeconds(), cpuTime()
	w.tot0 = r.totals()
	for start := time.Now(); ; {
		id := len(w.passes)
		if el := time.Since(start); el >= d && (id >= need*len(modes) || el >= maxStretch*d) {
			break
		}
		w.passes = append(w.passes, r.pass(modes[id%len(modes)], int32(id), tr))
		w.rss = append(w.rss, procStatus("VmRSS:"))
		for i := 0; i < probesPerPass; i++ {
			sample, err := probe.sample()
			if err != nil {
				return nil, err
			}
			w.probes = append(w.probes, sample)
		}
	}
	runtime.ReadMemStats(&w.mem1)
	w.gcCPU, w.cpu = gcCPUSeconds()-gc0, cpuTime()-cpu0
	w.tot1 = r.totals()
	w.heapLive = heapLiveBytes()
	sort.Float64s(w.rss)
	return w, nil
}

func quietPasses(passes []*passData) []*passData {
	if len(passes) == 0 {
		return nil
	}
	walls := make([]time.Duration, len(passes))
	for i, pd := range passes {
		walls[i] = pd.wall
	}
	var out []*passData
	for _, i := range quietSet(walls, len(passes[0].lat)) {
		out = append(out, passes[i])
	}
	return out
}

// pooledLatencies returns the passes' operation latencies in ns, sorted.
func pooledLatencies(passes []*passData) []float64 {
	var lat []float64
	for _, pd := range passes {
		for _, d := range pd.lat {
			lat = append(lat, float64(d))
		}
	}
	sort.Float64s(lat)
	return lat
}

func sumWallCPU(passes []*passData) (wall, cpu time.Duration) {
	for _, pd := range passes {
		wall += pd.wall
		cpu += pd.cpu
	}
	return wall, cpu
}

// qps is operations per second of wall time over a set of passes.
func qps(passes []*passData) float64 {
	wall, _ := sumWallCPU(passes)
	if wall == 0 {
		return 0
	}
	return float64(len(passes)*len(passes[0].lat)) / wall.Seconds()
}

// --- process and runtime readings ---

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStatus reads one field of /proc/self/status in bytes (0 where
// /proc does not say).
func procStatus(field string) float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb * 1024
		}
	}
	return 0
}

func readRuntimeMetric(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

func gcCPUSeconds() float64 {
	if v := readRuntimeMetric("/cpu/classes/gc/total:cpu-seconds"); v.Kind() == metrics.KindFloat64 {
		return v.Float64()
	}
	return 0
}

func heapLiveBytes() float64 {
	if v := readRuntimeMetric("/gc/heap/live:bytes"); v.Kind() == metrics.KindUint64 {
		return float64(v.Uint64())
	}
	return 0
}
