package main

// -compare: two sets of run records (-out files), per workload x metric
// each set's median and quartiles and the relative difference of the
// medians; a difference beyond the metric's bound, a set whose own
// interquartile spread exceeds it, or a counter that must repeat exactly
// and did not, fails the comparison.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

const minSetSize = 5

func readRecords(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runResult
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// series collects one metric's values per (workload, traced) group.
type series map[string]map[string][]float64 // workload -> metric -> values

func collect(recs []runResult, traced bool) series {
	s := series{}
	for _, r := range recs {
		if r.Trace != traced {
			continue
		}
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], m.Value)
		}
	}
	return s
}

// compareSets prints the comparison and reports whether the two sets
// agree.
func compareSets(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fail := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(w, "FAIL "+format+"\n", args...)
	}

	// End-to-end: medians within the bound, in the worsening direction
	// and the improving one alike — two sets of the same code must agree.
	ea, eb := collect(a, false), collect(b, false)
	fmt.Fprintf(w, "%-14s %-20s %5s %12s %8s %12s %8s %8s %7s\n", "workload", "metric", "n", "median A", "iqr A", "median B", "iqr B", "diff", "bound")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, xb := ea[wl.name][d.Name], eb[wl.name][d.Name]
			if len(xa) < minSetSize || len(xb) < minSetSize {
				fail("%s/%s: %d and %d runs (need %d in each set)", wl.name, d.Name, len(xa), len(xb), minSetSize)
				continue
			}
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			diff := (b2 - a2) / a2
			mark := ""
			switch {
			case diff > d.Bound || diff < -d.Bound:
				mark = "  <-- medians differ beyond the bound"
				ok = false
			case d.Name != "setup_s" && ((a3-a1)/a2 > d.Bound || (b3-b1)/b2 > d.Bound):
				// The driver's acceptance rule: a set's own spread must
				// stay within the bound (setup_s is exempt).
				mark = "  <-- spread beyond the bound"
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-20s %2d/%-2d %12.5g %7.2f%% %12.5g %7.2f%% %+7.2f%% %6.0f%%%s\n",
				wl.name, d.Name, len(xa), len(xb), a2, 100*(a3-a1)/a2, b2, 100*(b3-b1)/b2, 100*diff, 100*d.Bound, mark)
		}
	}

	// Per-layer: shown for the record; the exact-repeat counters must be
	// equal across every run of a seed, in both sets together.
	la, lb := collect(a, true), collect(b, true)
	if len(la) > 0 || len(lb) > 0 {
		fmt.Fprintf(w, "\n%-14s %-28s %5s %12s %12s\n", "workload", "per-layer metric", "n", "median A", "median B")
	}
	for _, wl := range workloads {
		for _, d := range perLayer {
			xa, xb := la[wl.name][d.Name], lb[wl.name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-14s %-28s %2d/%-2d %12.5g %12.5g\n", wl.name, d.Name, len(xa), len(xb), median(append([]float64(nil), xa...)), median(append([]float64(nil), xb...)))
		}
	}
	type key struct {
		workload, metric string
		seed             int64
	}
	seen := map[key]float64{}
	for _, r := range append(append([]runResult(nil), a...), b...) {
		if !r.Trace {
			continue
		}
		for _, d := range perLayer {
			m, have := r.Metrics[d.Name]
			if !d.Exact || !have {
				continue
			}
			k := key{r.Workload, d.Name, r.Seed}
			if v, dup := seen[k]; !dup {
				seen[k] = m.Value
			} else if v != m.Value {
				fail("%s/%s at seed %d: %v in one run, %v in another (must repeat exactly)", k.workload, k.metric, k.seed, v, m.Value)
			}
		}
	}
	if len(seen) > 0 && ok {
		fmt.Fprintf(w, "\n%d exact-repeat counters (workload x metric x seed) identical across all traced runs\n", len(seen))
	}
	return ok, nil
}
