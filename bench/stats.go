package main

// Estimators. Interference on a shared host only ever slows a pass, so
// every timing metric is computed over the quiet set — the fastest
// quarter of the window's passes — never over the whole window (see
// README.md, "The quiet-set rule").

import (
	"math"
	"sort"
	"time"
)

const (
	quietMinPasses = 5
	quietMinOps    = 150
)

// quietSet returns the indices of the fastest quarter of passes by wall
// time: at least quietMinPasses of them, extended until they hold
// quietMinOps operations, and never more than there are. Indices come
// back in increasing wall-time order.
func quietSet(walls []time.Duration, opsPerPass int) []int {
	idx := make([]int, len(walls))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return walls[idx[a]] < walls[idx[b]] })
	n := (len(walls) + 3) / 4
	if n < quietMinPasses {
		n = quietMinPasses
	}
	for opsPerPass > 0 && n*opsPerPass < quietMinOps {
		n++
	}
	if n > len(walls) {
		n = len(walls)
	}
	return idx[:n]
}

// quantile is the linearly interpolated q-quantile (0 <= q <= 1) of an
// ascending slice; 0 for an empty one.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// median sorts xs in place and returns its median.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is
// what the benchmark's acceptance check applies to ten runs. xs needs
// at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return cut(1), cut(2), cut(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
