package main

// The benchmark's own span recorder. Spans are recorded from outside the
// product, around calls into each layer's public entry point; they stay
// in memory until the run ends and are written out only on -trace-out.

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed region. Spans of one operation share Op; Parent is
// the index of the span that caused this one (-1 for an operation's
// root).
type span struct {
	Name   string `json:"name"`
	Pass   int32  `json:"pass"`
	Op     int32  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans. The two wire clients record concurrently, hence
// the lock; in process there is one caller and it is uncontended.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index, to be passed to end and used
// as the parent of its children.
func (t *tracer) begin(name string, pass, op, parent int32) int32 {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Pass: pass, Op: op, Parent: parent, Start: t.now()})
	id := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// child records an already-measured span of length dur centred inside
// its parent — the server's self-reported ElapsedNs under the client's
// round trip, whose exact position on the client's clock is unknown.
func (t *tracer) child(name string, parent int32, dur int64) {
	t.mu.Lock()
	p := t.spans[parent]
	start := p.Start + (p.dur()-dur)/2
	t.spans = append(t.spans, span{Name: name, Pass: p.Pass, Op: p.Op, Parent: parent, Start: start, End: start + dur})
	t.mu.Unlock()
}

// selfTimes returns, for each span, its duration minus the durations of
// its direct children.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// traceSummary is what the per-layer metrics read from a traced run.
type traceSummary struct {
	selfMedianNs map[string]float64 // median self time per span name
	selfSumNs    map[string]float64 // total self time per span name
	rootNs       float64            // total duration of the root spans
	coveragePct  float64            // share of root time the children explain
}

// summarize reduces the spans of the given passes (the quiet set of the
// traced passes) to per-name median self times and root coverage.
func summarize(spans []span, passes map[int32]bool) traceSummary {
	self := selfTimes(spans)
	byName := map[string][]float64{}
	var rootDur, rootSelf int64
	for i, s := range spans {
		if !passes[s.Pass] {
			continue
		}
		byName[s.Name] = append(byName[s.Name], float64(self[i]))
		if s.Parent < 0 {
			rootDur += s.dur()
			rootSelf += self[i]
		}
	}
	sum := traceSummary{selfMedianNs: map[string]float64{}, selfSumNs: map[string]float64{}, rootNs: float64(rootDur)}
	for name, xs := range byName {
		for _, x := range xs {
			sum.selfSumNs[name] += x
		}
		sum.selfMedianNs[name] = median(xs)
	}
	if rootDur > 0 {
		sum.coveragePct = 100 * float64(rootDur-rootSelf) / float64(rootDur)
	}
	return sum
}

// writeTrace dumps every span as one JSON array.
func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
