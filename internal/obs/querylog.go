package obs

import (
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Structured query log: one wide event per request, the "canonical log
// line" pattern. Instead of scattering a request's story across many
// narrow log lines, every field an operator (or the rule-discovery
// ranker, ROADMAP item 2) could want is folded into a single JSON
// object: who (tenant), what shape (template hash), how it was answered
// (cache outcome, degradation code), what it cost (phase timings, guard
// budget consumption, engine counter deltas).
//
// The emission path is bounded and never blocks a request: events go
// through a fixed-capacity channel drained by one background goroutine;
// when the channel is full the event is dropped and counted — drops are
// visible (lera_querylog_dropped_total), never silent. Sampling (keep 1
// in N) is applied before the channel and also counted, so
// emitted + dropped + sampled_out always equals the requests offered.

// QueryEvent is one wide query-log event. Fields are flat (no nested
// structs beyond Budget) so downstream line-oriented tooling can select
// on them without schema knowledge. Zero-valued optional fields are
// omitted.
type QueryEvent struct {
	Time   time.Time `json:"time"`
	Tenant string    `json:"tenant,omitempty"`
	Query  string    `json:"query,omitempty"`

	// Code is the protocol outcome code (OK, PARSE_ERROR, TIMEOUT,
	// OVERLOADED, ...) — the guard.Code vocabulary.
	Code  string `json:"code"`
	Error string `json:"error,omitempty"`

	// TemplateHash identifies the query shape (plancache templatizer);
	// rendered as hex for log greppability. Empty when the query never
	// reached the rewrite phase.
	TemplateHash string `json:"template_hash,omitempty"`
	// Cache is the plan-cache outcome: "hit", "miss", or "" when the server
	// has no plan cache or the request never reached it.
	Cache string `json:"cache,omitempty"`

	// Phase timings, nanoseconds. Zero when the phase did not run.
	ParseNs     int64 `json:"parse_ns,omitempty"`
	TranslateNs int64 `json:"translate_ns,omitempty"`
	RewriteNs   int64 `json:"rewrite_ns,omitempty"`
	ExecNs      int64 `json:"exec_ns,omitempty"`
	ElapsedNs   int64 `json:"elapsed_ns"`

	// Guard budget caps (0 = unlimited). What a query used of them is
	// Emitted (rows: every operator charges the rows it emits) and
	// Applications (steps: each committed rule application is one).
	RowsLimit  int64 `json:"rows_limit,omitempty"`
	StepsLimit int64 `json:"steps_limit,omitempty"`
	// Memory governor consumption: the tracked-memory peak against the
	// per-operator grant, all zero when the governor is off.
	MemPeakBytes int64 `json:"mem_peak_bytes,omitempty"`
	MemLimit     int64 `json:"mem_limit,omitempty"`

	// Engine counter deltas for this query.
	Scanned       int64 `json:"scanned,omitempty"`
	JoinPairs     int64 `json:"join_pairs,omitempty"`
	Emitted       int64 `json:"emitted,omitempty"`
	PredEvals     int64 `json:"pred_evals,omitempty"`
	FixIterations int64 `json:"fix_iterations,omitempty"`

	// Out-of-core activity for this query (spill-to-disk under the
	// memory governor): partitions written, bytes spilled, records
	// read back. All zero for queries that never spilled.
	SpillPartitions int64 `json:"spill_partitions,omitempty"`
	SpillBytes      int64 `json:"spill_bytes,omitempty"`
	SpillReads      int64 `json:"spill_reads,omitempty"`

	// Rewrite effort for this query.
	MatchAttempts int64 `json:"match_attempts,omitempty"`
	Applications  int64 `json:"applications,omitempty"`

	Rows     int64  `json:"rows"`
	Degraded bool   `json:"degraded,omitempty"`
	Reason   string `json:"degraded_reason,omitempty"`
}

// Sink receives drained query events. Emit is called from the drainer
// goroutine only, so implementations need no internal locking against
// concurrent Emit calls (Close may race with nothing: it is called once,
// after the drainer stops).
type Sink interface {
	Emit(ev QueryEvent)
	Close() error
}

// WriterSink writes events as JSON lines to an io.Writer.
type WriterSink struct {
	W io.Writer
	// CloseW, when set, is closed by Close (e.g. the underlying file).
	CloseW io.Closer
	enc    *json.Encoder
}

// Emit writes one event as a JSON line. Encode errors are swallowed —
// a broken sink must not take the server down; the drop shows up in the
// operator's file, not the request path.
func (s *WriterSink) Emit(ev QueryEvent) {
	if s.enc == nil {
		s.enc = json.NewEncoder(s.W)
	}
	_ = s.enc.Encode(ev)
}

// Close closes the underlying writer when it is closable.
func (s *WriterSink) Close() error {
	if s.CloseW != nil {
		return s.CloseW.Close()
	}
	return nil
}

// QueryLog fans query events into a sink through a bounded channel.
// A nil *QueryLog no-ops every method, so callers hold one field and
// never branch. Safe for concurrent Record calls.
type QueryLog struct {
	ch     chan QueryEvent
	sink   Sink
	sample int64 // keep 1 in sample (1 = keep all)
	seq    atomic.Int64

	emitted    atomic.Int64
	dropped    atomic.Int64
	sampledOut atomic.Int64

	done chan struct{}
	once sync.Once

	// closeMu serializes Record against Close so a late Record cannot
	// send on the closed channel; closed makes post-Close Records count
	// as drops rather than disappear.
	closeMu sync.RWMutex
	closed  bool
}

// DefaultQueryLogBuffer is the bounded-channel capacity between the
// request path and the drainer.
const DefaultQueryLogBuffer = 1024

// NewQueryLog starts a query log draining into sink. buffer <= 0 takes
// DefaultQueryLogBuffer; sample <= 1 keeps every event, sample = N keeps
// 1 in N (deterministic round-robin, not random, so low-rate tests are
// predictable).
func NewQueryLog(sink Sink, buffer, sample int) *QueryLog {
	if sink == nil {
		return nil
	}
	if buffer <= 0 {
		buffer = DefaultQueryLogBuffer
	}
	if sample < 1 {
		sample = 1
	}
	q := &QueryLog{
		ch:     make(chan QueryEvent, buffer),
		sink:   sink,
		sample: int64(sample),
		done:   make(chan struct{}),
	}
	go q.drain()
	return q
}

func (q *QueryLog) drain() {
	defer close(q.done)
	for ev := range q.ch {
		q.sink.Emit(ev)
		q.emitted.Add(1)
	}
}

// Record offers one event to the log: sampled out, enqueued, or dropped
// if the buffer is full. Never blocks. Nil-safe.
func (q *QueryLog) Record(ev QueryEvent) {
	if q == nil {
		return
	}
	if q.sample > 1 && q.seq.Add(1)%q.sample != 1 {
		q.sampledOut.Add(1)
		return
	}
	q.closeMu.RLock()
	defer q.closeMu.RUnlock()
	if q.closed {
		q.dropped.Add(1)
		return
	}
	select {
	case q.ch <- ev:
	default:
		q.dropped.Add(1)
	}
}

// Emitted, Dropped and SampledOut report the event accounting; their sum
// equals the number of Record calls once Close has drained the channel.
func (q *QueryLog) Emitted() int64 {
	if q == nil {
		return 0
	}
	return q.emitted.Load()
}

// Dropped reports events lost to a full buffer.
func (q *QueryLog) Dropped() int64 {
	if q == nil {
		return 0
	}
	return q.dropped.Load()
}

// SampledOut reports events skipped by the sampling policy.
func (q *QueryLog) SampledOut() int64 {
	if q == nil {
		return 0
	}
	return q.sampledOut.Load()
}

// Metric names for the query-log accounting, kept here so every
// endpoint that carries them agrees (docs/OBSERVABILITY.md).
const (
	MetricQuerylogEvents     = "lera_querylog_events_total"
	MetricQuerylogDropped    = "lera_querylog_dropped_total"
	MetricQuerylogSampledOut = "lera_querylog_sampled_out_total"
)

// SyncMetrics copies the current accounting into gauges on reg (gauges,
// not counters, because they are set from absolute values). Call from a
// scrape hook or periodically. Nil-safe on both sides.
func (q *QueryLog) SyncMetrics(reg *Registry) {
	if q == nil || reg == nil {
		return
	}
	reg.Gauge(MetricQuerylogEvents, "query-log events emitted to the sink").Set(q.Emitted())
	reg.Gauge(MetricQuerylogDropped, "query-log events dropped on a full buffer").Set(q.Dropped())
	reg.Gauge(MetricQuerylogSampledOut, "query-log events skipped by sampling").Set(q.SampledOut())
}

// Close stops accepting events, drains the buffer into the sink, and
// closes the sink. Safe to call more than once; nil-safe.
func (q *QueryLog) Close() error {
	if q == nil {
		return nil
	}
	q.once.Do(func() {
		q.closeMu.Lock()
		q.closed = true
		q.closeMu.Unlock()
		close(q.ch)
	})
	<-q.done
	return q.sink.Close()
}
