package core

// SlowLog is the always-on slow-query capture ring: a fixed-size,
// concurrency-safe ring buffer retaining the full QueryReport — the
// EXPLAIN ANALYZE operator tree, rewrite counters, phase timings and
// budget consumption — for queries that crossed a latency threshold or
// ended degraded / budget-tripped. Unlike tracing (opt-in, per query)
// or EXPLAIN ANALYZE (requires re-running the query), the ring means
// the evidence for "what was that 2s query at 03:14" is already
// captured when the operator looks.
//
// Memory is bounded twice: the ring holds at most its configured size
// (older entries are overwritten, Evicted counts them), and each entry
// truncates its query text to MaxSlowQueryLen bytes (Entry.Truncated
// marks it). The QueryReport itself is bounded by construction — the
// span tree and operator stats cap their fanout (internal/obs).

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"lera/internal/guard"
	"lera/internal/obs"
)

// MaxSlowQueryLen caps the retained query text per slow-log entry.
const MaxSlowQueryLen = 4096

// DefaultSlowThreshold is the capture latency threshold when the caller
// does not choose one.
const DefaultSlowThreshold = 500 * time.Millisecond

// SlowEntry is one captured slow query: the query-log event of the
// request plus what only the ring keeps. Its JSON form is the event's
// flat fields, query_truncated, and (on /debug/slowlog) the rendered
// report.
type SlowEntry struct {
	obs.QueryEvent

	// Report is the full per-query observability record: phase timings,
	// EXPLAIN ANALYZE operator tree, engine counter deltas. May be nil
	// when the producing session had stats collection off.
	Report *QueryReport `json:"-"`

	// Truncated marks a query text cut at MaxSlowQueryLen.
	Truncated bool `json:"query_truncated,omitempty"`
}

// NewSlowEntry assembles the record of one finished query: every event
// field is read from its Result. r is nil for a query that never executed
// (shed, parse failure, panic); the entry then carries only the outcome
// fields.
func NewSlowEntry(t time.Time, tenant, query, code string, elapsed time.Duration, r *Result, err error) SlowEntry {
	e := SlowEntry{QueryEvent: obs.QueryEvent{Time: t, Tenant: tenant, Query: query, Code: code, ElapsedNs: elapsed.Nanoseconds()}}
	if err != nil {
		e.Error = err.Error()
	}
	if r == nil {
		return e
	}
	e.Report = r.Report
	e.Rows = int64(len(r.Rows))
	b := r.Budget
	// Every operator charges the row budget exactly the rows it emits, so
	// the rows charged are the engine's Emitted counter, read here from
	// the budget, which a result carries with or without a report.
	e.Emitted, e.RowsLimit = b.RowsUsed, b.RowsLimit
	e.StepsLimit = b.StepsLimit
	e.MemPeakBytes, e.MemLimit = b.MemPeakBytes, b.MemLimit
	st := r.RewriteStats()
	e.MatchAttempts = int64(st.MatchAttempts)
	e.Applications = int64(st.Applications)
	e.Degraded, e.Reason = st.Degraded, st.DegradationReason
	if oc := r.Cache; oc != nil {
		e.TemplateHash = fmt.Sprintf("%016x", oc.TemplateHash)
		e.Cache = "miss"
		if oc.Hit {
			e.Cache = "hit"
		}
	}
	if rep := r.Report; rep != nil {
		e.ParseNs = rep.Phases.Parse.Nanoseconds()
		e.TranslateNs = rep.Phases.Translate.Nanoseconds()
		e.RewriteNs = rep.Phases.Rewrite.Nanoseconds()
		e.ExecNs = rep.Phases.Execute.Nanoseconds()
		c := rep.ExecCounters
		e.Scanned = int64(c.Scanned)
		e.JoinPairs = int64(c.JoinPairs)
		e.PredEvals = int64(c.PredEvals)
		e.FixIterations = int64(c.FixIterations)
		e.SpillPartitions = rep.Spill.Partitions
		e.SpillBytes = rep.Spill.Bytes
		e.SpillReads = rep.Spill.Reads
	}
	return e
}

// SlowLog is the ring. The zero value is unusable; use NewSlowLog.
// A nil *SlowLog no-ops every method.
type SlowLog struct {
	mu   sync.Mutex
	ring []SlowEntry
	next int
	n    int // live entries (<= len(ring))

	// Threshold is the capture latency bound; queries at or above it are
	// retained even when they succeeded cleanly. Read-only after setup.
	Threshold time.Duration

	captured atomic.Int64
	evicted  atomic.Int64
}

// NewSlowLog builds a ring of the given capacity (<=0 returns nil — the
// disabled ring) and capture threshold (<=0 takes DefaultSlowThreshold).
func NewSlowLog(size int, threshold time.Duration) *SlowLog {
	if size <= 0 {
		return nil
	}
	if threshold <= 0 {
		threshold = DefaultSlowThreshold
	}
	return &SlowLog{ring: make([]SlowEntry, size), Threshold: threshold}
}

// ShouldCapture reports whether a query with the given outcome belongs
// in the ring: slow, degraded, or ended with a non-OK code (budget
// trips, timeouts, execution errors). Nil-safe.
func (l *SlowLog) ShouldCapture(elapsed time.Duration, degraded bool, code string) bool {
	if l == nil {
		return false
	}
	return elapsed >= l.Threshold || degraded || (code != "" && code != "OK")
}

// Add captures one entry, truncating its query text and overwriting the
// oldest entry when full. Nil-safe.
func (l *SlowLog) Add(e SlowEntry) {
	if l == nil {
		return
	}
	if len(e.Query) > MaxSlowQueryLen {
		// Cut on a rune boundary: a byte-index cut can split a multi-byte
		// UTF-8 sequence, leaving a trailing invalid fragment that breaks
		// JSON-consuming tooling downstream of /debug/slowlog.
		cut := MaxSlowQueryLen
		for cut > 0 && !utf8.RuneStart(e.Query[cut]) {
			cut--
		}
		e.Query = e.Query[:cut]
		e.Truncated = true
	}
	l.mu.Lock()
	if l.n == len(l.ring) {
		l.evicted.Add(1)
	} else {
		l.n++
	}
	l.ring[l.next] = e
	l.next = (l.next + 1) % len(l.ring)
	l.mu.Unlock()
	l.captured.Add(1)
}

// Snapshot returns the retained entries, newest first. Nil-safe.
func (l *SlowLog) Snapshot() []SlowEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowEntry, 0, l.n)
	for i := 0; i < l.n; i++ {
		// Walk backwards from the most recently written slot.
		idx := (l.next - 1 - i + 2*len(l.ring)) % len(l.ring)
		out = append(out, l.ring[idx])
	}
	return out
}

// Captured reports entries ever captured; Evicted those overwritten by
// newer captures. Retained = min(Captured, capacity). Nil-safe.
func (l *SlowLog) Captured() int64 {
	if l == nil {
		return 0
	}
	return l.captured.Load()
}

// Evicted reports entries overwritten because the ring was full.
func (l *SlowLog) Evicted() int64 {
	if l == nil {
		return 0
	}
	return l.evicted.Load()
}

// Size returns the ring capacity (0 for a nil ring).
func (l *SlowLog) Size() int {
	if l == nil {
		return 0
	}
	return len(l.ring)
}

// FormatSlowEntry renders one captured entry the way EXPLAIN ANALYZE
// renders a live query: header line, budget consumption, then the
// operator tree, trace and timings from the retained report.
func FormatSlowEntry(e SlowEntry) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%s] tenant=%s code=%s elapsed=%s rows=%d",
		e.Time.Format(time.RFC3339Nano), orDefault(e.Tenant, "-"), e.Code,
		time.Duration(e.ElapsedNs).Round(time.Microsecond), e.Rows)
	if e.TemplateHash != "" {
		fmt.Fprintf(&sb, " template=0x%s", e.TemplateHash)
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "budget: %s\n", guard.Consumption{
		RowsUsed: e.Emitted, RowsLimit: e.RowsLimit,
		StepsUsed: e.Applications, StepsLimit: e.StepsLimit,
		MemPeakBytes: e.MemPeakBytes, MemLimit: e.MemLimit,
	})
	if e.Degraded {
		fmt.Fprintf(&sb, "degraded: %s\n", e.Reason)
	}
	if e.Error != "" {
		fmt.Fprintf(&sb, "error: %s\n", e.Error)
	}
	q := e.Query
	if e.Truncated {
		q += " …(truncated)"
	}
	fmt.Fprintf(&sb, "query: %s\n", q)
	writeReport(&sb, e.Report, true)
	return strings.TrimRight(sb.String(), "\n")
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
