package obs

// Hierarchical spans and structured events. A Recorder collects one tree
// per observed query: parse -> translate -> rewrite (one child span per
// block run) -> execute. Events — rule applications, budget exhaustion,
// degradation — attach to the span that was open when they happened, in
// order. The operators under execute are the engine's OpStats tree, which
// reports render beside the spans rather than copying into them.
//
// Everything is nil-safe: a nil *Recorder no-ops on every method, so
// instrumented code calls straight through without its own guards (call
// sites that build attribute slices still gate on Enabled() to keep the
// disabled path allocation-free).

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// KV is one span or event attribute. Values are rendered with %v; keep
// them to strings and integers so traces stay deterministic.
type KV struct {
	K string
	V any
}

// Int is shorthand for an integer attribute.
func Int(k string, v int) KV { return KV{K: k, V: int64(v)} }

// Str is shorthand for a string attribute.
func Str(k, v string) KV { return KV{K: k, V: v} }

// Event is one structured log entry: a rule application, a budget
// consumption notice, a degradation.
type Event struct {
	Kind  string
	Attrs []KV
}

// MaxSpanChildren bounds the fanout of one span (and MaxSpanEvents the
// events on one span): a fixpoint running thousands of rounds must not
// grow the trace without bound. Overflow is counted, not silently
// dropped.
const (
	MaxSpanChildren = 128
	MaxSpanEvents   = 512
)

// Span is one timed region of the pipeline.
type Span struct {
	Name     string
	Attrs    []KV
	Start    time.Time
	Duration time.Duration
	Events   []Event
	Children []*Span
	// TruncatedChildren / TruncatedEvents count entries dropped by the
	// MaxSpanChildren / MaxSpanEvents bounds.
	TruncatedChildren int
	TruncatedEvents   int

	parent *Span
}

// SetAttrs appends attributes to the span (nil-safe), e.g. to record a
// row count that is only known when the region finishes.
func (s *Span) SetAttrs(attrs ...KV) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, attrs...)
}

// Recorder collects one span tree and its events. It is single-goroutine
// by design (one recorder per query, like one evalGuard per EvalCtx); the
// zero-cost disabled path is a nil *Recorder.
type Recorder struct {
	root *Span
	cur  *Span
	// now is the clock, replaceable by tests for deterministic durations.
	now func() time.Time
}

// NewRecorder starts a recorder with an open root span.
func NewRecorder(rootName string) *Recorder {
	r := &Recorder{now: time.Now}
	r.root = &Span{Name: rootName, Start: r.now()}
	r.cur = r.root
	return r
}

// Enabled reports whether the recorder collects anything. Call sites that
// would allocate attribute slices gate on this.
func (r *Recorder) Enabled() bool { return r != nil }

// Begin opens a child span of the current span and makes it current.
// Returns nil (harmless to End) on a nil recorder.
func (r *Recorder) Begin(name string, attrs ...KV) *Span {
	if r == nil {
		return nil
	}
	s := &Span{Name: name, Attrs: attrs, Start: r.now(), parent: r.cur}
	if len(r.cur.Children) >= MaxSpanChildren {
		r.cur.TruncatedChildren++
		// The span still opens (so End stays balanced and events nest
		// correctly); it just isn't retained in the tree.
	} else {
		r.cur.Children = append(r.cur.Children, s)
	}
	r.cur = s
	return s
}

// End closes a span opened by Begin, restoring its parent as current.
// Nil-safe; ending an already-ended or foreign span is a no-op.
func (r *Recorder) End(s *Span) {
	if r == nil || s == nil {
		return
	}
	s.Duration = r.now().Sub(s.Start)
	if r.cur == s && s.parent != nil {
		r.cur = s.parent
	}
}

// Event appends a structured event to the current span.
func (r *Recorder) Event(kind string, attrs ...KV) {
	if r == nil {
		return
	}
	s := r.cur
	if len(s.Events) >= MaxSpanEvents {
		s.TruncatedEvents++
		return
	}
	s.Events = append(s.Events, Event{Kind: kind, Attrs: attrs})
}

// Finish closes the root span and returns the completed tree.
func (r *Recorder) Finish() *Span {
	if r == nil {
		return nil
	}
	r.root.Duration = r.now().Sub(r.root.Start)
	r.cur = r.root
	return r.root
}

// --- context carriage ---

type ctxKey struct{}

// NewContext returns ctx carrying the recorder. Passing nil r detaches
// the recorder ctx carries, so work run under the result — a plan-cache
// template rewrite, say — stays out of the request's trace; on a ctx
// that carries none it returns ctx unchanged, so disabled observation
// adds no context wrapper at all.
func NewContext(ctx context.Context, r *Recorder) context.Context {
	if r == nil && FromContext(ctx) == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext returns the recorder carried by ctx, or nil. The nil path
// is one interface lookup and no allocation — cheap enough for every
// phase entry, though never called per row.
func FromContext(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(ctxKey{}).(*Recorder)
	return r
}

// --- rendering ---

func writeAttrs(sb *strings.Builder, attrs []KV) {
	for _, a := range attrs {
		sb.WriteByte(' ')
		sb.WriteString(a.K)
		sb.WriteByte('=')
		switch v := a.V.(type) {
		case string:
			sb.WriteString(v)
		case int64:
			sb.WriteString(strconv.FormatInt(v, 10))
		case int:
			sb.WriteString(strconv.Itoa(v))
		default:
			fmt.Fprintf(sb, "%v", v)
		}
	}
}

// FormatTree renders the span tree as an indented outline. With
// withTimings false the output is fully deterministic for a given query
// and rule base — the trace-determinism regression compares exactly this
// form — and with true each span carries its measured duration.
func FormatTree(root *Span, withTimings bool) string {
	var sb strings.Builder
	var walk func(s *Span, depth int)
	walk = func(s *Span, depth int) {
		indent := strings.Repeat("  ", depth)
		sb.WriteString(indent)
		sb.WriteString(s.Name)
		writeAttrs(&sb, s.Attrs)
		if withTimings {
			fmt.Fprintf(&sb, " (%s)", s.Duration.Round(time.Microsecond))
		}
		sb.WriteByte('\n')
		for _, ev := range s.Events {
			sb.WriteString(indent)
			sb.WriteString("  · ")
			sb.WriteString(ev.Kind)
			writeAttrs(&sb, ev.Attrs)
			sb.WriteByte('\n')
		}
		if s.TruncatedEvents > 0 {
			fmt.Fprintf(&sb, "%s  · (%d more events truncated)\n", indent, s.TruncatedEvents)
		}
		for _, c := range s.Children {
			walk(c, depth+1)
		}
		if s.TruncatedChildren > 0 {
			fmt.Fprintf(&sb, "%s  (%d more spans truncated)\n", indent, s.TruncatedChildren)
		}
	}
	if root == nil {
		return ""
	}
	walk(root, 0)
	return sb.String()
}
