package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterGaugeNilSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if got := c.Value(); got != 0 {
		t.Fatalf("nil counter Value = %d, want 0", got)
	}
	var g *Gauge
	g.Set(3)
	g.Add(1)
	if got := g.Value(); got != 0 {
		t.Fatalf("nil gauge Value = %d, want 0", got)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatalf("shared counter value = %d, want 1", b.Value())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Gauge("x_total", "help")
}

// TestRacingRegistrationNeverNil: when registrations of one name with
// different kinds race, each caller gets a live handle or the documented
// kind-mismatch panic — never a nil handle that silently drops updates.
func TestRacingRegistrationNeverNil(t *testing.T) {
	const registries, goroutines = 5000, 16
	var nils atomic.Int64
	for i := 0; i < registries; i++ {
		r := NewRegistry()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(counter bool) {
				defer wg.Done()
				defer func() {
					if p := recover(); p != nil && !strings.Contains(fmt.Sprint(p), "different kind") {
						t.Errorf("unexpected panic: %v", p)
					}
				}()
				<-start
				if counter && r.Counter("x", "") == nil || !counter && r.Gauge("x", "") == nil {
					nils.Add(1)
				}
			}(g%2 == 0)
		}
		close(start)
		wg.Wait()
	}
	if n := nils.Load(); n != 0 {
		t.Fatalf("%d racing registrations got a nil handle", n)
	}
}

// TestRegisteredAccessorAllocs: looking up an already-registered plain
// metric allocates nothing, so hot paths may call the accessors per query.
func TestRegisteredAccessorAllocs(t *testing.T) {
	r := NewRegistry()
	allocs := testing.AllocsPerRun(100, func() {
		r.Counter("c_total", "c").Inc()
		r.Gauge("g", "g").Set(1)
		r.Histogram("h_seconds", "h", nil).Observe(0.1)
	})
	if allocs != 0 {
		t.Fatalf("registered accessors allocate %v per call set, want 0", allocs)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100, 1000})
	for i := 0; i < 100; i++ {
		h.Observe(5) // all in the (1,10] bucket
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("Count = %d, want 100", got)
	}
	if got := h.Sum(); got != 500 {
		t.Fatalf("Sum = %v, want 500", got)
	}
	p50 := h.Quantile(0.5)
	if p50 < 1 || p50 > 10 {
		t.Fatalf("p50 = %v, want within (1,10]", p50)
	}
	// A spread distribution: quantiles must be monotone.
	h2 := NewHistogram(DefaultCountBuckets)
	for i := 1; i <= 1000; i++ {
		h2.Observe(float64(i))
	}
	q := []float64{h2.Quantile(0.5), h2.Quantile(0.95), h2.Quantile(0.99)}
	if !(q[0] <= q[1] && q[1] <= q[2]) {
		t.Fatalf("quantiles not monotone: %v", q)
	}
	if q[0] < 100 || q[0] > 1000 {
		t.Fatalf("p50 = %v, implausible for 1..1000", q[0])
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := NewHistogram(DefaultDurationBuckets)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("lera_q_total", "Queries.").Add(3)
	r.Gauge("lera_rels", "Relations.").Set(7)
	r.Histogram("lera_lat_seconds", "Latency.", []float64{0.1, 1}).Observe(0.05)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP lera_q_total Queries.",
		"# TYPE lera_q_total counter",
		"lera_q_total 3",
		"# TYPE lera_rels gauge",
		"lera_rels 7",
		"# TYPE lera_lat_seconds histogram",
		`lera_lat_seconds_bucket{le="0.1"} 1`,
		`lera_lat_seconds_bucket{le="+Inf"} 1`,
		"lera_lat_seconds_sum 0.05",
		"lera_lat_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
}

func TestJSONExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c").Add(2)
	r.Histogram("h_seconds", "h", []float64{1, 2}).Observe(1.5)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(sb.String()), &m); err != nil {
		t.Fatalf("WriteJSON not valid JSON: %v", err)
	}
	if m["c_total"] != float64(2) {
		t.Fatalf("c_total = %v, want 2", m["c_total"])
	}
	h, ok := m["h_seconds"].(map[string]any)
	if !ok || h["count"] != float64(1) {
		t.Fatalf("h_seconds = %v, want summary with count 1", m["h_seconds"])
	}
}

func TestHandlerFormats(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "c").Inc()
	h := r.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "c_total 1") {
		t.Fatalf("prometheus handler output: %s", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=json", nil))
	if !strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("json content type = %q", rec.Header().Get("Content-Type"))
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := NewRecorder("root")
	a := rec.Begin("a")
	rec.Event("ev1", Str("k", "v"))
	b := rec.Begin("b", Int("n", 2))
	rec.End(b)
	rec.End(a)
	c := rec.Begin("c")
	rec.End(c)
	root := rec.Finish()
	got := FormatTree(root, false)
	want := "root\n" +
		"  a\n" +
		"    · ev1 k=v\n" +
		"    b n=2\n" +
		"  c\n"
	if got != want {
		t.Fatalf("tree mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRecorderBounds(t *testing.T) {
	rec := NewRecorder("root")
	for i := 0; i < MaxSpanChildren+10; i++ {
		s := rec.Begin("child")
		rec.End(s)
	}
	for i := 0; i < MaxSpanEvents+5; i++ {
		rec.Event("e")
	}
	root := rec.Finish()
	if len(root.Children) != MaxSpanChildren {
		t.Fatalf("children = %d, want %d", len(root.Children), MaxSpanChildren)
	}
	if root.TruncatedChildren != 10 {
		t.Fatalf("TruncatedChildren = %d, want 10", root.TruncatedChildren)
	}
	if len(root.Events) != MaxSpanEvents || root.TruncatedEvents != 5 {
		t.Fatalf("events = %d truncated = %d", len(root.Events), root.TruncatedEvents)
	}
	out := FormatTree(root, false)
	if !strings.Contains(out, "(10 more spans truncated)") ||
		!strings.Contains(out, "(5 more events truncated)") {
		t.Fatalf("truncation notes missing:\n%s", out[:200])
	}
}

func TestContextCarriage(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("empty context must carry no recorder")
	}
	if NewContext(ctx, nil) != ctx {
		t.Fatal("nil recorder must not wrap the context")
	}
	rec := NewRecorder("r")
	if FromContext(NewContext(ctx, rec)) != rec {
		t.Fatal("recorder not carried")
	}
	if FromContext(NewContext(NewContext(ctx, rec), nil)) != nil {
		t.Fatal("nil recorder must detach the carried one")
	}
}

// TestNilRecorderAllocs pins the disabled path: every hook on a nil
// recorder and nil observer must be allocation-free.
func TestNilRecorderAllocs(t *testing.T) {
	var rec *Recorder
	var o *Observer
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		s := rec.Begin("x")
		rec.Event("e")
		rec.End(s)
		rec.Finish()
		if rec.Enabled() {
			t.Fatal("nil recorder enabled")
		}
		_ = o.Recorder("q")
		_ = NewContext(ctx, nil)
		_ = FromContext(ctx)
	})
	if allocs != 0 {
		t.Fatalf("disabled observability path allocates: %v allocs/op", allocs)
	}
}

func TestRecorderDeterministicClock(t *testing.T) {
	rec := NewRecorder("root")
	tick := time.Unix(0, 0)
	rec.now = func() time.Time { tick = tick.Add(time.Millisecond); return tick }
	s := rec.Begin("a")
	rec.End(s)
	root := rec.Finish()
	if s.Duration != time.Millisecond {
		t.Fatalf("span duration = %v, want 1ms", s.Duration)
	}
	out := FormatTree(root, true)
	if !strings.Contains(out, "a (1ms)") {
		t.Fatalf("timed tree missing duration:\n%s", out)
	}
}
