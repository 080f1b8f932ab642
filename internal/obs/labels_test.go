package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestLabelVecNilSafe(t *testing.T) {
	var cv *CounterVec
	cv.With("a", "b").Inc()
	if cv.Sum() != 0 || cv.Overflowed() != 0 {
		t.Fatal("nil CounterVec must report zeros")
	}
	var gv *GaugeVec
	gv.With("x").Set(3)
	var hv *HistogramVec
	hv.With("x").Observe(1)
	if hv.Overflowed() != 0 {
		t.Fatal("nil HistogramVec must report zero overflow")
	}
}

func TestLabelVecNilPathAllocs(t *testing.T) {
	var cv *CounterVec
	var hv *HistogramVec
	allocs := testing.AllocsPerRun(100, func() {
		cv.With("tenant", "OK").Inc()
		hv.With("tenant").Observe(0.001)
	})
	if allocs != 0 {
		t.Fatalf("nil vec path allocates %v per op, want 0", allocs)
	}
}

func TestCounterVecGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.CounterVec("req_total", "h", "tenant", "code")
	b := r.CounterVec("req_total", "h", "tenant", "code")
	if a != b {
		t.Fatal("same name must return the same vector")
	}
	c1 := a.With("t1", "OK")
	c2 := b.With("t1", "OK")
	if c1 != c2 {
		t.Fatal("same label values must return the same child")
	}
	c1.Inc()
	a.With("t2", "ERR").Add(2)
	if got := a.Sum(); got != 3 {
		t.Fatalf("Sum = %d, want 3", got)
	}
	// Re-registering the same name with different labels must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("label mismatch must panic")
		}
	}()
	r.CounterVec("req_total", "h", "tenant")
}

func TestCounterVecKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("vec_total", "h", "tenant")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.Counter("vec_total", "h")
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("esc_total", "h", "tenant")
	cv.With("a\"b").Inc()
	cv.With("c\\d").Inc()
	cv.With("e\nf").Inc()
	cv.With("plain").Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`esc_total{tenant="a\"b"} 1`,
		`esc_total{tenant="c\\d"} 1`,
		`esc_total{tenant="e\nf"} 1`,
		`esc_total{tenant="plain"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// The newline must be escaped, not literal: every non-comment line
	// still parses as `series value`.
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, " ") {
			t.Errorf("unparseable exposition line %q", line)
		}
	}
}

func TestCounterVecOverflow(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("cap_total", "h", "tenant", "code")
	capSeries(cv, 3)
	cv.With("t1", "OK").Inc()
	cv.With("t2", "OK").Inc()
	cv.With("t3", "OK").Inc()
	// At capacity: new tenants collapse into {_other, code}.
	cv.With("t4", "OK").Inc()
	cv.With("t5", "OK").Add(2)
	cv.With("t6", "ERR").Inc()
	if got := cv.Overflowed(); got != 3 {
		t.Fatalf("Overflowed = %d, want 3", got)
	}
	// Nothing dropped: the sum stays exact.
	if got := cv.Sum(); got != 7 {
		t.Fatalf("Sum = %d, want 7", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`cap_total{tenant="_other",code="OK"} 3`,
		`cap_total{tenant="_other",code="ERR"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, `tenant="t4"`) || strings.Contains(out, `tenant="t5"`) {
		t.Errorf("over-cap tenants leaked their own series\n%s", out)
	}
	// An existing series keeps accumulating normally even at the cap.
	cv.With("t1", "OK").Inc()
	if got := cv.Sum(); got != 8 {
		t.Fatalf("Sum after existing-series inc = %d, want 8", got)
	}
	if got := cv.Overflowed(); got != 3 {
		t.Fatalf("existing-series inc bumped Overflowed to %d", got)
	}
}

func TestCounterVecConcurrentSumExact(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("con_total", "h", "tenant", "code")
	capSeries(cv, 4) // force overflow under contention
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				cv.With(fmt.Sprintf("tenant%d", (w+i)%7), "OK").Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := cv.Sum(); got != workers*perWorker {
		t.Fatalf("Sum = %d, want %d (observations lost under concurrency)", got, workers*perWorker)
	}
}

func TestHistogramVecExposition(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("lat_seconds", "h", []float64{0.1, 1}, "tenant")
	hv.With("t1").Observe(0.05)
	hv.With("t1").Observe(0.5)
	hv.With("t2").Observe(2)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{tenant="t1",le="0.1"} 1`,
		`lat_seconds_bucket{tenant="t1",le="1"} 2`,
		`lat_seconds_bucket{tenant="t1",le="+Inf"} 2`,
		`lat_seconds_count{tenant="t1"} 2`,
		`lat_seconds_bucket{tenant="t2",le="+Inf"} 1`,
		`lat_seconds_count{tenant="t2"} 1`,
		`lat_seconds_sum{tenant="t2"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Exactly one TYPE line for the whole family.
	if n := strings.Count(out, "# TYPE lat_seconds "); n != 1 {
		t.Errorf("family has %d TYPE lines, want 1\n%s", n, out)
	}
}

func TestGaugeVecBuildInfo(t *testing.T) {
	r := NewRegistry()
	RegisterBuildInfo(r, "abc123", "go1.22")
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `lera_build_info{commit="abc123",go_version="go1.22"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("exposition missing %q\n%s", want, sb.String())
	}
}

func TestLabelVecWrongArity(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("arity_total", "h", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label-value arity must panic")
		}
	}()
	cv.With("only-one")
}
