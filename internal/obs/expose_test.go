package obs

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var updateExposition = flag.Bool("update-exposition", false, "rewrite testdata/exposition.golden from the current registry")

// capSeries lowers a vector's cardinality cap so a test can overflow it
// with a handful of series.
func capSeries(cv *CounterVec, n int) { (*labelVec)(cv).max = n }

// goldenRegistry holds every kind with and without labels, a help string
// that needs escaping, escaped label values, an overflowed vector and an
// empty one.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("g_plain_total", "a counter \\ with a backslash\nand a newline").Add(3)
	r.Counter("g_nohelp_total", "").Inc()
	r.Gauge("g_level", "a gauge").Set(-7)
	h := r.Histogram("g_latency_seconds", "a histogram", []float64{0.1, 1})
	for _, v := range []float64{0.05, 0.5, 0.5, 2} {
		h.Observe(v)
	}

	cv := r.CounterVec("g_requests_total", "a labeled counter", "tenant", "code")
	capSeries(cv, 4)
	cv.With("a\"b", "OK").Inc()
	cv.With("c\\d", "OK").Add(2)
	cv.With("e\nf", "PARSE").Inc()
	cv.With("plain", "OK").Add(4)
	cv.With("late1", "OK").Inc() // past the cap: collapses into _other
	cv.With("late2", "PARSE").Add(5)
	r.CounterVec("g_empty_total", "a vector with no series", "tenant")

	r.GaugeVec("g_info", "a labeled gauge", "commit", "go_version").With("abc", "go1.x").Set(1)
	hv := r.HistogramVec("g_request_seconds", "a labeled histogram", []float64{0.01, 0.1}, "tenant")
	hv.With("t1").Observe(0.005)
	hv.With("t1").Observe(0.05)
	hv.With("t2").Observe(3)
	return r
}

// TestExpositionGolden pins both expositions of one registry byte for
// byte: the Prometheus text and the JSON of /metrics. Regenerate with
// -update-exposition only for an intended format change.
func TestExpositionGolden(t *testing.T) {
	r := goldenRegistry()
	var sb strings.Builder
	sb.WriteString("# --- prometheus\n")
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	sb.WriteString("# --- json\n")
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/exposition.golden"
	if *updateExposition {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := sb.String(); got != string(want) {
		t.Errorf("exposition differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}
