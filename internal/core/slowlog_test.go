package core

import (
	"strings"
	"sync"
	"testing"
	"time"
	"unicode/utf8"

	"lera/internal/obs"
)

func TestSlowLogNilSafe(t *testing.T) {
	var l *SlowLog
	l.Add(SlowEntry{QueryEvent: obs.QueryEvent{Query: "q"}})
	if l.ShouldCapture(time.Hour, true, "ERROR") {
		t.Fatal("nil ring must never capture")
	}
	if l.Snapshot() != nil || l.Captured() != 0 || l.Evicted() != 0 || l.Size() != 0 {
		t.Fatal("nil ring must report zeros")
	}
	if NewSlowLog(0, time.Second) != nil || NewSlowLog(-1, time.Second) != nil {
		t.Fatal("size <= 0 must build the disabled (nil) ring")
	}
}

func TestSlowLogShouldCapture(t *testing.T) {
	l := NewSlowLog(4, 100*time.Millisecond)
	cases := []struct {
		elapsed  time.Duration
		degraded bool
		code     string
		want     bool
	}{
		{50 * time.Millisecond, false, "OK", false},   // fast and clean
		{100 * time.Millisecond, false, "OK", true},   // at threshold
		{200 * time.Millisecond, false, "OK", true},   // slow
		{time.Millisecond, true, "OK", true},          // degraded
		{time.Millisecond, false, "ROW_BUDGET", true}, // budget trip
		{time.Millisecond, false, "", false},          // unknown outcome, fast
	}
	for i, c := range cases {
		if got := l.ShouldCapture(c.elapsed, c.degraded, c.code); got != c.want {
			t.Errorf("case %d: ShouldCapture(%v, %v, %q) = %v, want %v",
				i, c.elapsed, c.degraded, c.code, got, c.want)
		}
	}
	if def := NewSlowLog(1, 0); def.Threshold != DefaultSlowThreshold {
		t.Errorf("threshold <= 0 must default to %v, got %v", DefaultSlowThreshold, def.Threshold)
	}
}

func TestSlowLogRingEviction(t *testing.T) {
	l := NewSlowLog(3, time.Second)
	for i := 0; i < 5; i++ {
		l.Add(SlowEntry{QueryEvent: obs.QueryEvent{Query: strings.Repeat("q", i+1), Rows: int64(i)}})
	}
	if got := l.Captured(); got != 5 {
		t.Fatalf("Captured = %d, want 5", got)
	}
	if got := l.Evicted(); got != 2 {
		t.Fatalf("Evicted = %d, want 2", got)
	}
	snap := l.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("Snapshot holds %d entries, want 3", len(snap))
	}
	// Newest first: rows 4, 3, 2 survive.
	for i, want := range []int64{4, 3, 2} {
		if snap[i].Rows != want {
			t.Errorf("snapshot[%d].Rows = %d, want %d", i, snap[i].Rows, want)
		}
	}
	if l.Size() != 3 {
		t.Errorf("Size = %d, want 3", l.Size())
	}
}

func TestSlowLogQueryTruncation(t *testing.T) {
	l := NewSlowLog(2, time.Second)
	long := strings.Repeat("x", MaxSlowQueryLen+100)
	l.Add(SlowEntry{QueryEvent: obs.QueryEvent{Query: long}})
	e := l.Snapshot()[0]
	if !e.Truncated {
		t.Fatal("oversized query not marked Truncated")
	}
	if len(e.Query) != MaxSlowQueryLen {
		t.Fatalf("retained query is %d bytes, want %d", len(e.Query), MaxSlowQueryLen)
	}
	if !strings.Contains(FormatSlowEntry(e), "truncated") {
		t.Error("FormatSlowEntry does not surface truncation")
	}
}

// TestSlowLogTruncationRuneBoundary: a multi-byte rune straddling the
// truncation point is dropped whole — the retained text must stay valid
// UTF-8 at every possible straddle offset ('世' is 3 bytes, so padding
// lengths cover each alignment).
func TestSlowLogTruncationRuneBoundary(t *testing.T) {
	for pad := MaxSlowQueryLen - 4; pad < MaxSlowQueryLen; pad++ {
		l := NewSlowLog(2, time.Second)
		long := strings.Repeat("x", pad) + strings.Repeat("世", 4)
		l.Add(SlowEntry{QueryEvent: obs.QueryEvent{Query: long}})
		e := l.Snapshot()[0]
		if !e.Truncated {
			t.Fatalf("pad %d: not marked Truncated", pad)
		}
		if len(e.Query) > MaxSlowQueryLen {
			t.Fatalf("pad %d: retained %d bytes, cap %d", pad, len(e.Query), MaxSlowQueryLen)
		}
		if !utf8.ValidString(e.Query) {
			t.Fatalf("pad %d: truncation split a rune: ...%q", pad, e.Query[len(e.Query)-6:])
		}
		if !strings.HasPrefix(long, e.Query) {
			t.Fatalf("pad %d: retained text is not a prefix of the original", pad)
		}
		if len(long) < MaxSlowQueryLen && len(e.Query) != len(long) {
			t.Fatalf("pad %d: under-cap query was cut to %d bytes", pad, len(e.Query))
		}
	}
}

func TestSlowLogConcurrentAdd(t *testing.T) {
	l := NewSlowLog(8, time.Second)
	const workers = 8
	const perWorker = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				l.Add(SlowEntry{QueryEvent: obs.QueryEvent{Query: "q"}})
			}
		}()
	}
	wg.Wait()
	if got := l.Captured(); got != workers*perWorker {
		t.Fatalf("Captured = %d, want %d", got, workers*perWorker)
	}
	if got := l.Captured() - l.Evicted(); got != int64(l.Size()) {
		t.Fatalf("retained = %d, want ring size %d", got, l.Size())
	}
	if len(l.Snapshot()) != l.Size() {
		t.Fatalf("Snapshot holds %d, want %d", len(l.Snapshot()), l.Size())
	}
}

// TestSlowLogFormatWithReport captures a real query's report — the
// EXPLAIN ANALYZE operator tree must be retained and render from the
// ring, the core acceptance path for /debug/slowlog and edsql \slowlog.
func TestSlowLogFormatWithReport(t *testing.T) {
	s := filmsSession(t)
	s.Obs = obs.NewObserver() // reports come from the observing path
	s.DB.CollectStats = true
	res, err := s.Query("SELECT Title FROM FILM WHERE Numf = 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil || res.Report.Exec == nil {
		t.Fatal("CollectStats session must produce an exec report")
	}
	l := NewSlowLog(4, time.Nanosecond)
	l.Add(NewSlowEntry(time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC), "acme",
		"SELECT Title FROM FILM WHERE Numf = 3", "OK", 750*time.Millisecond, res, nil))
	out := FormatSlowEntry(l.Snapshot()[0])
	for _, want := range []string{
		"tenant=acme",
		"code=OK",
		"elapsed=750ms",
		"budget: rows",
		"query: SELECT Title FROM FILM",
		"execution:",
		"timings:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatSlowEntry missing %q\n%s", want, out)
		}
	}
}

// TestBudgetConsumptionSurfaced pins satellite 3: Result.Budget reports
// rows/steps used against their limits after a query.
func TestBudgetConsumptionSurfaced(t *testing.T) {
	s := filmsSession(t)
	s.Limits.MaxRows = 100000
	s.Limits.MaxSteps = 500
	res, err := s.Query("SELECT Title FROM FILM WHERE Numf = 3")
	if err != nil {
		t.Fatal(err)
	}
	b := res.Budget
	if b.RowsUsed <= 0 {
		t.Errorf("RowsUsed = %d, want > 0 (the scan charged rows)", b.RowsUsed)
	}
	if b.RowsLimit != 100000 {
		t.Errorf("RowsLimit = %d, want 100000", b.RowsLimit)
	}
	if b.StepsLimit != 500 {
		t.Errorf("StepsLimit = %d, want the session's MaxSteps 500", b.StepsLimit)
	}
	if b.StepsUsed != int64(res.RewriteStats().Applications) {
		t.Errorf("StepsUsed = %d, want Applications %d", b.StepsUsed, res.RewriteStats().Applications)
	}
	str := b.String()
	for _, want := range []string{"rows", "steps", "100000"} {
		if !strings.Contains(str, want) {
			t.Errorf("Consumption.String() %q missing %q", str, want)
		}
	}
}
