package main

import (
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"lera"
	"lera/internal/guard"
)

// TestCaptureFailedStatement: when a ';'-chunk's second statement fails,
// the slow-query ring records the failure with its own code and error and
// nothing of the first statement — not its rows, budget or operator tree —
// and an earlier degraded statement keeps its own (successful) record.
func TestCaptureFailedStatement(t *testing.T) {
	s := lera.NewSession()
	if err := s.LoadFilms(); err != nil {
		t.Fatal(err)
	}
	s.DB.CollectStats = true
	slowRing = lera.NewSlowLog(8, time.Hour)
	defer func() { slowRing = nil }()

	s.Limits = lera.Limits{MaxRows: 3}
	src := "SELECT Title FROM FILM WHERE Numf = 1; SELECT Title FROM FILM WHERE Numf > 0;"
	results, err := s.Exec(src)
	if guard.CodeOf(err) != guard.CodeRowBudget || len(results) != 1 || len(results[0].Rows) != 1 {
		t.Fatalf("want the first query's row and a row-budget failure, got %d results, %v", len(results), err)
	}
	capture(time.Now(), src, time.Millisecond, results, err)
	entries := slowRing.Snapshot()
	if len(entries) != 1 {
		t.Fatalf("%d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Code != string(guard.CodeRowBudget) || e.Error != err.Error() || e.Rows != 0 || e.Emitted != 0 || e.RowsLimit != 0 || e.Report != nil {
		t.Errorf("failed statement recorded as %s", lera.FormatSlowEntry(e))
	}

	// A degraded statement before the failure keeps its own record.
	slowRing = lera.NewSlowLog(8, time.Hour)
	s.Limits = lera.Limits{MaxSteps: 1}
	src = "SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'Quinn'; SELECT Title FROM NOSUCH;"
	results, err = s.Exec(src)
	if err == nil || len(results) != 1 || !results[0].RewriteStats().Degraded {
		t.Fatalf("want a degraded first query and a failure, got %d results, %v", len(results), err)
	}
	capture(time.Now(), src, time.Millisecond, results, err)
	entries = slowRing.Snapshot()
	if len(entries) != 2 {
		t.Fatalf("%d entries, want 2", len(entries))
	}
	for _, e := range entries {
		switch {
		case e.Degraded:
			if e.Code != string(guard.CodeOK) || e.Error != "" || e.Rows != int64(len(results[0].Rows)) {
				t.Errorf("degraded statement recorded as %s", lera.FormatSlowEntry(e))
			}
		case e.Code != string(guard.CodeOf(err)) || e.Error != err.Error() || e.Rows != 0 || e.Report != nil:
			t.Errorf("failed statement recorded as %s", lera.FormatSlowEntry(e))
		}
	}
}

// TestSyntaxErrorIsParse: the shell reports a statement that does not
// parse as PARSE, the code the server answers it with, not INTERNAL.
func TestSyntaxErrorIsParse(t *testing.T) {
	s := lera.NewSession()
	if err := s.LoadFilms(); err != nil {
		t.Fatal(err)
	}
	if want := `error [PARSE]: esql: 1:39: expected ';', got "LIMIT"`; !strings.Contains(printed(t, s, "SELECT Title FROM FILM WHERE Numf = 1 LIMIT 2;"), want) {
		t.Errorf("printed no %q", want)
	}
}

// TestInvalidStatementIsInvalid: a statement that parses but that the
// catalog refuses prints INVALID, not INTERNAL.
func TestInvalidStatementIsInvalid(t *testing.T) {
	s := lera.NewSession()
	if err := s.LoadFilms(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ src, want string }{
		{"SELECT Title FROM NOSUCH;", `error [INVALID]: unknown relation or view "NOSUCH"`},
		{"SELECT Nope FROM FILM;", `error [INVALID]: unknown column "Nope"`},
		{"EXECUTE nope(1);", `error [INVALID]: core: no prepared statement "nope" (PREPARE it first)`},
		{"CREATE VIEW V (A) AS SELECT Title FROM FILM; CREATE VIEW V (A) AS SELECT Title FROM FILM;",
			`error [INVALID]: catalog: view "V" already declared`},
	} {
		if out := printed(t, s, c.src); !strings.Contains(out, c.want) {
			t.Errorf("%s printed %q, want %q", c.src, out, c.want)
		}
	}
}

// printed returns what run prints for src.
func printed(t *testing.T, s *lera.Session, src string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	run(s, false, src)
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
