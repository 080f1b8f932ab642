package engine_test

// The shell's equivalence corpus (testdata/parallel_corpus.esql) through
// the whole pipeline, with final scans slicing their projection out of the
// stored rows and with them copying its cells (SetForceCopy,
// export_test.go): the two must render the same statements — rows, column
// order, counters and timing-free EXPLAIN ANALYZE trees — serially, on a
// pool of 4 and under a 1-byte grant that spills.

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"testing"

	"lera/internal/core"
	"lera/internal/engine"
	"lera/internal/guard"
)

// corpusStatements returns the statements of the shell corpus, one
// ';'-terminated chunk each, as the shell reads them; meta-commands are
// left out.
func corpusStatements(t *testing.T) []string {
	t.Helper()
	f, err := os.Open("../../testdata/parallel_corpus.esql")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	var buf strings.Builder
	in := bufio.NewScanner(f)
	for in.Scan() {
		line := in.Text()
		if buf.Len() == 0 && strings.HasPrefix(strings.TrimSpace(line), "\\") {
			continue
		}
		buf.WriteString(line + "\n")
		if strings.Contains(line, ";") {
			out = append(out, buf.String())
			buf.Reset()
		}
	}
	if err := in.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// renderCorpus runs the statements on a fresh films session set up by
// setup and renders, statement by statement, its results, the timing-free
// stats tree of its last query and the session's counters after it.
func renderCorpus(t *testing.T, stmts []string, setup func(s *core.Session)) []string {
	t.Helper()
	s := core.NewSession()
	if err := s.LoadFilms(); err != nil {
		t.Fatal(err)
	}
	s.CollectStats = true
	setup(s)
	var out []string
	for _, src := range stmts {
		results, err := s.Exec(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		var sb strings.Builder
		for _, r := range results {
			sb.WriteString(core.FormatResult(r))
			if r.Kind == core.ResultRows {
				sb.WriteString(s.LastExecStats().Format(false))
			}
		}
		fmt.Fprintf(&sb, "%+v\n", s.Count)
		out = append(out, sb.String())
	}
	return out
}

func TestSlicedScanCorpus(t *testing.T) {
	stmts := corpusStatements(t)
	if len(stmts) < 10 {
		t.Fatalf("%d statements in the corpus", len(stmts))
	}
	for name, setup := range map[string]func(s *core.Session){
		"parallelism 1": func(s *core.Session) { s.Parallelism = 1 },
		"parallelism 4": func(s *core.Session) { s.Parallelism = 4 },
		"max-mem 1": func(s *core.Session) {
			s.Limits = guard.Limits{MaxMemBytes: 1}
			s.SpillDir = t.TempDir()
		},
	} {
		sliced := renderCorpus(t, stmts, setup)
		engine.SetForceCopy(true)
		copied := renderCorpus(t, stmts, setup)
		engine.SetForceCopy(false)
		for i := range stmts {
			if sliced[i] != copied[i] {
				t.Errorf("%s: %s: sliced vs copied:\n%s\nvs\n%s", name, stmts[i], sliced[i], copied[i])
			}
		}
	}
}
