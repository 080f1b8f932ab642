package main

import (
	"bytes"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// goldenSections splits testdata/experiments.golden — a full run's output —
// into one text per experiment number, header to trailing blank line.
func goldenSections(t *testing.T) map[int]string {
	t.Helper()
	golden, err := os.ReadFile("../../testdata/experiments.golden")
	if err != nil {
		t.Fatal(err)
	}
	title := regexp.MustCompile(`(?m)^### E(\d+) `)
	starts := title.FindAllSubmatchIndex(golden, -1)
	out := map[int]string{}
	for i, m := range starts {
		end := len(golden)
		if i+1 < len(starts) {
			end = starts[i+1][0]
		}
		n, _ := strconv.Atoi(string(golden[m[2]:m[3]]))
		out[n] = string(golden[m[0]:end])
	}
	if len(out) != len(experiments) {
		t.Fatalf("golden holds %d experiments, the program has %d", len(out), len(experiments))
	}
	return out
}

// TestSubSecondExperimentsMatchGolden runs the experiments that finish in
// well under a second in process: their tables must equal their sections
// of the committed golden, and a second run must print the same bytes.
// (CI diffs the full run; E4's unfocused baselines alone take seconds.)
func TestSubSecondExperimentsMatchGolden(t *testing.T) {
	const sel = "1,5,6"
	sections := goldenSections(t)
	var want strings.Builder
	for _, f := range strings.Split(sel, ",") {
		n, _ := strconv.Atoi(f)
		want.WriteString(sections[n])
	}
	var first, second bytes.Buffer
	if err := run(&first, sel); err != nil {
		t.Fatal(err)
	}
	if first.String() != want.String() {
		t.Errorf("-e %s differs from testdata/experiments.golden\n got:\n%s\nwant:\n%s", sel, first.String(), want.String())
	}
	if err := run(&second, sel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("two runs of the same selection printed different bytes")
	}
}

// TestSelection: -e selects in table order whatever the order given, and
// rejects what is not an experiment.
func TestSelection(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, "11, 5"); err != nil {
		t.Fatal(err)
	}
	sections := goldenSections(t)
	if out.String() != sections[5]+sections[11] {
		t.Errorf("-e '11, 5' printed:\n%s", out.String())
	}
	for _, bad := range []string{"9", "10", "14", "16", "x", "1,,2"} {
		out.Reset()
		if err := run(&out, bad); err == nil || out.Len() != 0 {
			t.Errorf("-e %q: err = %v, %d bytes printed; want an error and no output", bad, err, out.Len())
		}
	}
}
