package main

// Answer checking. Every operation's rendered result is reduced to a
// digest and compared with a reference: the committed expected/<w>.json
// for seed 1, and for any other seed the unrewritten plan (Session.
// Rewrite = false) run on a second session after the timed window. The
// comparison with the reference is by row count and multiset — the
// Alexander rewrite legitimately changes the order in which a closure's
// rows come out — while the order-sensitive hash pins every pass of a
// run to the first one.

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"lera/internal/core"
	"lera/internal/server"
)

//go:embed expected/*.json
var expectedFS embed.FS

// digest identifies one rendered result up to row order.
type digest struct {
	Rows int    `json:"rows"`
	Bag  string `json:"bag"` // hex of the wrapping sum of each line's FNV-1a
}

// opDigest is a digest plus the order-sensitive hash of the same text.
type opDigest struct {
	digest
	ordered uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// digestText reduces the text core.FormatResult renders: header lines,
// one line per row, and a closing "<n> rows".
func digestText(text string) opDigest {
	var ordered, bag, line uint64 = fnvOffset, 0, fnvOffset
	for i := 0; i < len(text); i++ {
		c := text[i]
		ordered = (ordered ^ uint64(c)) * fnvPrime
		if c == '\n' {
			bag += line
			line = fnvOffset
			continue
		}
		line = (line ^ uint64(c)) * fnvPrime
	}
	rows := -1
	if tail := text[strings.LastIndexByte(text, '\n')+1:]; strings.HasSuffix(tail, " rows") {
		if n, err := strconv.Atoi(strings.TrimSuffix(tail, " rows")); err == nil {
			rows = n
		}
	}
	return opDigest{digest{Rows: rows, Bag: strconv.FormatUint(bag, 16)}, ordered}
}

// renderResponse rebuilds, from a wire response, the text FormatResult
// gives for the same result in process, so both paths share one digest.
func renderResponse(r *server.Response) string {
	var sb strings.Builder
	if len(r.Columns) > 0 {
		head := strings.Join(r.Columns, " | ")
		sb.WriteString(head)
		sb.WriteString("\n")
		sb.WriteString(strings.Repeat("-", len(head)))
		sb.WriteString("\n")
	}
	for _, row := range r.Rows {
		sb.WriteString(strings.Join(row, " | "))
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "%d rows", r.RowsN)
	return sb.String()
}

// expectedFile is the committed reference of one workload at seed 1.
type expectedFile struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Digests  []digest `json:"digests"`
}

func loadExpected(name string) ([]digest, error) {
	data, err := expectedFS.ReadFile("expected/" + name + ".json")
	if err != nil {
		return nil, err
	}
	var f expectedFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("expected/%s.json: %w", name, err)
	}
	return f.Digests, nil
}

// reference computes the digests the plan's queries must produce, from
// the unrewritten plan on a fresh session, except where a query has a
// full closed form: that is then the reference, because an unfocused
// closure is superquadratic and cannot be run at size. With everything
// set, the closed forms are skipped in favour of the engine wherever the
// engine can answer (-regen and the self-tests cross-check them so).
func reference(p *plan, everything bool) ([]digest, error) {
	s, err := newReferenceSession(p)
	if err != nil {
		return nil, err
	}
	s.Rewrite = false
	out := make([]digest, len(p.queries))
	seen := map[string]digest{}
	for i, q := range p.queries {
		cf := p.closed[i]
		if cf != nil && cf.full != nil && (p.atSize || !everything) {
			out[i] = digestText(core.FormatResult(cf.full)).digest
			continue
		}
		d, ok := seen[q]
		if !ok {
			res, err := s.Query(q)
			if err != nil {
				return nil, fmt.Errorf("reference for %q: %w", q, err)
			}
			d = digestText(core.FormatResult(res)).digest
			seen[q] = d
		}
		out[i] = d
	}
	return out, checkClosed(p, out)
}

// checkClosed holds a set of digests against the plan's closed forms.
func checkClosed(p *plan, ds []digest) error {
	for i, cf := range p.closed {
		if cf == nil {
			continue
		}
		if ds[i].Rows != cf.rows {
			return fmt.Errorf("closed form: %q has %d rows, expected %d", p.queries[i], ds[i].Rows, cf.rows)
		}
		if cf.full != nil && digestText(core.FormatResult(cf.full)).digest != ds[i] {
			return fmt.Errorf("closed form: %q differs from its closed-form answer", p.queries[i])
		}
	}
	return nil
}

// regen writes expected/<workload>.json for seed 1 into dir.
func regen(dir string) error {
	for _, w := range workloads {
		p, err := w.gen(1)
		if err != nil {
			return err
		}
		ds, err := reference(p, true)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		data, err := json.MarshalIndent(expectedFile{Workload: w.name, Seed: 1, Digests: ds}, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, w.name+".json"), append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("%s: %d digests\n", w.name, len(ds))
	}
	return nil
}
