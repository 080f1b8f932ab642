package server

// The response writer: its bytes against encoding/json's, its allocations
// against the answer's size, the lifetime of the rows it reads, the
// request-size limit, and GET and POST answering byte for byte the same.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"lera/internal/engine"
	"lera/internal/guard"
	"lera/internal/value"
)

// FuzzResponseJSON: for any strings and any rows of every value kind, the
// writer produces exactly json.Marshal of the Response with its Rows
// rendered by value.Value.String, plus Encoder.Encode's newline, and the
// client's decoder reads those Rows back from it.
func FuzzResponseJSON(f *testing.F) {
	f.Add("OK", "", "default", "Title", "", "it's <b>&</b>", []byte("caf\xc3\xa9 \xff"), int64(-7), 2.5, true, uint8(0xff), 3, int64(120534))
	e := new(encoder) // reused across inputs, as a server reuses its encoders
	f.Fuzz(func(t *testing.T, code, errMsg, tenant, col, reason, s string, raw []byte, i int64, fl float64, b bool, shape uint8, n int, elapsed int64) {
		cells := []value.Value{
			value.Null, value.Bool(b), value.Int(i), value.Real(fl), value.String(s), value.String(string(raw)), value.OID(i),
			value.NewTuple([]string{col, "n"}, []value.Value{value.String(s), value.Real(fl)}),
			value.NewSet(value.String(s), value.Int(i), value.String(string(raw))),
			value.NewList(value.String(string(raw)), value.Null, value.NewList()),
			value.NewBag(value.Bool(b), value.Bool(b), value.OID(i)),
		}
		reals := []value.Value{value.Real(math.Copysign(0, -1)), value.Real(math.NaN()), value.Real(1e300), value.Real(math.Inf(-1)), value.Real(1e15)}
		resp := Response{Code: code, Error: errMsg, Tenant: tenant, RowsN: n, ElapsedNs: elapsed}
		if shape&1 != 0 {
			resp.Columns = []string{col, s, string(raw)}
		}
		if shape&2 != 0 {
			resp.result = [][]value.Value{cells, reals, {}}
		}
		if shape&4 != 0 {
			resp.Degraded, resp.DegradedCode, resp.DegradedReason = b, s, reason
		}
		if shape&8 != 0 {
			resp.Counters = &engine.Counters{Scanned: int(i), JoinPairs: n, Emitted: -n, PredEvals: int(elapsed), FixIterations: len(s)}
		}

		want := resp
		for _, row := range resp.result {
			out := make([]string, len(row))
			for j, v := range row {
				out[j] = v.String()
			}
			want.Rows = append(want.Rows, out)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON = append(wantJSON, '\n')

		e.buf = e.response(e.buf[:0], &resp)
		if !bytes.Equal(e.buf, wantJSON) {
			t.Fatalf("writer and encoding/json differ:\n got %q\nwant %q", e.buf, wantJSON)
		}

		// The wire round trip: the client decodes want's rows, each byte
		// of invalid UTF-8 read back as U+FFFD.
		var got Response
		if err := decodeResponse(e.buf, &got); err != nil {
			t.Fatalf("client cannot decode %q: %v", e.buf, err)
		}
		for _, row := range want.Rows {
			for j, cell := range row {
				row[j] = string([]rune(cell))
			}
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("client decoded rows %q, want %q", got.Rows, want.Rows)
		}
	})
}

// TestServedAnswerAllocsFlat: rendering an answer allocates per response,
// not per row or cell — a 2 000-row answer costs the same objects as a
// 200-row one, up to the engine's geometric growth of the result.
func TestServedAnswerAllocsFlat(t *testing.T) {
	srv := filmServer(t, 2000)
	ctx := context.Background()
	answer := func(lo, rows int) float64 {
		q := fmt.Sprintf("SELECT Numf, Title, Categories FROM FILM WHERE Numf > %d", lo)
		return testing.AllocsPerRun(10, func() {
			resp := srv.handleQuery(ctx, "", q)
			if resp.Code != string(guard.CodeOK) || resp.RowsN != rows {
				t.Fatalf("%s: %s, %d rows", q, resp.Code, resp.RowsN)
			}
			srv.release(srv.render(&resp))
		})
	}
	small, large := answer(1800, 200), answer(0, 2000)
	t.Logf("served answer: 200 rows %.0f objects, 2 000 rows %.0f objects", small, large)
	if large-small > 16 {
		t.Errorf("a 2 000-row answer allocates %.0f objects, a 200-row one %.0f: rendering allocates per row again", large, small)
	}
}

// TestRenderedRowsOutliveSession: the writer reads a response's rows after
// handleQuery has returned its session to the pool. Later queries on that
// very session must leave those rows as they were.
func TestRenderedRowsOutliveSession(t *testing.T) {
	srv := filmServer(t, 300) // one pooled session: every query below runs on it
	ctx := context.Background()
	first := srv.handleQuery(ctx, "", "SELECT Numf, Title FROM FILM WHERE Numf > 100")
	e := srv.render(&first)
	want := string(e.buf)
	srv.release(e)
	for lo := 0; lo < 300; lo += 37 {
		if r := srv.handleQuery(ctx, "", fmt.Sprintf("SELECT Title, Numf FROM FILM WHERE Numf > %d", lo)); r.Code != string(guard.CodeOK) {
			t.Fatalf("query %d: %s %s", lo, r.Code, r.Error)
		}
	}
	e = srv.render(&first)
	defer srv.release(e)
	if got := string(e.buf); got != want {
		t.Fatalf("rows changed after the session ran other queries:\n got %.200s\nwant %.200s", got, want)
	}
}

// TestOversizedHTTPBody: a POST body past the size limit is answered
// PARSE (400) naming the limit, not as a truncated JSON document.
func TestOversizedHTTPBody(t *testing.T) {
	_, base := startServer(t, Config{})
	body := `{"query": "SELECT Title FROM FILM WHERE Title = '` + strings.Repeat("x", maxRequestBytes) + `'"}`
	hresp, err := http.Post(base+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var resp Response
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusBadRequest || resp.Code != string(guard.CodeParse) ||
		!strings.Contains(resp.Error, fmt.Sprint(maxRequestBytes)) {
		t.Fatalf("oversized body answered %d %s %q, want 400 PARSE naming the %d-byte limit",
			hresp.StatusCode, resp.Code, resp.Error, maxRequestBytes)
	}
}

// TestProtocolParity: one query as GET /query?q= and as POST /query
// answers the same status and bytes, the elapsed time aside: for answers
// with rows, for a budget failure and for a parse failure. Each rendering,
// GET or POST, is timed into lera_server_encode_seconds.
func TestProtocolParity(t *testing.T) {
	srv, base := startServer(t, Config{Tenants: Tenants{"free": {MaxRows: 1000}, "tiny": {MaxRows: 1}}})
	read := func(hresp *http.Response, err error) (int, []byte) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer hresp.Body.Close()
		b, err := io.ReadAll(hresp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return hresp.StatusCode, b
	}
	elapsed := regexp.MustCompile(`"elapsedNs":[0-9]+`)
	mask := func(b []byte) string { return elapsed.ReplaceAllString(string(b), `"elapsedNs":N`) }

	cases := []struct{ tenant, query string }{
		{"free", filmQuery},
		{"free", "SELECT Numf, Title, Categories FROM FILM WHERE Title <> 'x'"},
		{"tiny", filmQuery},
		{"free", "nonsense !!"},
	}
	for _, c := range cases {
		getStatus, overGET := read(http.Get(base + "/query?" + url.Values{"tenant": {c.tenant}, "q": {c.query}}.Encode()))
		body, _ := json.Marshal(map[string]string{"tenant": c.tenant, "query": c.query})
		postStatus, overPOST := read(http.Post(base+"/query", "application/json", bytes.NewReader(body)))
		if getStatus != postStatus || mask(overGET) != mask(overPOST) {
			t.Errorf("%s / %q: GET and POST differ:\nGET  %d %s\nPOST %d %s", c.tenant, c.query, getStatus, overGET, postStatus, overPOST)
		}
		if !elapsed.Match(overGET) {
			t.Errorf("%q: no elapsedNs in %s", c.query, overGET)
		}
	}
	// Every response, GET or POST, was timed.
	if n, want := srv.m.encode.Count(), uint64(2*len(cases)); n != want {
		t.Errorf("lera_server_encode_seconds count = %d, want %d", n, want)
	}
}
