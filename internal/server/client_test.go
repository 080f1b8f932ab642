package server

// The client's half of the wire: its request body against json.Marshal's,
// its response decoder against json.Unmarshal, its allocations against the
// answer's size, and the response-size limit.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"lera/internal/guard"
	"lera/internal/value"
)

// FuzzDecodeResponse: for any bytes, the client's decoder succeeds exactly
// when json.Unmarshal into a Response does, with a deeply equal Response,
// and appending to one decoded row leaves every other row as it was.
// Seeds in testdata/fuzz/FuzzDecodeResponse.
func FuzzDecodeResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var want, got Response
		wantErr := json.Unmarshal(data, &want)
		err := decodeResponse(data, &got)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: decoder error %v, json.Unmarshal error %v", data, err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoder and json.Unmarshal differ:\n got %#v\nwant %#v", data, got, want)
		}
		for i := range got.Rows {
			_ = append(got.Rows[i], "appended")
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%q: appending to a row changed another:\n got %#v\nwant %#v", data, got.Rows, want.Rows)
		}
	})
}

// TestClientDecodeAllocsFlat: decoding an answer allocates per response,
// not per row or cell — a 2 000-row, three-column answer costs the same
// objects as a 200-row one. Its rows are cut from one array of cells with
// their capacity capped, so appending to one row leaves the next alone.
func TestClientDecodeAllocsFlat(t *testing.T) {
	body := func(rows int) []byte {
		resp := Response{Code: string(guard.CodeOK), RowsN: rows, Columns: []string{"Numf", "Title", "Categories"}}
		for i := 1; i <= rows; i++ {
			resp.result = append(resp.result, filmCells(3)(i))
		}
		return new(encoder).response(nil, &resp)
	}
	decode := func(rows int) float64 {
		data := body(rows)
		return testing.AllocsPerRun(20, func() {
			var r Response
			if err := decodeResponse(data, &r); err != nil || len(r.Rows) != rows {
				t.Fatalf("%d rows: %v, %d rows decoded", rows, err, len(r.Rows))
			}
		})
	}
	small, large := decode(200), decode(2000)
	t.Logf("decoded answer: 200 rows %.0f objects, 2 000 rows %.0f objects", small, large)
	if large-small > 16 {
		t.Errorf("a 2 000-row answer decodes in %.0f objects, a 200-row one in %.0f: decoding allocates per row again", large, small)
	}

	var r Response
	if err := decodeResponse(body(3), &r); err != nil {
		t.Fatal(err)
	}
	next := append([]string(nil), r.Rows[1]...)
	_ = append(r.Rows[0], "appended")
	if !reflect.DeepEqual(r.Rows[1], next) {
		t.Fatalf("appending to row 0 changed row 1: %q, want %q", r.Rows[1], next)
	}
}

// BenchmarkClientDecode: decoding one answer per shape with the client's
// decoder and with json.Unmarshal, its reference (docs/PERF.md "Read the
// answer, do not reflect over it").
func BenchmarkClientDecode(b *testing.B) {
	for _, shape := range []struct {
		name  string
		rows  int
		cells func(i int) []value.Value
	}{
		{"20x2", 20, filmCells(2)},
		{"2000x2", 2000, filmCells(2)},
		{"2000x3", 2000, filmCells(3)},
		{"2000x3-escaped", 2000, func(i int) []value.Value {
			return []value.Value{value.Int(int64(i)), value.String(fmt.Sprintf("\"film\" <%d>", i)), value.String("caf\u00e9\u2028")}
		}},
	} {
		resp := Response{Code: string(guard.CodeOK), RowsN: shape.rows}
		for i := 1; i <= shape.rows; i++ {
			resp.result = append(resp.result, shape.cells(i))
		}
		data := new(encoder).response(nil, &resp)
		for _, d := range []struct {
			name   string
			decode func([]byte, *Response) error
		}{{"client", decodeResponse}, {"json.Unmarshal", func(data []byte, r *Response) error { return json.Unmarshal(data, r) }}} {
			b.Run(shape.name+"/"+d.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(data)))
				for i := 0; i < b.N; i++ {
					var r Response
					if err := d.decode(data, &r); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// filmCells returns a row maker of FILM's first n columns: Numf, Title,
// Categories.
func filmCells(n int) func(i int) []value.Value {
	return func(i int) []value.Value {
		return []value.Value{value.Int(int64(i)), value.String(fmt.Sprintf("film-%d", i)), value.NewSet(value.String("Western"))}[:n]
	}
}

// TestRequestBody: the client's request body, written by the response
// writer's string escaper, gives the handler's decoding the same tenant
// and query as json.Marshal's body, whatever bytes they hold.
func TestRequestBody(t *testing.T) {
	bodies := make(chan []byte, 1) // one request at a time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := readBody(&http.Response{Body: r.Body, ContentLength: r.ContentLength})
		if err != nil {
			t.Error(err)
		}
		bodies <- body
		w.Write([]byte(`{"code":"OK"}`))
	}))
	defer srv.Close()
	c := NewClient(srv.URL)
	// The handler's own decoding of a POST /query body.
	type request struct {
		Tenant string `json:"tenant"`
		Query  string `json:"query"`
	}
	for _, s := range []string{"", `say "hi"`, `C:\path\`, "tab\tnl\ncr\r\x00\x1f\x7f", "caf\xc3\xa9 \xff\xfe", "line\u2028para\u2029", "<b>&amp;</b>"} {
		c.Tenant = s
		if out := c.Query(context.Background(), "SELECT "+s); out.Code != guard.CodeOK {
			t.Fatalf("%q: %s %v", s, out.Code, out.Err)
		}
		marshalled, err := json.Marshal(map[string]string{"tenant": s, "query": "SELECT " + s})
		if err != nil {
			t.Fatal(err)
		}
		body := <-bodies
		var got, want request
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%q: body %q does not decode: %v", s, body, err)
		}
		if err := json.Unmarshal(marshalled, &want); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%q: body %q decodes to %+v, json.Marshal's %q to %+v", s, body, got, marshalled, want)
		}
	}
}

// TestClientResponseLimit: an answer over the client's 64 MiB limit is an
// error naming the limit, whether its Content-Length says so before any
// byte is read or, with no length declared, the body reaches the limit.
// An answer under the limit but over the presized buffer's is read whole.
func TestClientResponseLimit(t *testing.T) {
	chunk := bytes.Repeat([]byte("x"), 1<<16)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Has("declared") {
			w.Header().Set("Content-Length", fmt.Sprint(maxResponseBytes+1))
			return // the client must refuse before reading
		}
		if r.URL.Query().Has("large") {
			body := append(append([]byte(`{"code":"OK","error":"`), bytes.Repeat(chunk, maxPresizeBytes/len(chunk)+1)...), `"}`...)
			w.Header().Set("Content-Length", fmt.Sprint(len(body)))
			w.Write(body)
			return
		}
		w.Write([]byte(`{"code":"OK","error":"`)) // chunked: no length declared
		for n := 0; n <= maxResponseBytes; n += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
		w.Write([]byte(`"}`))
	}))
	defer srv.Close()
	for _, url := range []string{srv.URL + "/?declared=1", srv.URL} {
		out := NewClient(url).Query(context.Background(), "SELECT Title FROM FILM")
		if out.Code != guard.CodeInternal || out.Err == nil || !strings.Contains(out.Err.Error(), "64 MiB limit") {
			t.Errorf("%s: an answer over the limit gave %s %v, want INTERNAL naming the 64 MiB limit", url, out.Code, out.Err)
		}
	}
	if out := NewClient(srv.URL+"/?large=1").Query(context.Background(), "SELECT Title FROM FILM"); out.Code != guard.CodeOK || len(out.Resp.Error) != maxPresizeBytes+len(chunk) {
		t.Errorf("an answer of declared length over %d bytes: %s %v", maxPresizeBytes, out.Code, out.Err)
	}
}

// TestClientReusesConnection: a client reading answers of a declared
// length keeps one connection for a run of queries.
func TestClientReusesConnection(t *testing.T) {
	_, base := startServer(t, Config{})
	var dials atomic.Int32
	tr := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		return new(net.Dialer).DialContext(ctx, network, addr)
	}}
	defer tr.CloseIdleConnections()
	c := &Client{BaseURL: base, HTTP: &http.Client{Transport: tr}}
	for i := 0; i < 5; i++ {
		if out := c.Query(context.Background(), filmQuery); out.Code != guard.CodeOK || len(out.Resp.Rows) == 0 {
			t.Fatalf("query %d: %s %v", i, out.Code, out.Err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("5 queries dialled %d connections, want 1", n)
	}
}
