package server

// Client is the Go-side HTTP client for the server, used by cmd/loadgen
// and the tests. It adds the one robustness behavior a well-behaved
// client owes an overloaded server: bounded retries with exponential
// backoff and deterministic jitter, and only for the codes that promise a
// retry might help (OVERLOADED; optionally DEADLINE). Every other code is
// final — retrying a PARSE or a ROW_BUDGET error is a waste of both
// sides' budget.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
	"unicode/utf8"

	"lera/internal/guard"
)

// RetryPolicy bounds the client's retries of OVERLOADED answers; other
// answers are final (a query that blew its DEADLINE usually blows it
// again). Jitter is deterministic (a per-client xorshift seeded
// explicitly), so a load test that shed N requests sheds exactly N on the
// rerun.
type RetryPolicy struct {
	// MaxAttempts counts the first try too; 0 or 1 means no retries.
	MaxAttempts int
	// BaseBackoff is the first retry's delay; each further retry doubles
	// it, capped at MaxBackoff. Jitter in [0, backoff/2) is added.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed seeds the jitter PRNG; the zero value is replaced by 1.
	Seed uint64
}

// DefaultRetryPolicy: 4 attempts, 10ms base, 200ms cap.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 200 * time.Millisecond}
}

// Client issues queries over the HTTP API.
type Client struct {
	BaseURL string
	Tenant  string
	Retry   RetryPolicy
	HTTP    *http.Client

	rng uint64
}

// NewClient builds a client for baseURL (e.g. "http://127.0.0.1:7457")
// with the default retry policy.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, Retry: DefaultRetryPolicy(), HTTP: &http.Client{}}
}

// Outcome is one query's final, client-side account: the server's last
// response (or the transport error), plus how many attempts it took.
// Exactly one of Resp/Err is meaningful; Code covers both (transport
// errors report as INTERNAL unless the context expired).
type Outcome struct {
	Resp     *Response
	Err      error
	Code     guard.Code
	Attempts int
	// Total is the wall clock across all attempts, backoff included.
	Total time.Duration
}

// Query runs one query with retries per the policy and returns its final
// outcome. It never returns an unreported result: every path yields an
// Outcome with a code.
func (c *Client) Query(ctx context.Context, query string) Outcome {
	t0 := time.Now()
	pol := c.Retry
	if pol.MaxAttempts < 1 {
		pol.MaxAttempts = 1
	}
	if c.rng == 0 {
		if pol.Seed == 0 {
			pol.Seed = 1
		}
		c.rng = pol.Seed
	}
	var out Outcome
	backoff := pol.BaseBackoff
	for attempt := 1; ; attempt++ {
		out = c.once(ctx, query)
		out.Attempts = attempt
		if out.Code != guard.CodeOverloaded || attempt >= pol.MaxAttempts || ctx.Err() != nil {
			break
		}
		d := backoff + c.jitter(backoff/2)
		select {
		case <-time.After(d):
		case <-ctx.Done():
			out.Total = time.Since(t0)
			return out
		}
		if backoff *= 2; backoff > pol.MaxBackoff && pol.MaxBackoff > 0 {
			backoff = pol.MaxBackoff
		}
	}
	out.Total = time.Since(t0)
	return out
}

// once performs a single HTTP attempt.
func (c *Client) once(ctx context.Context, query string) Outcome {
	// {"tenant":…,"query":…}, escaped as encoding/json escapes; the
	// rest of the body is 24 bytes.
	body := appendJSONString(append(make([]byte, 0, len(c.Tenant)+len(query)+24), `{"tenant":`...), c.Tenant)
	body = append(appendJSONString(append(body, `,"query":`...), query), '}')
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/query", bytes.NewReader(body))
	if err != nil {
		return Outcome{Err: err, Code: guard.CodeInternal}
	}
	req.Header.Set("Content-Type", "application/json")
	hc := c.HTTP
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		code := guard.CodeInternal
		if ctx.Err() != nil {
			code = guard.CodeOf(ctx.Err())
		}
		return Outcome{Err: err, Code: code}
	}
	defer resp.Body.Close()
	data, err := readBody(resp)
	if err != nil {
		return Outcome{Err: err, Code: guard.CodeInternal}
	}
	var r Response
	if err := decodeResponse(data, &r); err != nil {
		return Outcome{
			Err:  fmt.Errorf("bad response (HTTP %d): %w", resp.StatusCode, err),
			Code: guard.CodeInternal,
		}
	}
	return Outcome{Resp: &r, Code: guard.Code(r.Code)}
}

// maxResponseBytes bounds one response body the client reads;
// maxPresizeBytes bounds the buffer it allocates before reading, on the
// word of a declared Content-Length.
const (
	maxResponseBytes = 64 << 20
	maxPresizeBytes  = 4 << 20
)

// readBody reads resp's body whole: into one buffer of the declared
// Content-Length up to maxPresizeBytes, otherwise into a buffer grown as
// the bytes arrive, up to maxResponseBytes. A body over the limit is an
// error naming it, never a truncated document.
func readBody(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n > maxResponseBytes {
		return nil, fmt.Errorf("response body of %d bytes exceeds the client's %d MiB limit", n, maxResponseBytes>>20)
	}
	if n >= 0 && n <= maxPresizeBytes {
		data := make([]byte, n)
		if _, err := io.ReadFull(resp.Body, data); err != nil {
			return nil, fmt.Errorf("read response body: %w", err)
		}
		return data, nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return nil, fmt.Errorf("read response body: %w", err)
	}
	if len(data) > maxResponseBytes {
		return nil, fmt.Errorf("response body exceeds the client's %d MiB limit", maxResponseBytes>>20)
	}
	return data, nil
}

// decodeResponse decodes a response body into r, a zero Response, with
// the result json.Unmarshal gives, error or not (FuzzDecodeResponse).
// encoding/json decodes every field but the rows and validates the whole
// document; the rows are read from one string copy of their text
// (decodeRows), unless they take a path only encoding/json can follow
// exactly, when it decodes the whole body again: "rows" given more than
// once (a later value decodes into the earlier one's slices), a cell that
// needs unquoting, or a value that is not null or an array of null and
// arrays of strings and null (a type error).
func decodeResponse(data []byte, r *Response) error {
	w := wireResponse{Response: r}
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Rows.seen == 0 {
		return nil
	}
	if w.Rows.seen == 1 {
		if rows, ok := decodeRows(w.Rows.text); ok {
			r.Rows = rows
			return nil
		}
	}
	*r = Response{}
	return json.Unmarshal(data, r)
}

// wireResponse is a Response as decodeResponse hands it to encoding/json:
// its Rows, at the shallower depth, hides the embedded Response's.
type wireResponse struct {
	*Response
	Rows rowsText `json:"rows,omitempty"`
}

// rowsText is the text of a response's "rows" value, and how many times
// the key occurred.
type rowsText struct {
	text string
	seen int
}

func (t *rowsText) UnmarshalJSON(b []byte) error {
	t.text = string(b)
	t.seen++
	return nil
}

// decodeRows decodes text, the valid JSON of a "rows" value, in two
// passes: the first counts its rows and cells, the second fills one
// []string of exactly that many cells, cut into rows with three-index
// slices so that appending to a row never writes into the next. Each cell
// is a substring of text. ok is false when text is not null or an array of
// null and arrays of plain strings and null: a cell holding a backslash or
// invalid UTF-8 is left, with the whole answer, to json.Unmarshal.
func decodeRows(text string) (rows [][]string, ok bool) {
	nrows, ncells, ok := rowsPass(text, nil, nil)
	if !ok || nrows < 0 {
		return nil, ok
	}
	rows, cells := make([][]string, nrows), make([]string, ncells)
	rowsPass(text, rows, cells)
	return rows, true
}

// rowsPass walks text once, counting rows and cells (nrows is -1 for
// null). Given rows and cells of those sizes, it also fills them.
func rowsPass(text string, rows [][]string, cells []string) (nrows, ncells int, ok bool) {
	i := skipSpace(text, 0)
	switch byteAt(text, i) {
	case 'n':
		return -1, 0, true
	case '[':
	default:
		return 0, 0, false
	}
	if i = skipSpace(text, i+1); byteAt(text, i) == ']' {
		return 0, 0, true
	}
	for {
		switch byteAt(text, i) {
		case 'n': // a null row is a nil []string
			i += len("null")
		case '[':
			first := ncells
			if i = skipSpace(text, i+1); byteAt(text, i) != ']' {
				for {
					switch byteAt(text, i) {
					case 'n': // a null cell leaves the fresh cell ""
						i += len("null")
					case '"':
						end := plainStringEnd(text, i)
						if end < 0 {
							return 0, 0, false
						}
						if cells != nil {
							cells[ncells] = text[i+1 : end-1]
						}
						i = end
					default:
						return 0, 0, false
					}
					ncells++
					if i = skipSpace(text, i); byteAt(text, i) == ']' {
						break
					}
					if byteAt(text, i) != ',' {
						return 0, 0, false
					}
					i = skipSpace(text, i+1)
				}
			}
			if rows != nil {
				rows[nrows] = cells[first:ncells:ncells]
			}
			i++
		default:
			return 0, 0, false
		}
		nrows++
		if i = skipSpace(text, i); byteAt(text, i) == ']' {
			return nrows, ncells, true
		}
		if byteAt(text, i) != ',' {
			return 0, 0, false
		}
		i = skipSpace(text, i+1)
	}
}

// plainStringEnd returns the index just past the JSON string starting at
// text[i] if its body is the string itself (no escapes, valid UTF-8), and
// -1 otherwise.
func plainStringEnd(text string, i int) int {
	ascii := true
	for j := i + 1; j < len(text); j++ {
		switch b := text[j]; {
		case b == '"':
			if ascii || utf8.ValidString(text[i+1:j]) {
				return j + 1
			}
			return -1
		case b == '\\':
			return -1
		case b >= utf8.RuneSelf:
			ascii = false
		}
	}
	return -1
}

// byteAt is text[i], or 0 past its end.
func byteAt(text string, i int) byte {
	if i < len(text) {
		return text[i]
	}
	return 0
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(text string, i int) int {
	for i < len(text) && (text[i] == ' ' || text[i] == '\t' || text[i] == '\n' || text[i] == '\r') {
		i++
	}
	return i
}

// jitter draws a deterministic duration in [0, max) via xorshift64.
func (c *Client) jitter(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	x := c.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	c.rng = x
	return time.Duration(x % uint64(max))
}
