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
	body, _ := json.Marshal(map[string]string{"tenant": c.Tenant, "query": query})
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
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return Outcome{Err: err, Code: guard.CodeInternal}
	}
	var r Response
	if err := json.Unmarshal(data, &r); err != nil {
		return Outcome{
			Err:  fmt.Errorf("bad response (HTTP %d): %w", resp.StatusCode, err),
			Code: guard.CodeInternal,
		}
	}
	return Outcome{Resp: &r, Code: guard.Code(r.Code)}
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
