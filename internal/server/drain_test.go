package server

// Graceful drain under -race with intra-query parallelism > 1: an
// in-flight query either completes or is cancelled within the drain
// deadline, new work is refused with a typed DRAINING outcome, and the
// listener stops accepting connections.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"testing"
	"time"

	"lera/internal/guard"
)

// drainServer boots a server with a fault injector to arm (no automatic
// cleanup drain — the test drives the drain itself) and returns it with
// its listener address.
func drainServer(t *testing.T, cfg Config) (*Server, string, chan error) {
	t.Helper()
	cfg.LoadFilms = true
	cfg.Parallelism = 2 // exercise the intra-query worker pool during drain
	srv, err := newServer(cfg, guard.NewInjector())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return srv, ln.Addr().String(), done
}

// TestDrainWaitsForInFlight: a query executing when drain begins runs to
// completion; drain returns clean; Serve unblocks; the port refuses new
// connections.
func TestDrainWaitsForInFlight(t *testing.T) {
	srv, addr, done := drainServer(t, Config{DrainTimeout: 10 * time.Second})
	srv.inj.Set("COUNT", guard.Fault{Mode: guard.FaultStall, Stall: 150 * time.Millisecond})

	slow := make(chan Outcome, 1)
	go func() {
		c := NewClient("http://" + addr)
		slow <- c.Query(context.Background(), "SELECT Title FROM FILM WHERE COUNT(Categories) > 0")
	}()
	waitInFlight(t, srv)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	out := <-slow
	if out.Code != guard.CodeOK || out.Resp.RowsN != 4 {
		t.Fatalf("in-flight query during drain: code=%s resp=%+v err=%v", out.Code, out.Resp, out.Err)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after drain")
	}
	if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		// A TCP dial may still connect before the OS reaps the socket,
		// but no request may be answered on it.
		_ = conn.SetDeadline(time.Now().Add(time.Second))
		fmt.Fprintf(conn, "GET /healthz HTTP/1.1\r\nHost: lera\r\n\r\n")
		if resp, err := http.ReadResponse(bufio.NewReader(conn), nil); err == nil {
			t.Fatalf("drained listener answered %s", resp.Status)
		}
		conn.Close()
	}
}

// TestDrainCancelsAtDeadline: a query stalled past the drain deadline is
// cancelled, receives a typed outcome, and drain finishes within
// deadline+grace instead of hanging.
func TestDrainCancelsAtDeadline(t *testing.T) {
	srv, addr, done := drainServer(t, Config{
		DrainTimeout: 200 * time.Millisecond,
		DrainGrace:   2 * time.Second,
	})
	// One stall far beyond the drain deadline: only cancellation can end
	// the query.
	srv.inj.Set("COUNT", guard.Fault{Mode: guard.FaultStall, Stall: 60 * time.Second})

	slow := make(chan Outcome, 1)
	go func() {
		c := NewClient("http://" + addr)
		c.Retry.MaxAttempts = 1
		slow <- c.Query(context.Background(), "SELECT Title FROM FILM WHERE COUNT(Categories) > 0")
	}()
	waitInFlight(t, srv)

	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := srv.Drain(ctx)
	if err == nil {
		t.Fatal("drain of a 60s-stalled query reported clean")
	}
	if guard.CodeOf(err) != guard.CodeDeadline {
		t.Fatalf("drain error is untyped: %v", err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Fatalf("drain took %v, want < deadline+grace+slack", d)
	}
	out := <-slow
	if out.Code != guard.CodeCanceled && out.Code != guard.CodeDeadline && out.Err == nil {
		t.Fatalf("cancelled in-flight query got untyped outcome: code=%s resp=%+v", out.Code, out.Resp)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after deadline drain")
	}
}

// TestDrainRefusesNewWork: a keep-alive connection opened before drain
// still gets typed DRAINING answers for queries sent while the server
// drains. Both requests are written by hand on one raw connection, so
// the second provably reuses it.
func TestDrainRefusesNewWork(t *testing.T) {
	srv, addr, done := drainServer(t, Config{DrainTimeout: 5 * time.Second})
	srv.inj.Set("COUNT", guard.Fault{Mode: guard.FaultStall, Stall: 100 * time.Millisecond})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	target := "/query?" + url.Values{"q": {filmQuery}}.Encode()
	query := func() (int, Response) {
		t.Helper()
		hresp := rawRequest(t, conn, br, target)
		defer hresp.Body.Close()
		var resp Response
		if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return hresp.StatusCode, resp
	}
	if st, resp := query(); st != http.StatusOK || resp.Code != string(guard.CodeOK) {
		t.Fatalf("pre-drain query: %d %s", st, resp.Code)
	}

	// Hold a session so drain stays in its waiting phase.
	slow := make(chan Outcome, 1)
	go func() {
		c := NewClient("http://" + addr)
		slow <- c.Query(context.Background(), "SELECT Title FROM FILM WHERE COUNT(Categories) > 0")
	}()
	waitInFlight(t, srv)

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainDone <- srv.Drain(ctx)
	}()
	// Queries answer OK until the pool starts draining; the first that
	// does not must be refused with DRAINING.
	waitFor(t, func() bool {
		st, resp := query()
		if st == http.StatusOK {
			return false
		}
		if st != http.StatusServiceUnavailable || resp.Code != string(guard.CodeDraining) {
			t.Fatalf("query during drain: %d %s, want 503 DRAINING", st, resp.Code)
		}
		return true
	}, "no query was refused with DRAINING")

	if out := <-slow; out.Code != guard.CodeOK {
		t.Fatalf("in-flight query: %s", out.Code)
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := srv.Metrics().Snapshot()["lera_server_requests_total"].(map[string]int64)[`{tenant="default",code="DRAINING"}`]; n == 0 {
		t.Error("the request ledger counted no DRAINING answer")
	}
	<-done
}

func waitInFlight(t *testing.T, srv *Server) {
	t.Helper()
	waitFor(t, func() bool { return srv.pool.inFlight() > 0 }, "query never entered execution")
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}
