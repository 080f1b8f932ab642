package server

// The line protocol: a newline-delimited request/response framing for
// scripts, loadgen and netcat, multiplexed on the same listener as HTTP.
// Protocol sniffing keys on the first byte of the connection — HTTP
// methods ("GET", "POST", ...) are uppercase ASCII, line-protocol verbs
// are lowercase — so one port serves both.
//
// Requests (one per line):
//
//	tenant <name>    set this connection's tenant (echoes "ok <name>")
//	query <esql>     run one SELECT; answers one JSON Response line
//	q <esql>         shorthand for query
//	ping             liveness check (echoes "pong")
//	quit             close the connection
//
// Every query answers exactly one JSON line — the same Response shape the
// HTTP API returns, same code vocabulary, so a client speaking either
// protocol sees identical outcomes. A line longer than maxRequestBytes
// is answered with one PARSE line naming the limit, and the connection
// closes.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"lera/internal/guard"
)

// serveLine runs the line protocol on one sniffed connection until EOF,
// quit, or drain-time close.
func (s *Server) serveLine(conn net.Conn, br *bufio.Reader) {
	defer conn.Close()
	w := bufio.NewWriter(conn)
	tenant := ""
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 0, 64*1024), maxRequestBytes)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		verb, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		switch strings.ToLower(verb) {
		case "quit", "exit":
			fmt.Fprintln(w, "bye")
			_ = w.Flush()
			return
		case "ping":
			fmt.Fprintln(w, "pong")
		case "tenant":
			name, _ := s.cfg.Tenants.Resolve(rest)
			tenant = rest
			fmt.Fprintf(w, "ok %s\n", name)
		case "query", "q":
			resp := s.handleQuery(s.requestCtx(conn), tenant, rest)
			s.writeLine(w, &resp)
		default:
			fmt.Fprintf(w, "error unknown verb %q (tenant|query|ping|quit)\n", verb)
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
	// A line past the limit stops the scanner mid-line: nothing after it
	// can be framed, so answer the request typed and close. Closing with
	// the rest of the line unread would reset the connection, which can
	// destroy the answer before the client reads it; so first discard
	// what the client is still sending, for a bounded time.
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		s.writeLine(w, &Response{Code: string(guard.CodeParse),
			Error: fmt.Sprintf("request line exceeds the %d-byte limit", maxRequestBytes)})
		if w.Flush() == nil {
			_ = conn.SetReadDeadline(time.Now().Add(time.Second))
			_, _ = io.Copy(io.Discard, io.LimitReader(br, maxRequestBytes))
		}
	}
}

// writeLine writes resp as its one JSON line (the rendering ends with the
// newline).
func (s *Server) writeLine(w *bufio.Writer, resp *Response) {
	e := s.render(resp)
	_, _ = w.Write(e.buf) // a failed write surfaces at the caller's Flush
	s.release(e)
}

// requestCtx derives the per-request context for a line-protocol query:
// the server's base context, cancelled at the drain deadline. The
// connection itself is the client's cancellation signal; drain-time close
// unblocks any pending read or write.
func (s *Server) requestCtx(net.Conn) context.Context { return s.baseCtx }
