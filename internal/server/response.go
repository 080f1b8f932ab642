package server

// Response rendering. Every query is answered with the bytes
// encoding/json's Encoder.Encode would write for a Response, trailing
// newline included, but the writer here renders them straight from the
// result's rows: each cell goes through value.Value.AppendText into one
// reused buffer, and no [][]string copy of the answer is ever built.
// FuzzResponseJSON pins the bytes to json.Marshal's.

import (
	"net/http"
	"strconv"
	"time"
	"unicode/utf8"

	"lera/internal/engine"
	"lera/internal/value"
)

// maxRequestBytes bounds one POST /query body. A larger body is answered
// PARSE, naming the limit.
const maxRequestBytes = 1 << 20

// maxPooledEncoder is the largest buffer an encoder keeps between
// responses. A larger answer is rendered in a buffer grown for it alone
// and dropped afterwards, so one huge answer does not stay resident.
const maxPooledEncoder = 1 << 20

// encoder owns the buffers one response is rendered in: buf holds the
// response, cell the text of a cell that needs escaping. A server keeps
// its idle encoders (Server.encoders), so a steady stream of answers
// renders into the same memory.
type encoder struct {
	buf  []byte
	cell []byte
}

// render writes resp with an idle encoder, or a new one when none is
// idle, timing it into the encode histogram. The caller sends e.buf and
// then hands e back with release.
func (s *Server) render(resp *Response) *encoder {
	t0 := time.Now()
	var e *encoder
	select {
	case e = <-s.encoders:
	default:
		e = new(encoder)
	}
	e.buf = e.response(e.buf[:0], resp)
	s.m.encode.Observe(time.Since(t0).Seconds())
	return e
}

// release makes e idle again, without any buffer grown past
// maxPooledEncoder; when enough encoders are idle already, e is dropped.
func (s *Server) release(e *encoder) {
	if cap(e.buf) > maxPooledEncoder {
		e.buf = nil
	}
	if cap(e.cell) > maxPooledEncoder {
		e.cell = nil
	}
	select {
	case s.encoders <- e:
	default:
	}
}

// writeResponse sends resp as an HTTP response: one Write of the finished
// body, with its Content-Length.
func (s *Server) writeResponse(w http.ResponseWriter, status int, resp *Response) {
	e := s.render(resp)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(e.buf)))
	w.WriteHeader(status)
	_, _ = w.Write(e.buf) // a failed write is the client's hang-up; there is no one left to tell
	s.release(e)
}

// response appends resp's JSON encoding to dst: its fields in declaration
// order under their tags, with encoding/json's omitempty rules, the rows
// from resp.result, and the newline Encoder.Encode ends a value with.
func (e *encoder) response(dst []byte, r *Response) []byte {
	dst = append(dst, `{"code":`...)
	dst = appendJSONString(dst, r.Code)
	if r.Error != "" {
		dst = appendJSONString(append(dst, `,"error":`...), r.Error)
	}
	if r.Tenant != "" {
		dst = appendJSONString(append(dst, `,"tenant":`...), r.Tenant)
	}
	dst = strconv.AppendInt(append(dst, `,"rowCount":`...), int64(r.RowsN), 10)
	if len(r.Columns) > 0 {
		dst = append(dst, `,"columns":[`...)
		for i, c := range r.Columns {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendJSONString(dst, c)
		}
		dst = append(dst, ']')
	}
	if len(r.result) > 0 {
		dst = append(dst, `,"rows":[`...)
		for i, row := range r.result {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			for j := range row {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = e.appendCell(dst, &row[j])
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	if r.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if r.DegradedCode != "" {
		dst = appendJSONString(append(dst, `,"degradedCode":`...), r.DegradedCode)
	}
	if r.DegradedReason != "" {
		dst = appendJSONString(append(dst, `,"degradedReason":`...), r.DegradedReason)
	}
	if c := r.Counters; c != nil {
		dst = appendCounters(append(dst, `,"counters":`...), c)
	}
	dst = strconv.AppendInt(append(dst, `,"elapsedNs":`...), r.ElapsedNs, 10)
	return append(dst, "}\n"...)
}

// appendCounters writes the work counters as encoding/json does an
// untagged struct: every field under its Go name, in declaration order.
func appendCounters(dst []byte, c *engine.Counters) []byte {
	dst = strconv.AppendInt(append(dst, `{"Scanned":`...), int64(c.Scanned), 10)
	dst = strconv.AppendInt(append(dst, `,"JoinPairs":`...), int64(c.JoinPairs), 10)
	dst = strconv.AppendInt(append(dst, `,"Emitted":`...), int64(c.Emitted), 10)
	dst = strconv.AppendInt(append(dst, `,"PredEvals":`...), int64(c.PredEvals), 10)
	dst = strconv.AppendInt(append(dst, `,"FixIterations":`...), int64(c.FixIterations), 10)
	return append(dst, '}')
}

// appendCell writes one cell as a JSON string of its value.String
// rendering. The text is rendered in place and, in the common case of
// printable ASCII with nothing to escape, left there; otherwise the part
// from the first byte needing an escape is moved to e.cell and escaped
// back.
func (e *encoder) appendCell(dst []byte, v *value.Value) []byte {
	dst = append(dst, '"')
	start := len(dst)
	dst = v.AppendText(dst)
	for i := start; i < len(dst); i++ {
		if b := dst[i]; b >= utf8.RuneSelf || !jsonSafe[b] {
			e.cell = append(e.cell[:0], dst[i:]...)
			dst = appendJSONEscaped(dst[:i], e.cell)
			break
		}
	}
	return append(dst, '"')
}

// appendJSONString writes s as a JSON string, quotes included.
func appendJSONString(dst []byte, s string) []byte {
	return append(appendJSONEscaped(append(dst, '"'), s), '"')
}

// appendJSONEscaped writes the body of a JSON string holding s, escaped as
// encoding/json escapes it with HTML escaping on (its default): '"' and
// '\\' and the control bytes with a short escape where JSON has one,
// else \u00XX; '<', '>' and '&' as \u00XX; U+2028 and U+2029 as
// \u2028 and \u2029; each byte of invalid UTF-8 as \ufffd.
func appendJSONEscaped[T string | []byte](dst []byte, s T) []byte {
	const hex = "0123456789abcdef"
	done := 0 // s[:done] is written
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[done:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xf])
			}
			i++
			done = i
			continue
		}
		n := min(len(s)-i, utf8.UTFMax)
		r, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[done:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[done:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		done = i
	}
	return append(dst, s[done:]...)
}

// jsonSafe marks the ASCII bytes a JSON string holds unescaped under
// encoding/json's HTML-safe rules.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()
