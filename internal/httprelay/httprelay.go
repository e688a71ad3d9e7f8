// Package httprelay implements the HTTP/1.x framing the front end needs
// on its persistent-connection relay path (paper Section 5).
//
// The paper's re-handoff design — "the front end ... hands off a
// connection multiple times, so that different requests on the same
// connection can be served by different back ends" — requires the front
// end to know exactly where each request and each response ends, because
// between two messages the connection must be quiescent enough to hand
// off. This package is that framing layer, shared by the front end's
// dispatch parser, the re-handoff relay, and the load generator's raw
// persistent-connection client:
//
//   - request heads with strict Content-Length parsing (digits only,
//     no negatives, conflicting duplicates rejected — the
//     request-smuggling shapes surface as MalformedError, which the
//     front end answers with 400 instead of forwarding verbatim);
//   - Connection header token-list parsing ("keep-alive, TE" is a list,
//     not a literal) and version-aware keep-alive defaults (HTTP/1.1
//     defaults to persistent, HTTP/1.0 to close);
//   - chunked transfer framing relayed chunk by chunk — the relay knows
//     where the body ends without downgrading the connection to
//     copy-until-close;
//   - bodiless responses (1xx, 204, 304, and any response to HEAD) and
//     100 Continue interleaving;
//   - pipelined requests: readers consume exactly one message, leaving
//     any follow-on bytes buffered for the next read.
package httprelay

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// MalformedError reports a message that violates HTTP framing rules in a
// way the relay must not paper over (request smuggling shapes included).
// The front end maps request-side MalformedErrors to 400 responses.
type MalformedError struct {
	Reason string
}

func (e *MalformedError) Error() string { return "httprelay: malformed message: " + e.Reason }

func malformedf(format string, args ...any) error {
	return &MalformedError{Reason: fmt.Sprintf(format, args...)}
}

// TruncatedError reports a request head its connection ended, failed or
// timed out part way through: a transport fault, not a framing one, so
// (net/http's rule for common network read errors) it is answered with
// nothing. Err is the read's error, io.ErrUnexpectedEOF for a clean close.
type TruncatedError struct {
	Err error
}

func (e *TruncatedError) Error() string { return "httprelay: truncated head: " + e.Err.Error() }

func (e *TruncatedError) Unwrap() error { return e.Err }

// malformed is malformedf for the //lard:noalloc parsers: a fixed reason
// and the offending bytes, with no variadic boxing at the call site.
//
//go:noinline
func malformed(reason string, detail []byte) error {
	return &MalformedError{Reason: reason + " " + strconv.Quote(string(detail))}
}

// maxLineBytes bounds any single line read outside the head-size budget
// (chunk-size lines and trailer lines).
const maxLineBytes = 16 << 10

// readLine reads one line through its '\n' terminator, erroring once the
// line exceeds max bytes, so a peer cannot grow a single unterminated
// line without bound.
func readLine(br *bufio.Reader, max int) ([]byte, error) {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		line = append(line, frag...)
		if len(line) > max {
			return nil, malformedf("line exceeds %d bytes", max)
		}
		if err == bufio.ErrBufferFull {
			continue
		}
		return line, err
	}
}

// headScan finds where a message head ends in a prefix of the message
// that grows between calls: at the first blank line after the start line.
// A line is blank when only CRs precede its LF, so bare-LF line endings
// frame a head like CRLF ones.
type headScan struct {
	off     int  // the whole lines before off are scanned
	started bool // the start line is among them
}

// End returns the length of the head at the front of b, 0 while its blank
// line has not arrived. Blank lines ahead of the start line are skipped
// (and counted into the head) unless the scan was made with started set.
//
//lard:noalloc
func (s *headScan) End(b []byte) int {
	for {
		i := bytes.IndexByte(b[s.off:], '\n')
		if i < 0 {
			return 0
		}
		blank := len(trimCRLF(b[s.off:s.off+i])) == 0
		s.off += i + 1
		if !blank {
			s.started = true
		} else if s.started {
			return s.off
		}
	}
}

// readHead returns the bytes of the next message head in br, through its
// blank line. There are two ways to get them and one parser for both:
//
//   - A head that lies whole in br's window — every head but a freak —
//     is returned in place and unconsumed: unread is its length, the
//     caller Discards it (or writes the window on, head and all), and the
//     bytes are valid until the next read from br.
//   - A head that outgrows the window is accumulated, window by window,
//     in a buffer of its own and consumed; unread is 0.
//
// request selects the request side's leniencies: blank lines before the
// start line are skipped, and an I/O error is no framing fault: before any
// byte arrived it is returned untouched, the connection's normal end of
// life, and part way through a head it is a TruncatedError. Every other
// failure is a MalformedError.
func readHead(br *bufio.Reader, maxBytes int, request bool) (head []byte, unread int, err error) {
	s := headScan{started: !request}
	var acc []byte // the consumed windows of a head that outgrew one
	for {
		w, _ := br.Peek(br.Buffered())
		b := w
		if acc != nil {
			acc = append(acc, w...)
			b = acc
		}
		n := s.End(b)
		switch {
		case n > maxBytes || n == 0 && len(b) > maxBytes:
			return nil, 0, malformedf("head exceeds %d bytes", maxBytes)
		case n > 0 && acc == nil:
			return w[:n], n, nil
		case n > 0:
			// Only the head's share of this window is consumed.
			br.Discard(len(w) - (len(acc) - n))
			return acc[:n], 0, nil
		case acc != nil || len(w) == br.Size():
			// The window is spent: keep it, and move on to the next.
			if acc == nil {
				acc = append(acc, w...)
			}
			br.Discard(len(w))
		}
		if _, err := br.Peek(br.Buffered() + 1); err != nil {
			switch {
			case !request:
				return nil, 0, malformedf("truncated head: %v", err)
			case len(b) == 0:
				return nil, 0, err // nothing received
			case err == io.EOF:
				err = io.ErrUnexpectedEOF
			}
			return nil, 0, &TruncatedError{Err: err}
		}
	}
}

// cutLine splits b after its first '\n' and returns the line before it,
// CR/LF-trimmed, and the rest.
//
//lard:noalloc
func cutLine(b []byte) (line, rest []byte) {
	n := bytes.IndexByte(b, '\n') + 1
	if n == 0 {
		n = len(b)
	}
	return trimCRLF(b[:n]), b[n:]
}

// trimCRLF strips trailing CR/LF bytes.
func trimCRLF(b []byte) []byte { return bytes.TrimRight(b, "\r\n") }

// trimOWS trims optional whitespace (SP / HTAB) from both ends.
func trimOWS(b []byte) []byte { return bytes.Trim(b, " \t") }

// equalFold reports whether b is the lower-case ASCII string lower under
// ASCII case folding. ASCII only, like net/http: a Kelvin sign is not a
// 'k', so no peer that folds by the RFC can read a field name or token
// this parser read differently.
func equalFold(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// nextToken cuts the first non-empty element, OWS-trimmed, off a
// comma-separated header value ("a,, b" yields "a" then "b"); tok is
// empty once the list is exhausted.
func nextToken(list []byte) (tok, rest []byte) {
	for len(list) > 0 && len(tok) == 0 {
		i := bytes.IndexByte(list, ',')
		if i < 0 {
			i = len(list)
		}
		tok, list = trimOWS(list[:i]), list[min(i+1, len(list)):]
	}
	return tok, list
}

// hasToken reports whether the comma-list value contains the (lower-case)
// token.
func hasToken(value []byte, token string) bool {
	for tok, rest := nextToken(value); len(tok) > 0; tok, rest = nextToken(rest) {
		if equalFold(tok, token) {
			return true
		}
	}
	return false
}

// headFields is what a head's header fields say about the message's
// framing and the connection's fate; requests and responses read the same
// fields and differ only in what they make of them.
type headFields struct {
	length    int64 // Content-Length, when hasLength
	hasLength bool
	chunked   bool // a Transfer-Encoding whose final coding is chunked
	otherTE   bool // a Transfer-Encoding this relay cannot frame

	// Connection: close, Connection: keep-alive, Expect: 100-continue.
	close, keepAlive, expectContinue bool
}

// parseFields parses the header lines of a head (everything after the
// start line, through the blank line). Obsolete line folding is rejected:
// a parser that ignores the continuation while forwarding it verbatim lets
// a header smuggle past inspection (RFC 7230 §3.2.4). So is whitespace in
// a field name ("Name : v"), which the same section mandates treating as
// an error, because a relay that ignores such a header while forwarding it
// lets a lenient peer honor a field this parser never saw — the
// message-boundary desync behind request smuggling.
//
//lard:noalloc
func parseFields(lines []byte) (f headFields, err error) {
	for len(lines) > 0 {
		var line []byte
		line, lines = cutLine(lines)
		if len(line) == 0 {
			break
		}
		if line[0] == ' ' || line[0] == '\t' {
			return f, malformed("obsolete line folding", line)
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 || bytes.ContainsAny(line[:colon], " \t") {
			return f, malformed("malformed header line", line)
		}
		name, value := line[:colon], trimOWS(line[colon+1:])
		switch {
		case equalFold(name, "content-length"):
			if f.length, err = parseContentLength(value, f.length, f.hasLength); err != nil {
				return f, err
			}
			f.hasLength = true
		case equalFold(name, "transfer-encoding"):
			var last []byte
			for tok, rest := nextToken(value); len(tok) > 0; tok, rest = nextToken(rest) {
				last = tok
			}
			if equalFold(last, "chunked") {
				f.chunked = true
			} else {
				// A coding that cannot be framed, or chunked applied
				// non-finally: the body boundary is unknowable.
				f.otherTE = true
			}
		case equalFold(name, "connection"):
			f.close = f.close || hasToken(value, "close")
			f.keepAlive = f.keepAlive || hasToken(value, "keep-alive")
		case equalFold(name, "expect"):
			f.expectContinue = f.expectContinue || hasToken(value, "100-continue")
		}
	}
	return f, nil
}

// persistent is the connection's fate after the message: the version's
// default (HTTP/1.1 persistent, HTTP/1.0 close) overridden by Connection
// tokens, "close" winning if a confused peer sends both. A version below
// 1.0 has no connection to keep, whatever it asks (as net/http reads it).
func (f headFields) persistent(major, minor int) bool {
	return !f.close && major >= 1 && (f.keepAlive || major > 1 || minor >= 1)
}

// parseContentLength parses one strict Content-Length value: ASCII digits
// only, so "+5", "-1", "0x10", and "5 GET /" are all rejected rather than
// truncated or sign-extended. The header value may be a comma-separated
// list of identical copies (the shape proxies produce when folding
// duplicate headers); differing members — among themselves or from an
// earlier header's prev, when seen — are a smuggling shape and are
// rejected.
//
//lard:noalloc
func parseContentLength(value []byte, prev int64, seen bool) (int64, error) {
	tok, rest := nextToken(value)
	if len(tok) == 0 {
		return 0, malformed("empty Content-Length", value)
	}
	for ; len(tok) > 0; tok, rest = nextToken(rest) {
		var v int64
		for _, c := range tok {
			d := int64(c - '0')
			if c < '0' || c > '9' || v > (math.MaxInt64-d)/10 {
				return 0, malformed("invalid Content-Length", value)
			}
			v = v*10 + d
		}
		if seen && v != prev {
			return 0, malformed("conflicting Content-Length values", value)
		}
		prev, seen = v, true
	}
	return prev, nil
}

// parseProto parses "HTTP/major.minor". The two versions every peer
// speaks are interned; anything else costs a string.
//
//lard:noalloc
func parseProto(b []byte) (proto string, major, minor int, ok bool) {
	switch string(b) {
	case "HTTP/1.1":
		return "HTTP/1.1", 1, 1, true
	case "HTTP/1.0":
		return "HTTP/1.0", 1, 0, true
	}
	return parseOddProto(b)
}

func parseOddProto(b []byte) (proto string, major, minor int, ok bool) {
	proto = string(b)
	rest, ok := strings.CutPrefix(proto, "HTTP/")
	maj, mnr, ok2 := strings.Cut(rest, ".")
	major, err1 := strconv.Atoi(maj)
	minor, err2 := strconv.Atoi(mnr)
	return proto, major, minor, ok && ok2 && err1 == nil && err2 == nil && major >= 0 && minor >= 0
}
