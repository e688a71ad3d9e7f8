package httprelay

import (
	"bufio"
	"bytes"
	"io"
)

// RequestHead is one parsed HTTP request head: the exact bytes received
// (forwarded verbatim on handoff) plus the fields the dispatcher and the
// relay need.
type RequestHead struct {
	// Raw holds the head exactly as received, terminated by the blank
	// line. It is only populated for heads that parse cleanly — a head
	// that fails validation must not be forwarded. It is a copy, never a
	// view of the reader's window; see ReadRequestHeadInto for whose.
	Raw []byte

	Method string
	Target string
	Proto  string
	Major  int
	Minor  int

	// ContentLength is the declared body length; 0 when the request has
	// no Content-Length header. Meaningless when Chunked is set.
	ContentLength int64

	// Chunked reports a "Transfer-Encoding: chunked" body.
	Chunked bool

	// KeepAlive is the connection's fate after this request: the
	// version-appropriate default (HTTP/1.1 persistent, HTTP/1.0 close)
	// overridden by Connection header tokens.
	KeepAlive bool

	// Close reports a "close" option in a Connection field: the client's
	// word to this hop, which BlankConnectionClose keeps from the next.
	Close bool

	// ExpectContinue reports an "Expect: 100-continue" request: the
	// client withholds the body until a 100 Continue arrives, so the
	// relay must interleave the back end's response with the body copy.
	ExpectContinue bool
}

// HasBody reports whether the request carries a message body.
func (h RequestHead) HasBody() bool { return h.Chunked || h.ContentLength > 0 }

// KeepsOpen reports whether the connection stays open behind this request
// with nothing of the request left to read behind its head: HTTP/1.1, no
// close, no body and no Expect. It is the one rule for both ends of a
// kept connection: the back end's loop reads on behind such a request and
// stops behind any other, and the front end hands a connection over for
// good only when its first request is one.
func (h *RequestHead) KeepsOpen() bool {
	return h.Proto == "HTTP/1.1" && h.KeepAlive && !h.HasBody() && !h.ExpectContinue
}

// Size is the body size the dispatcher should account for (0 when
// unknown, e.g. chunked).
func (h RequestHead) Size() int64 {
	if h.Chunked {
		return 0
	}
	return h.ContentLength
}

// ReadRequestHead consumes exactly one request head (through the blank
// line) from br, leaving any pipelined follow-on bytes buffered. Framing
// violations — trailing garbage or signs in Content-Length, conflicting
// duplicate Content-Length headers, a body declared both chunked and
// length-delimited, unknown transfer codings, obsolete line folding —
// return a MalformedError; the caller should answer 400 and close rather
// than forward the head.
//
// An I/O error before any byte of the head — io.EOF on a clean close
// between pipelined requests, a read-deadline expiry on an idle
// keep-alive connection — is returned untouched, so callers can tell the
// connection's normal end of life from a truncated or malformed message.
// One part way through the head (a close, a reset, a timeout) is a
// TruncatedError: a fault, but of the transport, answered with nothing.
// Only a MalformedError deserves a 400.
//
// Raw is a copy of the head: it outlives every later read from br.
func ReadRequestHead(br *bufio.Reader, maxBytes int) (RequestHead, error) {
	return ReadRequestHeadInto(br, maxBytes, nil)
}

// ReadRequestHeadInto is ReadRequestHead with Raw copied out of br's
// window into buf's backing array (grown if too small) instead of a fresh
// allocation. Raw must survive until the request completes — the body is
// read through the same window, and a stale-connection retry replays the
// head — so it cannot stay in the window the way a response head does;
// a relay loop passes the previous request's Raw[:0] and so keeps one
// scratch per connection.
func ReadRequestHeadInto(br *bufio.Reader, maxBytes int, buf []byte) (RequestHead, error) {
	raw, unread, err := readHead(br, maxBytes, true)
	if err != nil {
		return RequestHead{}, err
	}
	h, err := parseRequestHead(raw)
	if err != nil {
		return h, err
	}
	if unread > 0 {
		raw = append(buf[:0], raw...)
		br.Discard(unread)
	}
	h.Raw = raw
	return h, nil
}

// commonMethods are interned: a request with one of them costs no string.
var commonMethods = [...]string{"GET", "HEAD", "POST", "PUT", "DELETE", "OPTIONS", "PATCH"}

// parseRequestHead parses the bytes of one request head; Raw is left to
// the caller.
func parseRequestHead(raw []byte) (h RequestHead, err error) {
	line, rest := cutLine(raw)
	for len(line) == 0 {
		line, rest = cutLine(rest) // tolerate blank lines before the request line
	}
	method, target, proto, ok := parseRequestLine(line)
	if !ok {
		return h, malformedf("malformed request line %q", line)
	}
	if h.Proto, h.Major, h.Minor, ok = parseProto(proto); !ok {
		return h, malformedf("malformed HTTP version %q", proto)
	}
	for _, m := range commonMethods {
		if string(method) == m {
			h.Method = m
		}
	}
	if h.Method == "" {
		h.Method = string(method)
	}
	h.Target = string(target)
	f, err := parseFields(rest)
	switch {
	case err != nil:
		return h, err
	case f.otherTE:
		// Unlike a response, a request has no close-delimited fallback.
		return h, malformedf("unsupported Transfer-Encoding")
	case f.chunked && f.hasLength:
		// The classic request-smuggling shape: two peers disagreeing on
		// which header frames the body (RFC 7230 §3.3.3).
		return h, malformedf("both Content-Length and Transfer-Encoding present")
	}
	h.ContentLength, h.Chunked = f.length, f.chunked
	h.KeepAlive, h.ExpectContinue = f.persistent(h.Major, h.Minor), f.expectContinue
	h.Close = f.close
	return h, nil
}

// BlankConnectionClose overwrites with spaces every "close" option of
// every Connection field in raw, a request head that parsed cleanly, and
// touches no other byte: the head keeps its length and its other options
// ("Connection: close, TE" leaves TE). Connection is hop-by-hop (RFC 7230
// §6.1): a relay that honours the client's close itself must not pass it
// on, or the next hop closes a connection the relay wants to keep.
//
//lard:noalloc
func BlankConnectionClose(raw []byte) {
	for lines, started := raw, false; len(lines) > 0; {
		var line []byte
		line, lines = cutLine(lines)
		if !started {
			started = len(line) > 0 // blank lines, then the start line
			continue
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 || !equalFold(line[:colon], "connection") {
			continue
		}
		for tok, rest := nextToken(line[colon+1:]); len(tok) > 0; tok, rest = nextToken(rest) {
			if equalFold(tok, "close") {
				copy(tok, "     ")
			}
		}
	}
}

// parseRequestLine splits "METHOD target HTTP/x.y" on the first and last
// space, so targets containing (technically illegal) spaces still parse.
func parseRequestLine(line []byte) (method, target, proto []byte, ok bool) {
	sp1, sp2 := bytes.IndexByte(line, ' '), bytes.LastIndexByte(line, ' ')
	if sp1 <= 0 || sp2 <= sp1+1 {
		return nil, nil, nil, false
	}
	return line[:sp1], line[sp1+1 : sp2], line[sp2+1:], true
}

// RelayRequestBody forwards the request's body from the (buffered) client
// side to the back end, framed per the head: chunked bodies are relayed
// chunk by chunk through their trailers, length-delimited bodies copy
// exactly ContentLength bytes, and bodiless requests copy nothing. It
// returns the bytes forwarded.
func RelayRequestBody(dst io.Writer, br *bufio.Reader, h RequestHead) (int64, error) {
	if h.Chunked {
		return relayChunked(dst, br)
	}
	if h.ContentLength > 0 {
		return copyNBuffered(dst, br, h.ContentLength)
	}
	return 0, nil
}
