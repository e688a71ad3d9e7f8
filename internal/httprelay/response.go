package httprelay

import (
	"bufio"
	"bytes"
	"io"
)

// ResponseHead is one parsed HTTP response head.
type ResponseHead struct {
	// Raw holds the head exactly as received, terminated by the blank
	// line. Unless the head outgrew it, Raw is a view of the reader's
	// window, valid until the next read from that reader: the relay
	// writes it on before reading further and never keeps it.
	Raw []byte

	Proto string
	Major int
	Minor int

	// Status is the three-digit status code.
	Status int

	// ContentLength is the declared body length, or -1 when absent (body
	// delimited by connection close). Meaningless when Chunked is set.
	ContentLength int64

	// Chunked reports a "Transfer-Encoding: chunked" body.
	Chunked bool

	// KeepAlive reports whether the sender will keep its side of the
	// connection open after this response: HTTP/1.1 defaults to yes,
	// HTTP/1.0 to no ("Connection: keep-alive" required), and a
	// "Connection: close" token always wins. This is the satellite-fix
	// semantics: an HTTP/1.0 back-end response without an explicit
	// keep-alive must NOT be treated as reusable.
	KeepAlive bool
}

// BodilessStatus reports whether the status code forbids a message body
// regardless of framing headers: 1xx, 204, 304 (RFC 7230 §3.3.3).
func (h ResponseHead) BodilessStatus() bool {
	return (h.Status >= 100 && h.Status < 200) || h.Status == 204 || h.Status == 304
}

// Informational reports a 1xx interim response, which is always followed
// by another response on the same connection.
func (h ResponseHead) Informational() bool { return h.Status >= 100 && h.Status < 200 }

// ReadResponseHead consumes exactly one response head (through the blank
// line) from br. Framing violations — and every transport failure, even
// before the first byte: a back end owes a response — return a
// MalformedError; the relay should treat the back-end connection as
// poisoned (502 + close), never guess at the body boundary.
//
// Raw is a view of br's window, like the result of br.ReadSlice: valid
// until the next read from br.
func ReadResponseHead(br *bufio.Reader, maxBytes int) (ResponseHead, error) {
	h, unread, err := peekResponseHead(br, maxBytes)
	br.Discard(unread)
	return h, err
}

// peekResponseHead is ReadResponseHead that leaves a head lying in br's
// window unconsumed, so the relay can write it on together with the body
// bytes that share the window: unread is len(h.Raw) for such a head, 0
// for one that outgrew the window and was consumed (see readHead).
func peekResponseHead(br *bufio.Reader, maxBytes int) (h ResponseHead, unread int, err error) {
	raw, unread, err := readHead(br, maxBytes, false)
	if err == nil {
		h, err = parseResponseHead(raw)
	}
	if err != nil {
		return h, 0, err
	}
	h.Raw = raw
	return h, unread, nil
}

// parseResponseHead parses the bytes of one response head, through its
// blank line (headScan finds it); Raw is left to the caller.
//
//lard:noalloc
func parseResponseHead(raw []byte) (h ResponseHead, err error) {
	h.ContentLength = -1
	line, rest := cutLine(raw)
	// "HTTP/1.1 200 OK": the protocol, a three-digit status, and a reason
	// phrase that is free text and may be empty.
	sp := bytes.IndexByte(line, ' ')
	if sp <= 0 || len(line) < sp+4 || len(line) > sp+4 && line[sp+4] != ' ' {
		return h, malformed("malformed status line", line)
	}
	for _, c := range line[sp+1 : sp+4] {
		if c < '0' || c > '9' {
			return h, malformed("malformed status line", line)
		}
		h.Status = h.Status*10 + int(c-'0')
	}
	var ok bool
	if h.Proto, h.Major, h.Minor, ok = parseProto(line[:sp]); !ok || h.Status < 100 {
		return h, malformed("malformed status line", line)
	}
	f, err := parseFields(rest)
	if err != nil {
		return h, err
	}
	h.KeepAlive = f.persistent(h.Major, h.Minor)
	switch {
	case f.otherTE, f.chunked && !(h.Major > 1 || h.Major == 1 && h.Minor >= 1):
		// A coding this relay cannot frame. Unlike a request (rejected
		// with 400), a response body has a fallback boundary — the
		// connection close (RFC 7230 §3.3.3) — so degrade to
		// copy-until-close, chunk framing and length included, rather
		// than dropping the response on the floor. Or a coding in a
		// message older than 1.1, which has none: its framing is faulty
		// and the connection closes behind it (RFC 9112 §6.1). net/http
		// ignores the field there and a 1.1 reader unchunks, and the
		// close is the one end of the body neither can read past.
		h.KeepAlive = false
	case f.chunked:
		// In a response Transfer-Encoding wins over Content-Length
		// (RFC 7230 §3.3.3); the length header is ignored, not fatal,
		// because the chunk framing still tells us where the body ends.
		h.Chunked = true
	case f.hasLength:
		h.ContentLength = f.length
	}
	return h, nil
}

// CopyResponseBody forwards the body of a response whose head has already
// been read and written on, framed per the head and the request method:
// HEAD responses and bodiless statuses copy nothing, chunked bodies relay
// chunk by chunk, length-delimited bodies copy exactly ContentLength
// bytes, and unframed bodies copy until the back end closes. It returns
// the bytes forwarded and whether the source connection remains usable
// for another message.
func CopyResponseBody(dst io.Writer, br *bufio.Reader, h ResponseHead, reqMethod string) (int64, bool, error) {
	return relayBody(dst, br, nil, h, reqMethod, 0)
}

// relayBody forwards what is left of a response once its head is parsed:
// pending bytes of head still unconsumed at the front of br's window, and
// then the body. raw is the connection br wraps (nil if unknown). br is
// left positioned exactly after the body.
func relayBody(dst io.Writer, br *bufio.Reader, raw io.Reader, h ResponseHead, reqMethod string, pending int) (int64, bool, error) {
	bodiless := reqMethod == "HEAD" || h.BodilessStatus()
	n := int64(pending)
	switch {
	case bodiless, h.Chunked:
	case h.ContentLength >= 0:
		// The head and the body bytes that share its window go out in
		// one write.
		n += h.ContentLength
	default:
		// No framing: the body ends when the sender closes (HTTP/1.0
		// style); the connection is spent by construction. The head
		// leaves with whatever body is already buffered behind it.
		n, err := copyBody(dst, br, raw)
		return n, false, err
	}
	n, err := relayLength(dst, br, raw, n)
	if err == nil && h.Chunked && !bodiless {
		var nb int64
		nb, err = relayChunked(dst, br)
		n += nb
	}
	return n, err == nil && h.KeepAlive, err
}

// copyBody copies until the source closes: everything br has buffered
// first (one write), then the remainder — from raw when supplied
// (splice-eligible), else through br.
func copyBody(dst io.Writer, br *bufio.Reader, raw io.Reader) (int64, error) {
	written, err := drainBuffered(dst, br)
	if err != nil {
		return written, err
	}
	if raw == nil {
		raw = br
	}
	m, err := copyBuffered(dst, raw)
	return written + m, err
}

// RelayResponse relays one complete response — interim 1xx heads
// included — from the back end to the client: each head verbatim, the
// final body reframed per its declared encoding. on100, when non-nil, is
// invoked (once) after a 100 Continue head has been relayed, which is
// where the caller forwards the withheld request body of an
// Expect: 100-continue request. reqMethod gives HEAD its bodiless
// semantics.
//
// It returns the bytes written to the client and whether the *back-end*
// connection remains usable for another request. A 101 Switching
// Protocols response means the stream is no longer HTTP: the relay
// degrades to forwarding backend→client until the back end closes and
// reports the connection spent. The client→backend direction is NOT
// pumped — upgraded protocols where the client speaks first will stall
// until the back end gives up, so callers that need real upgrades must
// splice the raw connections themselves.
func RelayResponse(client io.Writer, backendBR *bufio.Reader, reqMethod string, maxHeadBytes int, on100 func() error) (int64, bool, error) {
	return RelayResponseFrom(client, backendBR, nil, reqMethod, maxHeadBytes, on100)
}

// RelayResponseFrom is RelayResponse told what lies beneath backendBR:
// backendRaw is the back-end connection the reader wraps (nil if
// unknown), which lets a long body's tail engage the kernel splice path.
//
// The unit of work is backendBR's window (copy.go): a length-delimited
// response that fits it — head and body — is awaited whole and reaches the
// client in exactly one Write, or, if the back end dies first, not at all,
// so the caller can still answer 502 or retry elsewhere.
func RelayResponseFrom(client io.Writer, backendBR *bufio.Reader, backendRaw io.Reader, reqMethod string, maxHeadBytes int, on100 func() error) (int64, bool, error) {
	var written int64
	for {
		h, pending, err := peekResponseHead(backendBR, maxHeadBytes)
		if err != nil {
			return written, false, err
		}
		if pending == 0 {
			// A head that outgrew the window travels alone.
			n, err := client.Write(h.Raw)
			written += int64(n)
			if err != nil {
				return written, false, err
			}
		}
		if h.Status == 101 {
			// No longer HTTP: forward, head first, until the back end closes.
			n, err := copyBody(client, backendBR, backendRaw)
			return written + n, false, err
		}
		if h.Informational() {
			n, err := relayLength(client, backendBR, backendRaw, int64(pending))
			written += n
			if err != nil {
				return written, false, err
			}
			if h.Status == 100 && on100 != nil {
				if err := on100(); err != nil {
					return written, false, err
				}
				on100 = nil
			}
			continue
		}
		n, reusable, err := relayBody(client, backendBR, backendRaw, h, reqMethod, pending)
		return written + n, reusable, err
	}
}
