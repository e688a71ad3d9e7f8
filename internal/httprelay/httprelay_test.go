package httprelay

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

func reqReader(s string) *bufio.Reader { return bufio.NewReader(strings.NewReader(s)) }

func TestReadRequestHeadTable(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want RequestHead // Raw ignored; zero want + wantErr checks rejection
		err  bool
	}{
		{
			name: "http11 defaults keep-alive",
			in:   "GET /x HTTP/1.1\r\nHost: h\r\n\r\n",
			want: RequestHead{Method: "GET", Target: "/x", Proto: "HTTP/1.1", Major: 1, Minor: 1, KeepAlive: true},
		},
		{
			name: "http10 defaults close",
			in:   "GET /x HTTP/1.0\r\nHost: h\r\n\r\n",
			want: RequestHead{Method: "GET", Target: "/x", Proto: "HTTP/1.0", Major: 1, Minor: 0},
		},
		{
			name: "http10 keep-alive token",
			in:   "GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
			want: RequestHead{Method: "GET", Target: "/x", Proto: "HTTP/1.0", Major: 1, Minor: 0, KeepAlive: true},
		},
		{
			name: "connection token list",
			in:   "GET /x HTTP/1.1\r\nConnection: TE, close\r\n\r\n",
			want: RequestHead{Method: "GET", Target: "/x", Proto: "HTTP/1.1", Major: 1, Minor: 1, Close: true},
		},
		{
			name: "close beats keep-alive",
			in:   "GET /x HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n",
			want: RequestHead{Method: "GET", Target: "/x", Proto: "HTTP/1.1", Major: 1, Minor: 1, Close: true},
		},
		{
			name: "content length",
			in:   "POST /x HTTP/1.1\r\nContent-Length: 12\r\n\r\n",
			want: RequestHead{Method: "POST", Target: "/x", Proto: "HTTP/1.1", Major: 1, Minor: 1, ContentLength: 12, KeepAlive: true},
		},
		{
			name: "duplicate equal content lengths fold",
			in:   "POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n",
			want: RequestHead{Method: "POST", Target: "/x", Proto: "HTTP/1.1", Major: 1, Minor: 1, ContentLength: 5, KeepAlive: true},
		},
		{
			name: "comma list equal content lengths fold",
			in:   "POST /x HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\n",
			want: RequestHead{Method: "POST", Target: "/x", Proto: "HTTP/1.1", Major: 1, Minor: 1, ContentLength: 5, KeepAlive: true},
		},
		{
			name: "chunked request",
			in:   "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
			want: RequestHead{Method: "POST", Target: "/x", Proto: "HTTP/1.1", Major: 1, Minor: 1, Chunked: true, KeepAlive: true},
		},
		{
			name: "expect 100-continue",
			in:   "POST /x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 3\r\n\r\n",
			want: RequestHead{Method: "POST", Target: "/x", Proto: "HTTP/1.1", Major: 1, Minor: 1, ContentLength: 3, KeepAlive: true, ExpectContinue: true},
		},
		// The smuggling shapes: all must be rejected, never forwarded.
		{name: "negative content length", in: "POST /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n", err: true},
		{name: "plus-signed content length", in: "POST /x HTTP/1.1\r\nContent-Length: +5\r\n\r\n", err: true},
		{name: "trailing garbage content length", in: "POST /x HTTP/1.1\r\nContent-Length: 5 GET /evil HTTP/1.1\r\n\r\n", err: true},
		{name: "hex content length", in: "POST /x HTTP/1.1\r\nContent-Length: 0x10\r\n\r\n", err: true},
		{name: "conflicting duplicate content lengths", in: "POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n", err: true},
		{name: "conflicting comma list", in: "POST /x HTTP/1.1\r\nContent-Length: 5, 6\r\n\r\n", err: true},
		{name: "cl plus te", in: "POST /x HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n", err: true},
		{name: "unknown transfer coding", in: "POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n", err: true},
		{name: "chunked not final", in: "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked, gzip\r\n\r\n", err: true},
		{name: "obsolete line folding", in: "GET /x HTTP/1.1\r\nX-A: b\r\n    folded\r\n\r\n", err: true},
		{name: "header without colon", in: "GET /x HTTP/1.1\r\nNONSENSE\r\n\r\n", err: true},
		{name: "space before colon hides header", in: "POST /x HTTP/1.1\r\nContent-Length : 5\r\n\r\nAAAAA", err: true},
		{name: "tab before colon hides header", in: "POST /x HTTP/1.1\r\nContent-Length\t: 5\r\n\r\nAAAAA", err: true},
		{name: "malformed request line", in: "NONSENSE\r\n\r\n", err: true},
		{name: "malformed version", in: "GET /x HTTP/one.one\r\n\r\n", err: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := ReadRequestHead(reqReader(tc.in), 1<<16)
			if tc.err {
				if err == nil {
					t.Fatalf("accepted %q: %+v", tc.in, h)
				}
				if _, ok := err.(*MalformedError); !ok {
					t.Fatalf("error %v is not a MalformedError", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("rejected %q: %v", tc.in, err)
			}
			if string(h.Raw) != tc.in {
				t.Fatalf("raw = %q, want %q", h.Raw, tc.in)
			}
			h.Raw = nil
			if !reflect.DeepEqual(h, tc.want) {
				t.Fatalf("head = %+v, want %+v", h, tc.want)
			}
		})
	}
}

func TestReadRequestHeadPipelining(t *testing.T) {
	two := "GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n"
	br := reqReader(two)
	h1, err := ReadRequestHead(br, 1<<16)
	if err != nil || h1.Target != "/a" {
		t.Fatalf("first head: %+v, %v", h1, err)
	}
	h2, err := ReadRequestHead(br, 1<<16)
	if err != nil || h2.Target != "/b" {
		t.Fatalf("second head: %+v, %v", h2, err)
	}
	if _, err := ReadRequestHead(br, 1<<16); err != io.EOF {
		t.Fatalf("end of pipeline: %v, want io.EOF", err)
	}
}

func TestReadRequestHeadLimits(t *testing.T) {
	big := "GET /x HTTP/1.1\r\n" + strings.Repeat("A: b\r\n", 1000) + "\r\n"
	if _, err := ReadRequestHead(reqReader(big), 256); err == nil {
		t.Fatal("oversized head accepted")
	}
	// A single unterminated line must not be buffered without bound.
	if _, err := ReadRequestHead(reqReader("GET /x HTTP/1.1\r\n"+strings.Repeat("a", 1<<12)), 256); err == nil {
		t.Fatal("unterminated oversized line accepted")
	}
	// Truncated mid-head is not a clean EOF, nor a malformed head: an
	// unexpected EOF.
	var truncated *TruncatedError
	if _, err := ReadRequestHead(reqReader("GET /x HTTP/1.1\r\nHost:"), 1<<16); !errors.As(err, &truncated) || truncated.Err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated head: %v", err)
	}
}

func TestReadResponseHeadTable(t *testing.T) {
	cases := []struct {
		name      string
		in        string
		status    int
		cl        int64
		chunked   bool
		keepAlive bool
		err       bool
	}{
		{name: "http11 with length", in: "HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\n", status: 200, cl: 4, keepAlive: true},
		{name: "http11 no length", in: "HTTP/1.1 200 OK\r\n\r\n", status: 200, cl: -1, keepAlive: true},
		{name: "http10 default close", in: "HTTP/1.0 200 OK\r\nContent-Length: 4\r\n\r\n", status: 200, cl: 4, keepAlive: false},
		{name: "http10 keep-alive token", in: "HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 4\r\n\r\n", status: 200, cl: 4, keepAlive: true},
		{name: "http11 connection close", in: "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 4\r\n\r\n", status: 200, cl: 4, keepAlive: false},
		{name: "chunked", in: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n", status: 200, cl: -1, chunked: true, keepAlive: true},
		{name: "chunked wins over length", in: "HTTP/1.1 200 OK\r\nContent-Length: 10\r\nTransfer-Encoding: chunked\r\n\r\n", status: 200, cl: -1, chunked: true, keepAlive: true},
		{name: "no reason phrase", in: "HTTP/1.1 204\r\n\r\n", status: 204, cl: -1, keepAlive: true},
		{name: "interim", in: "HTTP/1.1 100 Continue\r\n\r\n", status: 100, cl: -1, keepAlive: true},
		{name: "unknown coding falls back to close-delimited", in: "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n", status: 200, cl: -1, chunked: false, keepAlive: false},
		{name: "chunked not final falls back to close-delimited", in: "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked, gzip\r\n\r\n", status: 200, cl: -1, chunked: false, keepAlive: false},
		{name: "chunked in HTTP/1.0 falls back to close-delimited", in: "HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n", status: 200, cl: -1, chunked: false, keepAlive: false},
		{name: "bad status", in: "HTTP/1.1 20 OK\r\n\r\n", err: true},
		{name: "no status", in: "HTTP/1.1\r\n\r\n", err: true},
		{name: "conflicting lengths", in: "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n", err: true},
		{name: "space before colon", in: "HTTP/1.1 200 OK\r\nContent-Length : 5\r\n\r\n", err: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h, err := ReadResponseHead(reqReader(tc.in), 1<<16)
			if tc.err {
				if err == nil {
					t.Fatalf("accepted %q: %+v", tc.in, h)
				}
				return
			}
			if err != nil {
				t.Fatalf("rejected %q: %v", tc.in, err)
			}
			if h.Status != tc.status || h.ContentLength != tc.cl || h.Chunked != tc.chunked || h.KeepAlive != tc.keepAlive {
				t.Fatalf("head = %+v", h)
			}
			if string(h.Raw) != tc.in {
				t.Fatalf("raw = %q", h.Raw)
			}
		})
	}
}

func TestBodilessStatus(t *testing.T) {
	for _, st := range []int{100, 101, 199, 204, 304} {
		if !(ResponseHead{Status: st}).BodilessStatus() {
			t.Fatalf("status %d should be bodiless", st)
		}
	}
	for _, st := range []int{200, 203, 205, 206, 301, 303, 400, 500} {
		if (ResponseHead{Status: st}).BodilessStatus() {
			t.Fatalf("status %d should have a body", st)
		}
	}
}

func TestRelayResponseTable(t *testing.T) {
	const chunkedBody = "4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\n"
	cases := []struct {
		name     string
		in       string // backend bytes
		method   string
		out      string // bytes the client must receive
		reusable bool
	}{
		{
			name:     "content-length",
			in:       "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello" + "JUNK-NEXT-RESPONSE",
			method:   "GET",
			out:      "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello",
			reusable: true,
		},
		{
			name:     "chunked relays without downgrade",
			in:       "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunkedBody + "NEXT",
			method:   "GET",
			out:      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" + chunkedBody,
			reusable: true,
		},
		{
			name:     "chunked with extensions and trailers",
			in:       "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5;ext=1\r\nhello\r\n0\r\nX-Trailer: v\r\n\r\nNEXT",
			method:   "GET",
			out:      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5;ext=1\r\nhello\r\n0\r\nX-Trailer: v\r\n\r\n",
			reusable: true,
		},
		{
			name:     "204 no body",
			in:       "HTTP/1.1 204 No Content\r\n\r\nNEXT",
			method:   "GET",
			out:      "HTTP/1.1 204 No Content\r\n\r\n",
			reusable: true,
		},
		{
			name:     "304 ignores content-length",
			in:       "HTTP/1.1 304 Not Modified\r\nContent-Length: 1234\r\n\r\nNEXT",
			method:   "GET",
			out:      "HTTP/1.1 304 Not Modified\r\nContent-Length: 1234\r\n\r\n",
			reusable: true,
		},
		{
			name:     "HEAD ignores content-length",
			in:       "HTTP/1.1 200 OK\r\nContent-Length: 1234\r\n\r\nNEXT",
			method:   "HEAD",
			out:      "HTTP/1.1 200 OK\r\nContent-Length: 1234\r\n\r\n",
			reusable: true,
		},
		{
			name:     "interim 1xx then final",
			in:       "HTTP/1.1 102 Processing\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokNEXT",
			method:   "GET",
			out:      "HTTP/1.1 102 Processing\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
			reusable: true,
		},
		{
			name:     "http10 without keep-alive is not reusable",
			in:       "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
			method:   "GET",
			out:      "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
			reusable: false,
		},
		{
			name:     "unknown length copies until close",
			in:       "HTTP/1.1 200 OK\r\n\r\neverything until EOF",
			method:   "GET",
			out:      "HTTP/1.1 200 OK\r\n\r\neverything until EOF",
			reusable: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var client bytes.Buffer
			n, reusable, err := RelayResponse(&client, reqReader(tc.in), tc.method, 1<<16, nil)
			if err != nil {
				t.Fatal(err)
			}
			if client.String() != tc.out {
				t.Fatalf("client received %q, want %q", client.String(), tc.out)
			}
			if n != int64(len(tc.out)) {
				t.Fatalf("written = %d, want %d", n, len(tc.out))
			}
			if reusable != tc.reusable {
				t.Fatalf("reusable = %v, want %v", reusable, tc.reusable)
			}
		})
	}
}

func TestRelayResponse100Continue(t *testing.T) {
	backend := "HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
	var client bytes.Buffer
	fired := 0
	_, reusable, err := RelayResponse(&client, reqReader(backend), "POST", 1<<16, func() error {
		fired++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("on100 fired %d times", fired)
	}
	if !reusable {
		t.Fatal("connection not reusable after 100 + final")
	}
	if got := client.String(); got != backend {
		t.Fatalf("client received %q", got)
	}
	// The 100 head must have been relayed before on100 ran — verified by
	// prefix: on100 appends nothing here, but ordering is observable via
	// a writer-side check.
	var ordered bytes.Buffer
	RelayResponse(&ordered, reqReader(backend), "POST", 1<<16, func() error {
		if !strings.HasPrefix(ordered.String(), "HTTP/1.1 100 Continue\r\n\r\n") {
			t.Fatalf("on100 ran before the 100 head was relayed: %q", ordered.String())
		}
		return nil
	})
}

func TestRelayRequestBody(t *testing.T) {
	// Length-delimited.
	var dst bytes.Buffer
	h := RequestHead{ContentLength: 5}
	if n, err := RelayRequestBody(&dst, reqReader("helloNEXT"), h); err != nil || n != 5 || dst.String() != "hello" {
		t.Fatalf("identity body: n=%d err=%v got=%q", n, err, dst.String())
	}
	// Chunked.
	dst.Reset()
	ch := "3\r\nabc\r\n0\r\n\r\n"
	if n, err := RelayRequestBody(&dst, reqReader(ch+"NEXT"), RequestHead{Chunked: true}); err != nil || dst.String() != ch {
		t.Fatalf("chunked body: n=%d err=%v got=%q", n, err, dst.String())
	}
	// Bodiless.
	dst.Reset()
	if n, err := RelayRequestBody(&dst, reqReader("NEXT"), RequestHead{}); err != nil || n != 0 || dst.Len() != 0 {
		t.Fatalf("bodiless: n=%d err=%v got=%q", n, err, dst.String())
	}
}

func TestRelayChunkedMalformed(t *testing.T) {
	for _, in := range []string{
		"zz\r\nabc\r\n0\r\n\r\n",    // non-hex size
		"\r\nabc\r\n0\r\n\r\n",      // empty size
		"3\r\nabcXX0\r\n\r\n",       // missing chunk terminator CRLF
		"ffffffffffffffff\r\nx\r\n", // size overflow
	} {
		var dst bytes.Buffer
		if _, err := relayChunked(&dst, reqReader(in)); err == nil {
			t.Fatalf("accepted malformed chunked body %q", in)
		}
	}
	// Truncated mid-chunk is an error, not silent success.
	var dst bytes.Buffer
	if _, err := relayChunked(&dst, reqReader("10\r\nshort")); err == nil {
		t.Fatal("accepted truncated chunk")
	}
}

func TestParseRequestLineTable(t *testing.T) {
	cases := []struct {
		in                    string
		method, target, proto string
		ok                    bool
	}{
		{"GET / HTTP/1.1", "GET", "/", "HTTP/1.1", true},
		{"GET /a/b?q=1 HTTP/1.0", "GET", "/a/b?q=1", "HTTP/1.0", true},
		{"POST /form HTTP/1.1", "POST", "/form", "HTTP/1.1", true},
		{"GET /odd path HTTP/1.1", "GET", "/odd path", "HTTP/1.1", true},
		{"GET", "", "", "", false},
		{"GET /x", "", "", "", false},
		{"", "", "", "", false},
	}
	for _, tc := range cases {
		m, tg, p, ok := parseRequestLine([]byte(tc.in))
		if ok != tc.ok || string(m) != tc.method || string(tg) != tc.target || string(p) != tc.proto {
			t.Fatalf("parseRequestLine(%q) = (%q,%q,%q,%v)", tc.in, m, tg, p, ok)
		}
	}
}

func TestRequestHeadHelpers(t *testing.T) {
	if (RequestHead{ContentLength: 5}).Size() != 5 {
		t.Fatal("Size with length")
	}
	if (RequestHead{Chunked: true, ContentLength: 5}).Size() != 0 {
		t.Fatal("Size with chunked")
	}
	if !(RequestHead{Chunked: true}).HasBody() || !(RequestHead{ContentLength: 1}).HasBody() || (RequestHead{}).HasBody() {
		t.Fatal("HasBody")
	}
}

// countingWriter records how many Write calls delivered its bytes.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func lengthResponse(bodyLen int) string {
	return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\nContent-Type: text/plain\r\n\r\n%s", bodyLen, strings.Repeat("b", bodyLen))
}

// TestWindowRelayWrites pins "one window, one write": a length-delimited
// response that fits the reader's window reaches the client in exactly
// one Write however the back end fragments it; a longer one leaves in
// head + first window, then a remainder of up to a window in one Write,
// and only a longer remainder is copied from beneath the reader.
func TestWindowRelayWrites(t *testing.T) {
	headLen := len(lengthResponse(0)) + 4 // the lengths below have five digits
	cases := []struct {
		name    string
		bodyLen int
		writes  int // 0 = not pinned (the tail goes through io.Copy)
	}{
		{"empty body", 0, 1},
		{"8k", 8 << 10, 1},
		{"fills the window exactly", ReaderSize - headLen, 1},
		{"one byte over", ReaderSize - headLen + 1, 2},
		{"24k", 24 << 10, 2},
		{"two windows exactly", 2*ReaderSize - headLen, 2},
		{"64k", 64 << 10, 0},
	}
	deliveries := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"byte-by-byte", iotest.OneByteReader},
	}
	for _, tc := range cases {
		for _, d := range deliveries {
			for _, withRaw := range []bool{false, true} {
				msg := lengthResponse(tc.bodyLen)
				src := d.wrap(strings.NewReader(msg + "NEXT"))
				br := bufio.NewReaderSize(src, ReaderSize)
				var raw io.Reader
				if withRaw {
					raw = src
				}
				var client countingWriter
				n, reusable, err := RelayResponseFrom(&client, br, raw, "GET", 1<<16, nil)
				if err != nil || !reusable || n != int64(len(msg)) {
					t.Fatalf("%s/%s: n=%d reusable=%v err=%v", tc.name, d.name, n, reusable, err)
				}
				if client.String() != msg {
					t.Fatalf("%s/%s: client bytes differ from the response", tc.name, d.name)
				}
				if tc.writes != 0 && client.writes != tc.writes {
					t.Fatalf("%s/%s: %d writes, want %d", tc.name, d.name, client.writes, tc.writes)
				}
				if rest, _ := io.ReadAll(br); string(rest) != "NEXT" {
					t.Fatalf("%s/%s: reader left at %q, want the next message", tc.name, d.name, rest)
				}
			}
		}
	}
}

// TestShortSmallBodyWritesNothing: when the back end dies inside a
// response that fits the window, the client has seen no byte of it, so
// the caller can still answer 502 or retry.
func TestShortSmallBodyWritesNothing(t *testing.T) {
	msg := lengthResponse(8 << 10)
	for _, cut := range []int{len(msg) - 1, len(msg) - 4096, strings.Index(msg, "\r\n\r\n") + 4} {
		var client countingWriter
		br := bufio.NewReaderSize(iotest.OneByteReader(strings.NewReader(msg[:cut])), ReaderSize)
		n, reusable, err := RelayResponse(&client, br, "GET", 1<<16, nil)
		if err == nil || reusable || n != 0 || client.writes != 0 {
			t.Fatalf("cut at %d: n=%d reusable=%v writes=%d err=%v, want nothing written and an error", cut, n, reusable, client.writes, err)
		}
	}
}

// TestCaseFoldingIsASCIIOnly: field names and tokens fold case over ASCII
// alone, as net/http does. Unicode folding (the old strings.ToLower) read
// "chunKed" — with a Kelvin sign — as "chunked", a framing no RFC
// peer would agree with.
func TestCaseFoldingIsASCIIOnly(t *testing.T) {
	if _, err := ReadRequestHead(reqReader("POST /x HTTP/1.1\r\nTransfer-Encoding: chunKed\r\n\r\n"), 1<<16); err == nil {
		t.Fatal("Kelvin-sign chunked accepted as a transfer coding")
	}
	h, err := ReadRequestHead(reqReader("GET /x HTTP/1.0\r\nConnection: Keep-alive\r\n\r\n"), 1<<16)
	if err != nil || h.KeepAlive {
		t.Fatalf("Kelvin-sign keep-alive honored: %+v, %v", h, err)
	}
	r, err := ReadResponseHead(reqReader("HTTP/1.1 200 OK\r\nConnectİon: close\r\n\r\n"), 1<<16)
	if err != nil || !r.KeepAlive {
		t.Fatalf("dotted-I Connection read as Connection: %+v, %v", r, err)
	}
}

// TestBlankConnectionClose: every "close" option of every Connection
// field is overwritten with spaces, in place, and nothing else is.
func TestBlankConnectionClose(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", "GET / HTTP/1.1\r\nConnection:      \r\n\r\n"},
		{"GET / HTTP/1.1\r\nConnection: close, TE\r\n\r\n", "GET / HTTP/1.1\r\nConnection:      , TE\r\n\r\n"},
		{"GET / HTTP/1.1\r\nconnection:keep-alive,\tCLOSE ,close\r\n\r\n", "GET / HTTP/1.1\r\nconnection:keep-alive,\t      ,     \r\n\r\n"},
		{"GET / HTTP/1.1\r\nConnection: close\r\nHost: h\r\nCONNECTION: Close\r\n\r\n", "GET / HTTP/1.1\r\nConnection:      \r\nHost: h\r\nCONNECTION:      \r\n\r\n"},
		// Bare-LF line endings, and blank lines ahead of the request line.
		{"\r\n\nGET / HTTP/1.1\nConnection: close\n\n", "\r\n\nGET / HTTP/1.1\nConnection:      \n\n"},
		// Not the option: another field's value, a longer token, the
		// target, a request line that looks like the field.
		{"GET /close HTTP/1.1\r\nX-Connection: close\r\nConnection: closed, close-notify\r\nVia: close\r\n\r\n", ""},
		{"Connection: close HTTP/1.1\r\nHost: h\r\n\r\n", ""},
	} {
		raw := []byte(tc.in)
		BlankConnectionClose(raw)
		want := tc.want
		if want == "" {
			want = tc.in
		}
		if string(raw) != want {
			t.Errorf("BlankConnectionClose(%q)\n got %q\nwant %q", tc.in, raw, want)
		}
	}
	h, err := ReadRequestHead(bufio.NewReader(strings.NewReader("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")), 1<<16)
	if err != nil || !h.Close || h.KeepAlive {
		t.Fatalf("parse: Close=%t KeepAlive=%t err=%v, want true, false, nil", h.Close, h.KeepAlive, err)
	}
	if h, _ = ReadRequestHead(bufio.NewReader(strings.NewReader("GET / HTTP/1.0\r\n\r\n")), 1<<16); h.Close || h.KeepAlive {
		t.Fatalf("HTTP/1.0 without options: Close=%t KeepAlive=%t, want false, false", h.Close, h.KeepAlive)
	}
}
