package backend

import (
	"bufio"
	"bytes"
	"errors"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"

	"lard/internal/httprelay"
)

// netHTTPStricter are the reasons net/http gives for refusing a head the
// loop answers and keeps its session open after. Each is syntax net/http
// polices and httprelay's parser, which frames and does not validate,
// leaves alone; none moves the blank line the head ends at, which both
// readers find line by line, so none is a way to make the two disagree
// about where the next request begins. The front end reads the same heads
// with the same parser first, which is the pair that has to agree.
var netHTTPStricter = []string{
	"malformed HTTP request", // blank lines before the request line, which RFC 7230 §3.5 asks a server to skip
	"malformed MIME header",  // a field name that is no token, a bare CR in a line
	"invalid method",         // a method that is no token: it gets its 405
	"malformed HTTP version", // CRs before a line's CRLF, which httprelay trims: the loop read exactly "HTTP/1.1"
	"too many Host headers",  // the loop does not read Host: the node serves one catalog under every name
	"bad Content-Length",     // a list of equal lengths ("0, 0"), which httprelay reads as proxies fold them
}

// FuzzTakeoverHeadVsNetHTTP gives the same bytes to the session loop's
// reader (httprelay's parser, requestPath and RequestHead.KeepsOpen: what
// the loop decides with) and to http.ReadRequest, which read the same
// requests until this package took connections over. They must never frame a head they
// both accept differently (its length, its method, whether the connection
// goes on behind it, the document it names); the loop may keep
// a session open after a head net/http refuses only for one of
// netHTTPStricter's reasons; and it may refuse a head after which net/http
// would have kept the connection open only for obsolete line folding,
// which httprelay rejects by design. Anything else fails with the input.
func FuzzTakeoverHeadVsNetHTTP(f *testing.F) {
	// httprelay's golden table, written out by its TestGoldenParseTable.
	table, err := os.ReadFile("../httprelay/testdata/golden_inputs.txt")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(table)), "\n") {
		_, quoted, _ := strings.Cut(line, "\t")
		in, err := strconv.Unquote(quoted)
		if err != nil {
			f.Fatalf("%q: %v", line, err)
		}
		f.Add([]byte(in))
	}
	for _, in := range []string{
		"GET /a%20b?q=1 HTTP/1.1\r\nHost: h\r\n\r\n",
		"GET http://h/p/q HTTP/1.1\r\nHost: h\r\n\r\n",
		"HEAD /x HTTP/1.1\r\nExpect: 100-continue\r\n\r\n",
		"GET /x HTTP/1.1\r\nContent-Length: 0\r\n\r\nGET /y HTTP/1.1\r\n\r\n",
		// net/http ignores a 1.0 request's Transfer-Encoding and would read
		// the chunks as the next request; the loop closes behind any 1.0.
		"GET /x HTTP/1.0\r\nConnection: keep-alive\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ours, theirs := bytes.NewReader(data), bytes.NewReader(data)
		obr, tbr := bufio.NewReader(ours), bufio.NewReader(theirs)
		h, oerr := httprelay.ReadRequestHeadInto(obr, maxHeadBytes, nil)
		path, ok := "", oerr == nil
		if ok {
			path, ok = requestPath(h.Target)
		}
		req, terr := http.ReadRequest(tbr)
		// What KeepsOpen asks, net/http's way: takesOver, the method apart,
		// and no close. An Expect is 100-continue as a token of its comma
		// list, as both readers take it ("0100-continue" is an Expect
		// net/http answers 417 to, a difference DESIGN.md lists, and no
		// 100-continue).
		theirsOpen := terr == nil && req.ProtoMajor == 1 && req.ProtoMinor == 1 && req.ContentLength == 0 && !req.Close
		for i := 0; theirsOpen && i < len(req.Header["Expect"]); i++ {
			for _, tok := range strings.Split(req.Header["Expect"][i], ",") {
				theirsOpen = theirsOpen && !strings.EqualFold(strings.Trim(tok, " \t"), "100-continue")
			}
		}
		switch {
		case ok && terr == nil:
			oused, tused := len(data)-obr.Buffered()-ours.Len(), len(data)-tbr.Buffered()-theirs.Len()
			if oused != tused {
				t.Fatalf("the loop's head is %d bytes, net/http's %d", oused, tused)
			}
			if h.Method != req.Method || h.KeepsOpen() != theirsOpen {
				t.Fatalf("the loop read %+v (open after: %t), net/http %s, Content-Length %d, Close %t, %s (open after: %t)",
					h, h.KeepsOpen(), req.Method, req.ContentLength, req.Close, req.Proto, theirsOpen)
			}
			if req.Method != http.MethodConnect && path != req.URL.Path {
				t.Fatalf("target %q: the loop's path %q, net/http's %q", h.Target, path, req.URL.Path)
			}
		case ok && h.KeepsOpen():
			for _, reason := range netHTTPStricter {
				if strings.Contains(terr.Error(), reason) {
					return
				}
			}
			t.Fatalf("the loop keeps its session open after a head net/http refuses: %v", terr)
		case theirsOpen:
			var m *httprelay.MalformedError
			if oerr == nil || !errors.As(oerr, &m) || !(strings.HasPrefix(m.Reason, "obsolete line folding") || strings.HasPrefix(m.Reason, "malformed header line")) {
				t.Fatalf("net/http keeps the connection open after a head the loop refuses: %v (target ok: %t)", oerr, ok)
			}
		}
	})
}
