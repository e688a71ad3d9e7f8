package httprelay

// Fuzz targets for the parsers that stand between untrusted bytes and
// the other side: the request-head and response-head readers, the
// chunked-body relay, and the whole response relay under read
// fragmentation. All are desync-sensitive — the relay forwards the very
// bytes it parsed, so any disagreement between "what was consumed" and
// "what was forwarded" is a request-smuggling primitive, which is why the
// invariants below are byte-exact prefix equalities rather than mere
// doesn't-crash checks.
//
// CI runs each target for a short smoke window (-fuzz -fuzztime=10s);
// the committed corpus under testdata/fuzz seeds it with the smuggling
// shapes from the table-driven tests.

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"testing"
)

// FuzzReadRequestHead checks the head parser's error contract and
// consumed-prefix identity on arbitrary input.
func FuzzReadRequestHead(f *testing.F) {
	seeds := []string{
		"GET /index.html HTTP/1.1\r\nHost: a\r\n\r\n",
		"POST /u HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
		"POST /u HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
		"POST /u HTTP/1.1\r\nContent-Length: +5\r\n\r\n",
		"POST /u HTTP/1.1\r\nContent-Length: 5 GET /evil HTTP/1.1\r\n\r\n",
		"POST /u HTTP/1.1\r\nContent-Length: 0x10\r\n\r\n",
		"POST /u HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n",
		"POST /u HTTP/1.1\r\nContent-Length: 5, 6\r\n\r\n",
		"POST /u HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n",
		"POST /u HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n",
		"POST /u HTTP/1.1\r\nTransfer-Encoding: chunked, gzip\r\n\r\n",
		"GET / HTTP/1.1\r\nX-Long: a\r\n b\r\n\r\n",
		"GET / HTTP/1.1\r\nNONSENSE\r\n\r\n",
		"GET / HTTP/1.1\r\nContent-Length : 5\r\n\r\n",
		"GET / HTTP/1.1\r\nHost\t: a\r\n\r\n",
		"GET\r\n\r\n",
		"GET / HTTP/one.one\r\n\r\n",
		"\r\n\r\nGET / HTTP/1.1\r\n\r\n",
		"\r\nGET / HTTP/1.1\r\nConnection: close\r\n\r\n",
		"GET /close HTTP/1.1\r\nConnection: TE,close ,\tCLOSE\r\nX-Connection: close\r\nconnection:close\r\n\r\n",
		"",
		"GET / HTT",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		under := bytes.NewReader(data)
		br := bufio.NewReader(under)
		h, err := ReadRequestHead(br, 1<<14)
		consumed := len(data) - br.Buffered() - under.Len()
		if err != nil {
			// The only transport error a bytes.Reader produces is a clean
			// EOF. The contract passes it through bare only when nothing
			// was received; part way through a head it is truncated, as an
			// unexpected EOF.
			var malformed *MalformedError
			var truncated *TruncatedError
			switch {
			case errors.As(err, &malformed):
			case errors.As(err, &truncated):
				if truncated.Err != io.ErrUnexpectedEOF || len(data) == 0 {
					t.Fatalf("truncated after %d bytes of input: %v", len(data), err)
				}
			case err != io.EOF:
				t.Fatalf("non-malformed, non-EOF error: %v", err)
			case len(data) != 0:
				t.Fatalf("bare io.EOF after %d bytes of input", len(data))
			}
			return
		}
		// Desync check 1: Raw is exactly the bytes consumed from the
		// stream — what gets forwarded is what was parsed.
		if !bytes.Equal(h.Raw, data[:consumed]) {
			t.Fatalf("Raw != consumed prefix:\nraw:      %q\nconsumed: %q", h.Raw, data[:consumed])
		}
		// Desync check 2: re-parsing the forwarded bytes yields the
		// identical head, so the back end cannot disagree with the relay.
		under2 := bytes.NewReader(h.Raw)
		br2 := bufio.NewReader(under2)
		h2, err2 := ReadRequestHead(br2, 1<<14)
		if err2 != nil {
			t.Fatalf("re-parsing forwarded head failed: %v\nraw: %q", err2, h.Raw)
		}
		if rest := br2.Buffered() + under2.Len(); rest != 0 {
			t.Fatalf("re-parse left %d bytes unconsumed of %q", rest, h.Raw)
		}
		if h2.Method != h.Method || h2.Target != h.Target || h2.Proto != h.Proto ||
			h2.ContentLength != h.ContentLength || h2.Chunked != h.Chunked ||
			h2.KeepAlive != h.KeepAlive || h2.ExpectContinue != h.ExpectContinue ||
			!bytes.Equal(h2.Raw, h.Raw) {
			t.Fatalf("re-parse disagrees:\nfirst:  %+v\nsecond: %+v", h, h2)
		}
		// Desync check 3: blanking the close option changes nothing but
		// the option. The blanked head differs from Raw only by spaces
		// where "close" stood, and parses to the same message with no
		// close left in it.
		if !h.Close {
			return
		}
		blanked := bytes.Clone(h.Raw)
		BlankConnectionClose(blanked)
		for i, c := range blanked {
			if c != h.Raw[i] && (c != ' ' || !strings.ContainsRune("closeCLOSE", rune(h.Raw[i]))) {
				t.Fatalf("blanking changed byte %d of %q to %q", i, h.Raw, blanked)
			}
		}
		h3, err3 := ReadRequestHead(bufio.NewReader(bytes.NewReader(blanked)), 1<<14)
		if err3 != nil {
			t.Fatalf("blanked head does not parse: %v\nraw: %q", err3, blanked)
		}
		if h3.Close || len(h3.Raw) != len(h.Raw) || h3.Method != h.Method || h3.Target != h.Target ||
			h3.Proto != h.Proto || h3.ContentLength != h.ContentLength || h3.Chunked != h.Chunked ||
			h3.ExpectContinue != h.ExpectContinue {
			t.Fatalf("blanked head parses differently:\nbefore: %+v\nafter:  %+v", h, h3)
		}
	})
}

// FuzzChunkedRelay checks that the chunked-body relay forwards exactly
// the bytes it consumed and classifies every failure as malformed.
func FuzzChunkedRelay(f *testing.F) {
	seeds := []string{
		"0\r\n\r\n",
		"5\r\nhello\r\n0\r\n\r\n",
		"5;ext=1\r\nhello\r\n0\r\n\r\n",
		"5\r\nhello\r\n0\r\nTrailer: v\r\n\r\n",
		"5\r\nhello\r\n0\r\n",
		"5\r\nhell",
		"-5\r\nhello\r\n0\r\n\r\n",
		"0x5\r\nhello\r\n0\r\n\r\n",
		"ffffffffffffffff\r\n",
		"5\r\nhelloX\r\n0\r\n\r\n",
		"",
		"zz\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		under := bytes.NewReader(data)
		br := bufio.NewReader(under)
		var dst bytes.Buffer
		total, err := relayChunked(&dst, br)
		if total != int64(dst.Len()) {
			t.Fatalf("reported %d forwarded bytes, wrote %d", total, dst.Len())
		}
		if err != nil {
			var malformed *MalformedError
			if !errors.As(err, &malformed) {
				t.Fatalf("relayChunked error is not malformed: %v", err)
			}
			return
		}
		// Success: output is the exact consumed prefix, and relaying the
		// forwarded bytes again reproduces them — the next hop sees the
		// same body boundary.
		consumed := len(data) - br.Buffered() - under.Len()
		if !bytes.Equal(dst.Bytes(), data[:consumed]) {
			t.Fatalf("forwarded bytes != consumed prefix:\nforwarded: %q\nconsumed:  %q", dst.Bytes(), data[:consumed])
		}
		var dst2 bytes.Buffer
		if _, err := relayChunked(&dst2, bufio.NewReader(strings.NewReader(dst.String()))); err != nil {
			t.Fatalf("re-relaying forwarded body failed: %v\nbody: %q", err, dst.Bytes())
		}
		if !bytes.Equal(dst2.Bytes(), dst.Bytes()) {
			t.Fatalf("re-relay disagrees:\nfirst:  %q\nsecond: %q", dst.Bytes(), dst2.Bytes())
		}
	})
}

// responseSeeds are back-end byte streams: heads alone, whole responses of
// every framing, interim responses, and truncations.
var responseSeeds = []string{
	"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloNEXT",
	"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhel",
	"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 40\r\nX-Pad: " + "pppppppppppppppppppppppppppppppppppppppp\r\n\r\n" + "0123456789012345678901234567890123456789NEXT",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\nNEXT",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5;ext=1\r\nhello\r\n0\r\nX-Trailer: v\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length: 10\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\nuntil close",
	"HTTP/1.1 204 No Content\r\n\r\nNEXT",
	"HTTP/1.1 304 Not Modified\r\nContent-Length: 1234\r\n\r\nNEXT",
	"HTTP/1.1 102 Processing\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokNEXT",
	"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
	"HTTP/1.1 101 Switching Protocols\r\nUpgrade: x\r\n\r\nraw bytes",
	"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
	"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok",
	"HTTP/1.1 200 OK\r\n\r\neverything until EOF",
	"HTTP/1.1 200 OK\nContent-Length: 3\n\nabc",
	"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-Length : 5\r\n\r\n",
	"HTTP/1.1 200 OK\r\nX-A: b\r\n folded\r\n\r\n",
	"HTTP/1.1 20 OK\r\n\r\n",
	"HTTP/1.1\r\n\r\n",
	"\r\nHTTP/1.1 200 OK\r\n\r\n",
	"HTTP/1.1 200 OK\r\nContent-",
	"",
}

// FuzzReadResponseHead checks the response-head reader's error contract
// (every failure is malformed: a back end owes a response) and
// consumed-prefix identity on arbitrary input.
func FuzzReadResponseHead(f *testing.F) {
	for _, s := range responseSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		under := bytes.NewReader(data)
		br := bufio.NewReaderSize(under, 64) // small window: both ways to a head's bytes run
		h, err := ReadResponseHead(br, 1<<14)
		if err != nil {
			var malformed *MalformedError
			if !errors.As(err, &malformed) {
				t.Fatalf("non-malformed error: %v", err)
			}
			return
		}
		raw := bytes.Clone(h.Raw) // Raw is a view of br's window
		consumed := len(data) - br.Buffered() - under.Len()
		if !bytes.Equal(raw, data[:consumed]) {
			t.Fatalf("Raw != consumed prefix:\nraw:      %q\nconsumed: %q", raw, data[:consumed])
		}
		if h.Status < 100 || h.Status > 999 || h.ContentLength < -1 || h.Chunked && h.ContentLength != -1 {
			t.Fatalf("impossible head: %+v", h)
		}
		// Re-parsing the forwarded bytes, whole, yields the identical
		// head: the client cannot disagree with the relay.
		h2, err2 := ReadResponseHead(bufio.NewReaderSize(bytes.NewReader(raw), ReaderSize), 1<<14)
		if err2 != nil {
			t.Fatalf("re-parsing forwarded head failed: %v\nraw: %q", err2, raw)
		}
		if h2.Proto != h.Proto || h2.Status != h.Status || h2.ContentLength != h.ContentLength ||
			h2.Chunked != h.Chunked || h2.KeepAlive != h.KeepAlive || !bytes.Equal(h2.Raw, raw) {
			t.Fatalf("re-parse disagrees:\nfirst:  %+v\nsecond: %+v", h, h2)
		}
	})
}

// FuzzResponseHeadVsNetHTTP gives the same bytes to this package's response
// head parser and to http.ReadResponse: the reader a client behind the front
// end is likely to have, and the one that wrote the heads a back end under
// net/http sends. A head both accept they must frame alike: the same status,
// the same body (none, chunked, so many bytes, or until the close), ended at
// the same byte, with the same word on whether the connection goes on behind
// it. A head only one accepts has to be in the lists below, with the reason
// that makes it safe; anything else fails with the input.
func FuzzResponseHeadVsNetHTTP(f *testing.F) {
	table, err := os.ReadFile(goldenInputsPath)
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
	for _, s := range append(responseSeeds,
		"HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n",
		"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nTransfer-Encoding: chunked\r\n\r\n",
		"HTTP/1.1 304 Not Modified\r\nTransfer-Encoding: chunked\r\n\r\n",
		"HTTP/1.1 200 OK\r\nConnection: keep-alive, close\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n",
		"HTTP/2.0 200 OK\r\nContent-Length: 5\r\n\r\n",
		"HTTP/0.9 200 OK\r\nConnection: keep-alive\r\nContent-Length: 0\r\n\r\n",
	) {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ours, theirs := bytes.NewReader(data), bytes.NewReader(data)
		obr, tbr := bufio.NewReaderSize(ours, ReaderSize), bufio.NewReader(theirs)
		h, oerr := ReadResponseHead(obr, 1<<16)
		resp, terr := http.ReadResponse(tbr, nil)
		switch {
		case oerr == nil && terr == nil:
			if oused, tused := len(data)-obr.Buffered()-ours.Len(), len(data)-tbr.Buffered()-theirs.Len(); oused != tused {
				t.Fatalf("this package's head is %d bytes, net/http's %d", oused, tused)
			}
			open := h.KeepAlive && (h.BodilessStatus() || h.Chunked || h.ContentLength >= 0)
			if !resp.ProtoAtLeast(1, 1) && bytes.Contains(bytes.ToLower(h.Raw), []byte("\ntransfer-encoding:")) {
				// The one framing the two may differ on: a coding in a
				// message older than 1.1. net/http ignores the field; here
				// the body runs to the close, whatever either of them made
				// of its length (parseResponseHead, RFC 9112 §6.1).
				if open || h.Chunked || h.ContentLength >= 0 {
					t.Fatalf("a Transfer-Encoding in %s: read %+v, want a body until the close", h.Proto, h)
				}
				return
			}
			chunked, length := len(resp.TransferEncoding) > 0, resp.ContentLength
			if h.BodilessStatus() {
				// No body whatever the fields say, which the relay asks the
				// status and net/http answers in the fields.
				chunked, length = h.Chunked, h.ContentLength
			}
			if h.Status != resp.StatusCode || h.Chunked != chunked || !h.Chunked && h.ContentLength != length || open == resp.Close {
				t.Fatalf("this package read %+v (open after: %t), net/http %d, Content-Length %d, %v, Close %t",
					h, open, resp.StatusCode, resp.ContentLength, resp.TransferEncoding, resp.Close)
			}
		case oerr == nil:
			if !anyReason(terr.Error(), netHTTPRefuses) {
				t.Fatalf("this package accepts %+v, net/http refuses it: %v", h, terr)
			}
		case terr == nil:
			var m *MalformedError
			if !errors.As(oerr, &m) || !anyReason(m.Reason, netHTTPTolerates) {
				t.Fatalf("net/http accepts status %d, Content-Length %d, %v; this package refuses it: %v",
					resp.StatusCode, resp.ContentLength, resp.TransferEncoding, oerr)
			}
		}
	})
}

func anyReason(msg string, reasons []string) bool {
	for _, r := range reasons {
		if strings.Contains(msg, r) {
			return true
		}
	}
	return false
}

// netHTTPRefuses: what net/http says of a response head this package reads
// and relays. Each is syntax net/http polices and this parser, which frames
// and does not validate, passes on for the client to judge; the relay
// forwards the head's bytes as they came, so a client that is net/http
// refuses what net/http would have refused from the back end itself.
var netHTTPRefuses = []string{
	"unsupported transfer encoding", // a coding that is not chunked: read here as a body until the close, never reused behind
	"too many transfer encodings",   // the same, in two fields
	"bad Content-Length",            // a list of equal lengths ("5, 5"), read as proxies fold them
	"multiple Content-Length",       // fields equal as numbers and not as text ("5" and "5,")
	"malformed MIME header",         // a field name that is no token, a bare CR in a line
	"malformed HTTP version",        // a part of the version in more digits than one ("HTTP/01.1"), read here as the number it is
	"malformed HTTP status code",    // CRs before the status line's CRLF, which this package trims: it read exactly three digits
}

// netHTTPTolerates: this package's reason for refusing a head net/http
// accepts. The front end answers 502 and drops the transport, which is
// always safe; each is a shape that another reader could frame another way.
var netHTTPTolerates = []string{
	"malformed header line", // "Name : value": RFC 7230 §3.2.4 has a proxy refuse it
	"obsolete line folding", // the same section: refuse or unfold, and this relay forwards bytes as they came
	"malformed status line", // a status below 100 or signed ("099", "+99"), which net/http reads with Atoi
}

// fragmentReader delivers r in reads whose sizes cycle through cuts.
type fragmentReader struct {
	r    io.Reader
	cuts []byte
	i    int
}

func (f *fragmentReader) Read(p []byte) (int, error) {
	if len(f.cuts) > 0 {
		n := 1 + int(f.cuts[f.i%len(f.cuts)])
		f.i++
		p = p[:min(n, len(p))]
	}
	return f.r.Read(p)
}

// FuzzRelayResponseFragmented relays one back-end byte stream twice —
// delivered whole, and under arbitrary read fragmentation through an
// arbitrary window — and checks that fragmentation is invisible: the
// client gets identical bytes, reusable agrees, and the reader is left
// exactly after the response. The relay is verbatim, so on success the
// client's bytes and the unread rest are the input, split in two.
func FuzzRelayResponseFragmented(f *testing.F) {
	for i, s := range responseSeeds {
		f.Add([]byte(s), []byte{byte(i), 0, 7}, uint8(i), i%3 == 0)
	}
	f.Fuzz(func(t *testing.T, data, cuts []byte, window uint8, head bool) {
		method := "GET"
		if head {
			method = "HEAD"
		}
		relay := func(src io.Reader, size int, withRaw bool) (out string, reusable bool, rest string, err error) {
			br := bufio.NewReaderSize(src, size)
			var raw io.Reader
			if withRaw {
				raw = src
			}
			var client bytes.Buffer
			n, reusable, err := RelayResponseFrom(&client, br, raw, method, 1<<12, nil)
			if n != int64(client.Len()) {
				t.Fatalf("reported %d bytes written, wrote %d", n, client.Len())
			}
			if !bytes.HasPrefix(data, client.Bytes()) {
				t.Fatalf("client bytes are not a prefix of the back end's:\nclient:  %q\nbackend: %q", client.Bytes(), data)
			}
			if err != nil {
				if reusable {
					t.Fatalf("reusable after %v", err)
				}
				return client.String(), false, "", err
			}
			left, _ := io.ReadAll(br)
			return client.String(), reusable, string(left), nil
		}
		size := []int{16, 64, 256, ReaderSize}[window%4]
		out, reusable, rest, err := relay(bytes.NewReader(data), ReaderSize, false)
		fout, freusable, frest, ferr := relay(&fragmentReader{r: bytes.NewReader(data), cuts: cuts}, size, window&4 != 0)
		if (err == nil) != (ferr == nil) {
			t.Fatalf("whole: %v, fragmented: %v", err, ferr)
		}
		if err != nil {
			return
		}
		if out+rest != string(data) {
			t.Fatalf("relayed %q and left %q of %q", out, rest, data)
		}
		if fout != out || freusable != reusable || frest != rest {
			t.Fatalf("fragmentation showed:\nwhole:      %q reusable=%v rest=%q\nfragmented: %q reusable=%v rest=%q", out, reusable, rest, fout, freusable, frest)
		}
	})
}
