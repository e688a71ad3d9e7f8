package httprelay

// The golden parse table pins what the two head readers make of a corpus
// of heads: every parsed field and Raw, or the class of the error.
// testdata/golden_heads.txt was captured from the line-accumulating
// parser this package used to have, before the in-place parser replaced
// it, so the table is the old parser's behaviour and the test holds the
// new one to it row for row. Regenerate (-update-golden) only to add rows
// for new corpus entries, and check the diff adds nothing else.
//
// One deliberate difference is outside the corpus: header names and
// tokens fold case over ASCII only (see TestCaseFoldingIsASCIIOnly).

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_heads.txt from the current parser")

const goldenPath = "testdata/golden_heads.txt"

// goldenInputsPath holds the corpus's inputs themselves, a name and a quoted
// string per line, for the tests of other packages that seed a fuzz target
// with this table (internal/backend's differential against net/http). It is
// written with the table and checked against it; the few entries longer
// than a reader's default window are left out.
const goldenInputsPath = "testdata/golden_inputs.txt"

// goldenWindow is the relay's reader size (ReaderSize), spelled out so
// the corpus does not move if the constant does.
const goldenWindow = 16 << 10

var errGoldenBoom = errors.New("boom")

type goldenEntry struct {
	name string
	in   string
	fail error // returned by the source after in; nil = io.EOF
	max  int   // head-size budget; 0 = 1<<16
}

// headOfSize builds a well-formed request head of exactly n bytes.
func headOfSize(n int) string {
	const start, end = "GET /big HTTP/1.1\r\nHost: h\r\nX-Pad: ", "\r\n\r\n"
	return start + strings.Repeat("p", n-len(start)-len(end)) + end
}

// respOfSize builds a well-formed response head of exactly n bytes.
func respOfSize(n int) string {
	const start, end = "HTTP/1.1 200 OK\r\nContent-Length: 3\r\nX-Pad: ", "\r\n\r\n"
	return start + strings.Repeat("p", n-len(start)-len(end)) + end
}

func goldenCorpus(t *testing.T) []goldenEntry {
	var es []goldenEntry
	add := func(name, in string) { es = append(es, goldenEntry{name: name, in: in}) }

	// Every head the table tests and the fuzz seeds feed the parsers.
	for i, in := range []string{
		"GET /x HTTP/1.1\r\nHost: h\r\n\r\n",
		"GET /x HTTP/1.0\r\nHost: h\r\n\r\n",
		"GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
		"GET /x HTTP/1.1\r\nConnection: TE, close\r\n\r\n",
		"GET /x HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n",
		"POST /x HTTP/1.1\r\nContent-Length: 12\r\n\r\n",
		"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n",
		"POST /x HTTP/1.1\r\nContent-Length: 5, 5\r\n\r\n",
		"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
		"POST /x HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 3\r\n\r\n",
		"POST /x HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
		"POST /x HTTP/1.1\r\nContent-Length: +5\r\n\r\n",
		"POST /x HTTP/1.1\r\nContent-Length: 5 GET /evil HTTP/1.1\r\n\r\n",
		"POST /x HTTP/1.1\r\nContent-Length: 0x10\r\n\r\n",
		"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n",
		"POST /x HTTP/1.1\r\nContent-Length: 5, 6\r\n\r\n",
		"POST /x HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n",
		"POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n",
		"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked, gzip\r\n\r\n",
		"GET /x HTTP/1.1\r\nX-A: b\r\n    folded\r\n\r\n",
		"GET /x HTTP/1.1\r\nNONSENSE\r\n\r\n",
		"POST /x HTTP/1.1\r\nContent-Length : 5\r\n\r\nAAAAA",
		"POST /x HTTP/1.1\r\nContent-Length\t: 5\r\n\r\nAAAAA",
		"NONSENSE\r\n\r\n",
		"GET /x HTTP/one.one\r\n\r\n",
		"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n",
		"GET /x HTTP/1.1\r\nHost:",
		"GET /odd path HTTP/1.1\r\n\r\n",
		"GET\r\n\r\n",
		"GET /x\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\n",
		"HTTP/1.1 200 OK\r\n\r\n",
		"HTTP/1.0 200 OK\r\nContent-Length: 4\r\n\r\n",
		"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 4\r\n\r\n",
		"HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 4\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 10\r\nTransfer-Encoding: chunked\r\n\r\n",
		"HTTP/1.1 204\r\n\r\n",
		"HTTP/1.1 100 Continue\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked, gzip\r\n\r\n",
		"HTTP/1.1 20 OK\r\n\r\n",
		"HTTP/1.1\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length : 5\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloJUNK-NEXT-RESPONSE",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nWiki\r\n5\r\npedia\r\n0\r\n\r\nNEXT",
		"HTTP/1.1 204 No Content\r\n\r\nNEXT",
		"HTTP/1.1 304 Not Modified\r\nContent-Length: 1234\r\n\r\nNEXT",
		"HTTP/1.1 102 Processing\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokNEXT",
		"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok",
		"HTTP/1.1 200 OK\r\n\r\neverything until EOF",
		"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok",
		"GET /index.html HTTP/1.1\r\nHost: a\r\n\r\n",
		"POST /u HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
		"GET / HTTP/1.1\r\nX-Long: a\r\n b\r\n\r\n",
		"GET / HTTP/1.1\r\nHost\t: a\r\n\r\n",
		"\r\n\r\nGET / HTTP/1.1\r\n\r\n",
		"",
		"GET / HTT",
	} {
		add(fmt.Sprintf("table/%02d", i), in)
	}

	// The committed fuzz corpus.
	files, err := filepath.Glob("testdata/fuzz/Fuzz*Head/*")
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		in, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		add("fuzz/"+filepath.Base(filepath.Dir(f))+"/"+filepath.Base(f), in)
	}

	// Heads around the window: one that fills it, one a byte over, one
	// four windows long (the head-size budget exactly), and one past the
	// budget.
	for _, k := range []struct {
		name string
		n    int
	}{{"window", goldenWindow}, {"window+1", goldenWindow + 1}, {"4window", 4 * goldenWindow}, {"4window+1", 4*goldenWindow + 1}} {
		add("size/req/"+k.name, headOfSize(k.n)+"NEXT")
		add("size/resp/"+k.name, respOfSize(k.n)+"abcNEXT")
	}
	es = append(es,
		goldenEntry{name: "size/req/at-budget", in: headOfSize(256) + "NEXT", max: 256},
		goldenEntry{name: "size/req/over-budget", in: headOfSize(257), max: 256},
		goldenEntry{name: "size/resp/at-budget", in: respOfSize(256) + "abc", max: 256},
		goldenEntry{name: "size/resp/over-budget", in: respOfSize(257), max: 256},
		goldenEntry{name: "size/req/many-lines-over-budget", in: "GET /x HTTP/1.1\r\n" + strings.Repeat("A: b\r\n", 1000) + "\r\n", max: 256},
		goldenEntry{name: "size/req/unterminated-line", in: "GET /x HTTP/1.1\r\n" + strings.Repeat("a", 1<<12), max: 256},
		goldenEntry{name: "size/req/unterminated-5-windows", in: "GET /" + strings.Repeat("a", 5*goldenWindow)},
	)

	// Line endings, blank lines, folding.
	add("lf/req", "GET /x HTTP/1.1\nHost: h\nContent-Length: 3\n\nabc")
	add("lf/resp", "HTTP/1.1 200 OK\nContent-Length: 3\n\nabc")
	add("lf/mixed", "GET /x HTTP/1.1\r\nHost: h\n\r\nrest")
	add("cr/double-cr-blank", "GET /x HTTP/1.1\r\nHost: h\r\n\r\r\nrest")
	add("cr/double-cr-value", "POST /x HTTP/1.1\r\nContent-Length: 5\r\r\n\r\nhello")
	add("cr/bare-cr-in-value", "GET /x HTTP/1.1\r\nX: a\rb\r\n\r\n")
	add("cr/bare-cr-line", "GET /x HTTP/1.1\r\n\rHost: h\r\n\r\n")
	add("blank/leading-one", "\r\nGET /x HTTP/1.1\r\n\r\n")
	add("blank/leading-lf", "\n\nGET /x HTTP/1.1\n\n")
	add("blank/leading-resp", "\r\nHTTP/1.1 200 OK\r\n\r\n")
	add("blank/only", "\r\n\r\n\r\n")
	add("blank/only-then-eof", "\r\n")
	add("blank/space-line", "GET /x HTTP/1.1\r\n \r\n\r\n")
	add("fold/tab", "GET /x HTTP/1.1\r\nX-A: b\r\n\tfolded\r\n\r\n")
	add("fold/first-header", "GET /x HTTP/1.1\r\n folded: x\r\n\r\n")
	add("fold/resp", "HTTP/1.1 200 OK\r\nX-A: b\r\n folded\r\n\r\n")

	// Content-Length: duplicate, conflicting, list-valued, odd.
	add("cl/req/list-three", "POST /x HTTP/1.1\r\nContent-Length: 7,7 ,\t7\r\n\r\n")
	add("cl/req/list-empty-members", "POST /x HTTP/1.1\r\nContent-Length: ,5,,5,\r\n\r\n")
	add("cl/req/list-only-commas", "POST /x HTTP/1.1\r\nContent-Length: ,,\r\n\r\n")
	add("cl/req/empty", "POST /x HTTP/1.1\r\nContent-Length:\r\n\r\n")
	add("cl/req/list-then-dup-conflict", "POST /x HTTP/1.1\r\nContent-Length: 5,5\r\nContent-Length: 6\r\n\r\n")
	add("cl/req/zero-then-five", "POST /x HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 5\r\n\r\n")
	add("cl/req/leading-zeros", "POST /x HTTP/1.1\r\nContent-Length: 0005\r\n\r\n")
	add("cl/req/zeros-equal-five", "POST /x HTTP/1.1\r\nContent-Length: 05, 5\r\n\r\n")
	add("cl/req/max-int64", "POST /x HTTP/1.1\r\nContent-Length: 9223372036854775807\r\n\r\n")
	add("cl/req/overflow", "POST /x HTTP/1.1\r\nContent-Length: 9223372036854775808\r\n\r\n")
	add("cl/req/overflow-long", "POST /x HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n")
	add("cl/req/inner-space", "POST /x HTTP/1.1\r\nContent-Length: 1 2\r\n\r\n")
	add("cl/req/mixed-case-name", "POST /x HTTP/1.1\r\ncOnTeNt-LeNgTh: 9\r\n\r\n")
	add("cl/req/no-space", "POST /x HTTP/1.1\r\nContent-Length:9\r\n\r\n")
	add("cl/req/tabs", "POST /x HTTP/1.1\r\nContent-Length:\t 9 \t\r\n\r\n")
	add("cl/resp/dup-equal", "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n")
	add("cl/resp/list-equal", "HTTP/1.1 200 OK\r\nContent-Length: 5, 5\r\n\r\n")
	add("cl/resp/list-conflict", "HTTP/1.1 200 OK\r\nContent-Length: 5, 6\r\n\r\n")
	add("cl/resp/zero", "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
	add("cl/resp/zero-then-five", "HTTP/1.1 200 OK\r\nContent-Length: 0\r\nContent-Length: 5\r\n\r\n")
	add("cl/resp/negative", "HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n")
	add("cl/resp/empty", "HTTP/1.1 200 OK\r\nContent-Length: \r\n\r\n")
	add("cl/resp/chunked-and-bad-length", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: x\r\n\r\n")

	// Transfer-Encoding, Connection and Expect token lists.
	add("te/req/gzip-chunked", "POST /x HTTP/1.1\r\nTransfer-Encoding: gzip, chunked\r\n\r\n")
	add("te/req/case", "POST /x HTTP/1.1\r\nTRANSFER-ENCODING: Chunked\r\n\r\n")
	add("te/req/empty", "POST /x HTTP/1.1\r\nTransfer-Encoding:\r\n\r\n")
	add("te/req/two-headers-chunked-last", "POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\nTransfer-Encoding: chunked\r\n\r\n")
	add("te/req/trailing-comma", "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked,\r\n\r\n")
	add("te/req/te-then-cl", "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n")
	add("te/resp/two-headers-unknown-first", "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\nTransfer-Encoding: chunked\r\n\r\n")
	add("te/resp/two-headers-unknown-last", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTransfer-Encoding: gzip\r\n\r\n")
	add("te/resp/empty", "HTTP/1.1 200 OK\r\nTransfer-Encoding:\r\nConnection: keep-alive\r\n\r\n")
	add("te/resp/unknown-with-length", "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nTransfer-Encoding: gzip\r\nConnection: keep-alive\r\n\r\n")
	add("conn/req/two-headers", "GET /x HTTP/1.0\r\nConnection: foo\r\nConnection: keep-alive\r\n\r\n")
	add("conn/req/close-then-keepalive", "GET /x HTTP/1.1\r\nConnection: close\r\nConnection: keep-alive\r\n\r\n")
	add("conn/req/case", "GET /x HTTP/1.1\r\nCONNECTION: CLOSE\r\n\r\n")
	add("conn/req/prefix-not-token", "GET /x HTTP/1.1\r\nConnection: closed, keep-alive-ish\r\n\r\n")
	add("conn/req/empty-members", "GET /x HTTP/1.0\r\nConnection: , ,keep-alive,\r\n\r\n")
	add("conn/resp/http10-close-keepalive", "HTTP/1.0 200 OK\r\nConnection: keep-alive, close\r\n\r\n")
	add("expect/case-list", "POST /x HTTP/1.1\r\nExpect: foo, 100-Continue\r\nContent-Length: 3\r\n\r\n")
	add("expect/other", "POST /x HTTP/1.1\r\nExpect: 200-ok\r\nContent-Length: 3\r\n\r\n")
	add("expect/in-response", "HTTP/1.1 200 OK\r\nExpect: 100-continue\r\n\r\n")

	// Start lines.
	add("start/req/http2", "GET /x HTTP/2.0\r\n\r\n")
	add("start/req/http09", "GET /x HTTP/0.9\r\n\r\n")
	add("start/req/signed-version", "GET /x HTTP/+1.+1\r\n\r\n")
	add("start/req/negative-version", "GET /x HTTP/-1.1\r\n\r\n")
	add("start/req/no-minor", "GET /x HTTP/1.\r\n\r\n")
	add("start/req/no-major", "GET /x HTTP/.1\r\n\r\n")
	add("start/req/lowercase-proto", "GET /x http/1.1\r\n\r\n")
	add("start/req/long-version", "GET /x HTTP/01.001\r\n\r\n")
	add("start/req/huge-version", "GET /x HTTP/99999999999999999999.1\r\n\r\n")
	add("start/req/two-spaces", "GET  /x HTTP/1.1\r\n\r\n")
	add("start/req/trailing-space", "GET /x HTTP/1.1 \r\n\r\n")
	add("start/req/leading-space", " GET /x HTTP/1.1\r\n\r\n")
	add("start/req/tab-separated", "GET\t/x\tHTTP/1.1\r\n\r\n")
	add("start/req/methods", "OPTIONS * HTTP/1.1\r\n\r\n")
	add("start/req/custom-method", "PURGE /x HTTP/1.1\r\n\r\n")
	add("start/req/lower-method", "get /x HTTP/1.1\r\n\r\n")
	add("start/req/colon-first-header", "GET /x HTTP/1.1\r\n: empty-name\r\n\r\n")
	add("start/resp/four-digit", "HTTP/1.1 2000 OK\r\n\r\n")
	add("start/resp/099", "HTTP/1.1 099 Low\r\n\r\n")
	add("start/resp/999", "HTTP/1.1 999 High\r\n\r\n")
	add("start/resp/signed", "HTTP/1.1 +99 OK\r\n\r\n")
	add("start/resp/letters", "HTTP/1.1 2x0 OK\r\n\r\n")
	add("start/resp/empty-reason", "HTTP/1.1 200 \r\n\r\n")
	add("start/resp/http10-keepalive", "HTTP/1.0 200 OK\r\nConnection: Keep-Alive\r\n\r\n")
	add("start/resp/http2", "HTTP/2.0 200 OK\r\n\r\n")
	add("start/resp/bad-proto", "HTXP/1.1 200 OK\r\n\r\n")
	add("start/resp/leading-space", " HTTP/1.1 200 OK\r\n\r\n")
	add("start/resp/101", "HTTP/1.1 101 Switching Protocols\r\nUpgrade: x\r\nConnection: Upgrade\r\n\r\nraw")

	// Truncation and transport failures: nothing received, part of a head
	// received, and a complete head followed by the failure.
	es = append(es,
		goldenEntry{name: "io/boom-at-zero", in: "", fail: errGoldenBoom},
		goldenEntry{name: "io/deadline-at-zero", in: "", fail: os.ErrDeadlineExceeded},
		goldenEntry{name: "io/boom-after-blank-line", in: "\r\n", fail: errGoldenBoom},
		goldenEntry{name: "io/boom-mid-start-line", in: "GET /x HT", fail: errGoldenBoom},
		goldenEntry{name: "io/boom-mid-header", in: "GET /x HTTP/1.1\r\nHost: h\r\n", fail: errGoldenBoom},
		goldenEntry{name: "io/boom-mid-resp", in: "HTTP/1.1 200 OK\r\nContent-", fail: errGoldenBoom},
		goldenEntry{name: "io/boom-after-req", in: "GET /x HTTP/1.1\r\n\r\n", fail: errGoldenBoom},
		goldenEntry{name: "io/boom-after-resp", in: "HTTP/1.1 200 OK\r\n\r\n", fail: errGoldenBoom},
		goldenEntry{name: "io/eof-mid-line", in: "GET /x HTTP/1.1\r\nHost"},
		goldenEntry{name: "io/eof-before-blank", in: "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n"},
		goldenEntry{name: "io/eof-after-bad-line", in: "NONSENSE\r\n"},
	)
	return es
}

// failingReader returns err forever.
type failingReader struct{ err error }

func (f failingReader) Read([]byte) (int, error) { return 0, f.err }

// source is the entry's bytes followed by its failure.
func (e goldenEntry) source() io.Reader {
	if e.fail == nil {
		return strings.NewReader(e.in)
	}
	return io.MultiReader(strings.NewReader(e.in), failingReader{e.fail})
}

// goldenRow renders one parse: the fields and Raw, or the error's class.
// Raw is written as the length of the input prefix it equals.
func goldenRow(in string, raw []byte, fields string, err error) string {
	if err != nil {
		var m *MalformedError
		var tr *TruncatedError
		switch {
		case errors.As(err, &m):
			return "malformed"
		case errors.As(err, &tr):
			return "truncated io:" + tr.Err.Error()
		}
		return "io:" + err.Error()
	}
	if strings.HasPrefix(in, string(raw)) {
		return fmt.Sprintf("ok %s raw=prefix:%d", fields, len(raw))
	}
	return fmt.Sprintf("ok %s raw=%q", fields, raw)
}

// parseGolden runs one delivery of an entry through one of the readers and
// returns its row; after a clean parse it also checks that br is left
// exactly after Raw.
func parseGolden(t *testing.T, e goldenEntry, kind string, br *bufio.Reader) string {
	max := e.max
	if max == 0 {
		max = 1 << 16
	}
	var row string
	var raw []byte
	if kind == "req" {
		h, err := ReadRequestHead(br, max)
		raw = h.Raw
		row = goldenRow(e.in, raw, fmt.Sprintf("method=%q target=%q proto=%q v=%d.%d cl=%d chunked=%t keepalive=%t expect=%t",
			h.Method, h.Target, h.Proto, h.Major, h.Minor, h.ContentLength, h.Chunked, h.KeepAlive, h.ExpectContinue), err)
	} else {
		h, err := ReadResponseHead(br, max)
		raw = h.Raw
		row = goldenRow(e.in, raw, fmt.Sprintf("proto=%q v=%d.%d status=%d cl=%d chunked=%t keepalive=%t",
			h.Proto, h.Major, h.Minor, h.Status, h.ContentLength, h.Chunked, h.KeepAlive), err)
	}
	if strings.HasPrefix(row, "ok ") {
		n := len(raw) // Raw may alias br's buffer: take what is needed before reading on
		rest, _ := io.ReadAll(br)
		if n > len(e.in) || string(rest) != e.in[n:] {
			t.Errorf("%s %s: reader not left after the head: %d bytes follow, want %d", e.name, kind, len(rest), len(e.in)-n)
		}
	}
	return row
}

func TestGoldenParseTable(t *testing.T) {
	want := map[string]string{}
	if !*updateGolden {
		b, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
			key, row, ok := strings.Cut(line, "\t")
			if !ok {
				t.Fatalf("golden line without a tab: %q", line)
			}
			want[key] = row
		}
	}
	deliveries := []struct {
		name string
		br   func(io.Reader) *bufio.Reader
	}{
		{"whole", func(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, goldenWindow) }},
		{"byte-by-byte", func(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(iotest.OneByteReader(r), goldenWindow) }},
		{"64-byte-window", func(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, 64) }},
	}
	var out, inputs strings.Builder
	seen := map[string]bool{}
	for _, e := range goldenCorpus(t) {
		if len(e.in) <= 4<<10 {
			fmt.Fprintf(&inputs, "%s\t%q\n", e.name, e.in)
		}
		for _, kind := range []string{"req", "resp"} {
			key := e.name + " " + kind
			if seen[key] {
				t.Fatalf("duplicate corpus entry %q", key)
			}
			seen[key] = true
			var first string
			for i, d := range deliveries {
				row := parseGolden(t, e, kind, d.br(e.source()))
				if i == 0 {
					first = row
				} else if row != first {
					t.Errorf("%s: %s delivery parses differently:\n  whole: %s\n  %s: %s", key, d.name, first, d.name, row)
				}
			}
			fmt.Fprintf(&out, "%s\t%s\n", key, first)
			if *updateGolden {
				continue
			}
			if w, ok := want[key]; !ok {
				t.Errorf("%s: no golden row (add it with -update-golden and check the diff adds nothing else)", key)
			} else if w != first {
				t.Errorf("%s:\n  got:  %s\n  want: %s", key, first, w)
			}
		}
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenInputsPath, []byte(inputs.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if b, err := os.ReadFile(goldenInputsPath); err != nil || string(b) != inputs.String() {
		t.Errorf("%s is not the corpus's inputs (%v): rewrite it with -update-golden", goldenInputsPath, err)
	}
	for key := range want {
		if !seen[key] {
			t.Errorf("golden row %q has no corpus entry", key)
		}
	}
}
