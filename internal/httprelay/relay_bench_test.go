package httprelay

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
)

// plainWriter strips io.ReaderFrom from its underlying writer, so the
// benchmark exercises the relay's own copy loop the way the front end's
// writeTracker-wrapped client conn does when no kernel path is available.
// It counts the Write calls that reach it: trips to the client socket are
// what a small response costs.
type plainWriter struct {
	w      io.Writer
	writes int
}

func (p *plainWriter) Write(b []byte) (int, error) {
	p.writes++
	return p.w.Write(b)
}

// BenchmarkRelayResponse measures one response relayed through
// RelayResponse — head parse plus body copy — for each body framing the
// relay supports and, for length-delimited bodies, on either side of the
// window: 8k fits it (one Write), 24k is a window plus a remainder (two),
// 64k takes the copy from beneath the reader. The interesting numbers are
// allocs/op — heads are parsed in place and copy buffers pooled, so
// steady-state relaying should not allocate per response — and the Write
// count, which the benchmark fails on.
func BenchmarkRelayResponse(b *testing.B) {
	const bodyLen = 64 << 10
	body := strings.Repeat("x", bodyLen)

	chunked := func() string {
		var sb strings.Builder
		sb.WriteString("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n")
		for off := 0; off < bodyLen; off += 8 << 10 {
			chunk := body[off : off+8<<10]
			fmt.Fprintf(&sb, "%x\r\n%s\r\n", len(chunk), chunk)
		}
		sb.WriteString("0\r\n\r\n")
		return sb.String()
	}()
	lengthMsg := func(n int) string {
		return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: keep-alive\r\n\r\n%s", n, body[:n])
	}

	cases := []struct {
		name   string
		msg    string
		writes int // Write calls the client must see; 0 = not pinned
	}{
		{"content-length", lengthMsg(bodyLen), 0},
		{"content-length-8k", lengthMsg(8 << 10), 1},
		{"content-length-24k", lengthMsg(24 << 10), 2},
		{"chunked", chunked, 0},
		{"close-delimited", "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n" + body, 0},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			msg := []byte(tc.msg)
			r := bytes.NewReader(msg)
			br := bufio.NewReaderSize(r, 16<<10)
			dst := &plainWriter{w: io.Discard}
			b.SetBytes(int64(len(msg)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Reset(msg)
				br.Reset(r)
				dst.writes = 0
				if _, _, err := RelayResponse(dst, br, "GET", 64<<10, nil); err != nil {
					b.Fatal(err)
				}
				if tc.writes != 0 && dst.writes != tc.writes {
					b.Fatalf("client saw %d Write calls, want %d", dst.writes, tc.writes)
				}
			}
		})
	}
}

// BenchmarkRelayRequestBody measures the request-direction body copy
// (client→backend), which on the pooled handoff path feeds the framing
// SessionWriter rather than a raw conn.
func BenchmarkRelayRequestBody(b *testing.B) {
	const bodyLen = 16 << 10
	body := strings.Repeat("y", bodyLen)
	msg := []byte(fmt.Sprintf("PUT /d HTTP/1.1\r\nHost: b\r\nContent-Length: %d\r\n\r\n%s", bodyLen, body))

	r := bytes.NewReader(msg)
	br := bufio.NewReaderSize(r, 16<<10)
	dst := &plainWriter{w: io.Discard}
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(msg)
		br.Reset(r)
		head, err := ReadRequestHead(br, 64<<10)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := RelayRequestBody(dst, br, head); err != nil {
			b.Fatal(err)
		}
	}
}
