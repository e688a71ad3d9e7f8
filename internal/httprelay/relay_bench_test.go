package httprelay

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"syscall"
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

	// A 512 KB response between real loopback sockets, relayed as
	// handleConn relays it, the body's tail spliced, under each write shape
	// of the back end's: 32 KB writes, and the whole response in one.
	long := []byte(fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", 512<<10, strings.Repeat("x", 512<<10)))
	for _, up := range []struct {
		name  string
		write int
	}{{"upstream-32k", 32 << 10}, {"upstream-1m", 1 << 20}} {
		b.Run("content-length-512k/"+up.name, func(b *testing.B) { benchRelayTCP(b, long, up.write) })
	}
}

// benchRelayTCP relays msg b.N times from one loopback TCP conn to another
// with RelayResponseFrom, msg arriving in writes of upstream bytes. ns/KB is
// the CPU the relay's thread spent per KB relayed, user and system: the
// front end's per-byte cost b, TCP paths and splice included, and not the
// two peers'. It needs Linux's RUSAGE_THREAD.
func benchRelayTCP(b *testing.B, msg []byte, upstream int) {
	back, relayIn := tcpPair(b) // the back end writes back; the relay reads relayIn
	relayOut, client := tcpPair(b)
	go func() {
		for i := 0; i < b.N; i++ {
			for p := msg; len(p) > 0; p = p[min(upstream, len(p)):] {
				if _, err := back.Write(p[:min(upstream, len(p))]); err != nil {
					return
				}
			}
		}
	}()
	drained := make(chan int64, 1)
	go func() {
		buf, n := make([]byte, 256<<10), int64(0)
		for want := int64(b.N) * int64(len(msg)); n < want; {
			m, err := client.Read(buf)
			if n += int64(m); err != nil {
				break
			}
		}
		drained <- n
	}()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0, ok := threadCPU()
	if !ok {
		b.Skip("no per-thread CPU clock here")
	}
	br := bufio.NewReaderSize(relayIn, ReaderSize)
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RelayResponseFrom(relayOut, br, relayIn, "GET", 64<<10, nil); err != nil {
			b.Fatal(err)
		}
	}
	cpu1, _ := threadCPU()
	if n := <-drained; n != int64(b.N)*int64(len(msg)) {
		b.Fatalf("the client got %d bytes, want %d", n, int64(b.N)*int64(len(msg)))
	}
	b.StopTimer()
	b.ReportMetric(float64(cpu1-cpu0)/float64(b.N)/float64(len(msg)>>10), "ns/KB")
}

// tcpPair is the two ends of a loopback TCP connection.
func tcpPair(tb testing.TB) (dialed, accepted *net.TCPConn) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	defer ln.Close()
	d, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	a, err := ln.Accept()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { d.Close(); a.Close() })
	return d.(*net.TCPConn), a.(*net.TCPConn)
}

// threadCPU is the calling thread's CPU time, user and system, in ns.
func threadCPU() (int64, bool) {
	const rusageThread = 1 // Linux's RUSAGE_THREAD
	var ru syscall.Rusage
	if syscall.Getrusage(rusageThread, &ru) != nil {
		return 0, false
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), true
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
