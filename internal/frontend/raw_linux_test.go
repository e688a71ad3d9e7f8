package frontend

import (
	"bytes"
	"errors"
	"io"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"lard/internal/handoff"
	"lard/internal/httprelay"
)

// lockedBuffer is a log destination the front end's goroutines may share.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// acceptedPair returns both ends of a loopback TCP connection: the one
// the front end accepts, as a clientConn, and its client.
func acceptedPair(t *testing.T) (*clientConn, *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.DialTCP("tcp", nil, ln.Addr().(*net.TCPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	cc := &clientConn{Conn: c, tc: c.(*net.TCPConn)}
	t.Cleanup(cc.close)
	return cc, client
}

// resetMidHead sends part of a head and then resets the connection.
func resetMidHead(c *net.TCPConn) {
	io.WriteString(c, "GET /x HTTP/1.1\r\nHo")
	time.Sleep(20 * time.Millisecond) // the part first, as a segment of its own
	c.SetLinger(0)
	c.Close()
}

// headEnds are the ways a head read can end other than with a head, each
// as its client brings it about.
var headEnds = []struct {
	name   string
	client func(c *net.TCPConn)
}{
	{"idle past the head timeout", func(*net.TCPConn) {}},
	{"clean close", func(c *net.TCPConn) { c.CloseWrite() }},
	{"reset mid-head", resetMidHead},
	{"malformed head", func(c *net.TCPConn) {
		io.WriteString(c, "POST /x HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n\r\n")
	}},
}

// headEndClass is how headReadFailed classifies err: "eof" and "deadline"
// end silently, "malformed" is answered 400, and anything else is an
// error answered nothing.
func headEndClass(err error) string {
	var malformed *httprelay.MalformedError
	switch {
	case err == io.EOF:
		return "eof"
	case errors.Is(err, os.ErrDeadlineExceeded):
		return "deadline"
	case errors.As(err, &malformed):
		return "malformed"
	}
	return "error"
}

// TestRawHeadReadsClassifyAsTheRelay: a TCP client's heads are read with
// raw calls, and every way a head read can end is classified as it was
// when the loop read the connection itself. Then, end to end: an idle
// client past the head timeout and a clean close end silently; a reset
// part way through a head counts one error, and its client, gone, reads
// nothing; a malformed head counts one and is answered 400.
func TestRawHeadReadsClassifyAsTheRelay(t *testing.T) {
	for _, end := range headEnds {
		var classes [2]string
		for i, raw := range []bool{false, true} {
			cc, client := acceptedPair(t)
			r := io.Reader(cc.Conn)
			if raw {
				r = cc.in.open(cc)
				if _, ok := r.(*handoff.RawIO); !ok {
					t.Fatalf("a TCP client's heads are read through %T, want *handoff.RawIO", r)
				}
			}
			end.client(client)
			cc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			br := httprelay.GetReader(r)
			_, err := httprelay.ReadRequestHead(br, maxHeadBytes)
			httprelay.PutReader(br)
			classes[i] = headEndClass(err)
		}
		if classes[0] != classes[1] {
			t.Fatalf("%s: the raw read ends %s, the connection's own read %s", end.name, classes[1], classes[0])
		}
	}

	addr := startRawBackend(t, func(conn net.Conn) { conn.Close() })
	var logs lockedBuffer
	fe, feAddr := startRelayFrontend(t, []string{addr}, func(c *Config) {
		c.headerTimeout = 150 * time.Millisecond
		c.ErrorLog = log.New(&logs, "", 0)
	})
	raddr, err := net.ResolveTCPAddr("tcp", feAddr)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct {
		errors uint64
		answer string // what the client reads before its connection ends
		logged string // in the one line an error logs
	}{
		{0, "", ""},
		{0, "", ""},
		{1, "", "connection reset by peer"},
		{1, "HTTP/1.1 400 Bad Request", "Content-Length"},
	} {
		name := headEnds[i].name
		before, logsBefore := fe.Stats().Errors, len(logs.String())
		c, err := net.DialTCP("tcp", nil, raddr)
		if err != nil {
			t.Fatal(err)
		}
		headEnds[i].client(c)
		if name != "reset mid-head" {
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			got, err := io.ReadAll(c)
			if err != nil || !strings.HasPrefix(string(got), want.answer) || want.answer == "" && len(got) > 0 {
				t.Fatalf("%s: the client read %q, %v; want %q and the connection's end", name, got, err, want.answer)
			}
			c.Close()
		}
		deadline := time.Now().Add(5 * time.Second)
		for fe.Stats().Errors-before < want.errors && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(20 * time.Millisecond) // room for a second count, which must not come
		if got := fe.Stats().Errors - before; got != want.errors {
			t.Fatalf("%s: %d errors counted, want %d", name, got, want.errors)
		}
		if logged := logs.String()[logsBefore:]; !strings.Contains(logged, want.logged) || want.logged == "" && logged != "" {
			t.Fatalf("%s: logged %q, want a line naming %q", name, logged, want.logged)
		}
	}
}

// TestRawHeadReadAllocatesNothing: the raw reader's reads of a client's
// socket, which fill the window a head is parsed from, allocate nothing.
// (The parse allocates once of its own, on either reader:
// httprelay.read_request_head_allocs.)
func TestRawHeadReadAllocatesNothing(t *testing.T) {
	cc, client := acceptedPair(t)
	r := cc.in.open(cc)
	req := []byte("GET /rice/doc000001.html HTTP/1.1\r\nHost: t\r\n\r\n")
	buf := make([]byte, 4096)
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := client.Write(req); err != nil {
			t.Fatal(err)
		}
		for got := 0; got < len(req); {
			n, err := r.Read(buf)
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
	}); allocs != 0 {
		t.Fatalf("a head's raw reads allocate %v times, want 0", allocs)
	}
}
