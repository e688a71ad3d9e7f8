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
// the front end accepts, as a clientConn, and its client. With raw set it
// is accepted as Serve accepts a TCP listener's connections (a
// *handoff.Socket), and by net's Accept (a *net.TCPConn) otherwise.
func acceptedPair(t *testing.T, raw bool) (*clientConn, *net.TCPConn) {
	t.Helper()
	var c net.Conn
	var client *net.TCPConn
	if raw {
		c, client = acceptRaw(t, listenRawTCP(t, "tcp", "127.0.0.1:0"))
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		if client, err = net.DialTCP("tcp", nil, ln.Addr().(*net.TCPAddr)); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { client.Close() })
		if c, err = ln.Accept(); err != nil {
			t.Fatal(err)
		}
	}
	cc := newClientConn(c)
	t.Cleanup(cc.close)
	return cc, client
}

// partHead sends part of a head, as a segment of its own.
func partHead(c *net.TCPConn) {
	io.WriteString(c, "GET /x HTTP/1.1\r\nHo")
	time.Sleep(20 * time.Millisecond)
}

// headEnds are the ways a head read can end other than with a head, each
// as its client brings it about, and the class headEndClass gives it.
var headEnds = []struct {
	name   string
	client func(c *net.TCPConn)
	class  string
}{
	{"idle past the head timeout", func(*net.TCPConn) {}, "deadline"},
	{"clean close", func(c *net.TCPConn) { c.CloseWrite() }, "eof"},
	{"close mid-head", func(c *net.TCPConn) { partHead(c); c.CloseWrite() }, "truncated"},
	{"reset mid-head", func(c *net.TCPConn) { partHead(c); c.SetLinger(0); c.Close() }, "truncated"},
	{"idle mid-head past the head timeout", partHead, "truncated"},
	{"malformed head", func(c *net.TCPConn) {
		io.WriteString(c, "POST /x HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n\r\n")
	}, "malformed"},
}

// headEndClass is how headReadFailed classifies err: "eof" and "deadline"
// end silently, "truncated" counts an error answered nothing, "malformed"
// one answered 400, and anything else is an error answered nothing.
func headEndClass(err error) string {
	var malformed *httprelay.MalformedError
	var truncated *httprelay.TruncatedError
	switch {
	case errors.As(err, &truncated):
		return "truncated"
	case err == io.EOF:
		return "eof"
	case errors.Is(err, os.ErrDeadlineExceeded):
		return "deadline"
	case errors.As(err, &malformed):
		return "malformed"
	}
	return "error"
}

// TestRawHeadReadsClassifyAsTheRelay: the relay loop reads a client's
// heads through its connection, and every way a head read can end is
// classified alike, through a net.TCPConn and through a handoff.Socket's
// raw calls: an idle client and a clean close are the connection's end, a
// head cut short by a close, a reset or the head timeout is truncated, and
// a malformed head is malformed. Then, end to end: the first two end
// silently; a head cut short counts one error and is answered nothing (a
// client that closed mid-head reads no 400); a malformed head counts one
// and is answered 400.
func TestRawHeadReadsClassifyAsTheRelay(t *testing.T) {
	readers := []struct {
		name string
		raw  bool // accepted as a handoff.Socket
	}{
		{"a net.TCPConn", false},
		{"a handoff.Socket", true},
	}
	for _, end := range headEnds {
		for _, rd := range readers {
			cc, client := acceptedPair(t, rd.raw)
			if _, ok := cc.Conn.(*handoff.Socket); ok != rd.raw {
				t.Fatalf("%s: the client's connection is a %T", rd.name, cc.Conn)
			}
			end.client(client)
			cc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			br := httprelay.GetReader(cc.Conn)
			_, err := httprelay.ReadRequestHead(br, maxHeadBytes)
			httprelay.PutReader(br)
			if got := headEndClass(err); got != end.class {
				t.Fatalf("%s, %s: the read ends %s (%v), want %s", end.name, rd.name, got, err, end.class)
			}
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
		{1, "", "unexpected EOF"},
		{1, "", "connection reset by peer"},
		{1, "", "i/o timeout"},
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

// TestRawHeadReadAllocatesNothing: the relay loop's reads of a client's
// socket, a net.TCPConn's or a handoff.Socket's, which fill the window a
// head is parsed from, allocate nothing, and neither does a
// handoff.Socket's first read. (The parse allocates once of its own, on
// either reader: httprelay.read_request_head_allocs.)
func TestRawHeadReadAllocatesNothing(t *testing.T) {
	req := []byte("GET /rice/doc000001.html HTTP/1.1\r\nHost: t\r\n\r\n")
	buf := make([]byte, 4096)
	for _, raw := range []bool{false, true} {
		cc, client := acceptedPair(t, raw)
		r := cc.Conn
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
			t.Fatalf("a head's raw reads of a %T allocate %v times, want 0", cc.Conn, allocs)
		}
	}

	const runs = 20
	ln := listenRawTCP(t, "tcp", "127.0.0.1:0")
	fresh := make([]*handoff.Socket, runs+1) // AllocsPerRun's warm-up run reads one too
	for i := range fresh {
		s, client := acceptRaw(t, ln)
		client.Write(req)
		waitReadable(t, s)
		fresh[i] = s
	}
	if allocs := testing.AllocsPerRun(runs, func() {
		if _, err := fresh[0].Read(buf); err != nil {
			t.Fatal(err)
		}
		fresh = fresh[1:]
	}); allocs != 0 {
		t.Fatalf("a handoff.Socket's first read allocates %v times, want 0", allocs)
	}
}
