//go:build linux

package handoff

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// countingReader counts what it reads: on a client's connection, every
// byte the server wrote to it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// passedClient is one client of a front end played by the test: the
// client's end, and the front end's accepted copy of the same connection.
type passedClient struct {
	conn net.Conn
	in   *countingReader
	br   *bufio.Reader
	fe   *net.TCPConn
}

func newPassedClient(t *testing.T) *passedClient {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fe, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close(); fe.Close() })
	in := &countingReader{r: conn}
	return &passedClient{conn: conn, in: in, br: bufio.NewReader(in), fe: fe.(*net.TCPConn)}
}

// readAhead is the front end's part before a pass: it reads from its copy
// until it holds heads request heads, and returns all it read.
func (c *passedClient) readAhead(t *testing.T, heads int) []byte {
	t.Helper()
	var got []byte
	buf := make([]byte, 4096)
	c.fe.SetReadDeadline(time.Now().Add(5 * time.Second))
	for bytes.Count(got, []byte("\r\n\r\n")) < heads {
		n, err := c.fe.Read(buf)
		if err != nil {
			t.Fatalf("front end's read: %v", err)
		}
		got = append(got, buf[:n]...)
	}
	c.fe.SetReadDeadline(time.Time{})
	return got
}

// response reads one response and returns its body.
func (c *passedClient) response(t *testing.T) string {
	t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		t.Fatalf("reading a response: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, %q, %v", resp.StatusCode, body, err)
	}
	return string(body)
}

// TestPassRoundTrip: a front end passes a client's connection, with the
// head it read and a request pipelined behind it, over a real Listener's
// pass address. The server answers both from the initial data and a third
// from the socket, sees the client's own address, and once the client has
// gone the done record counts every byte the client read. A second
// connection then goes over the same channel.
func TestPassRoundTrip(t *testing.T) {
	addr, ln := startBackend(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "%s from %s", r.URL.Path, r.RemoteAddr)
	}))
	ch, err := DialPass(addr)
	if err != nil {
		t.Fatalf("no pass address for %s: %v", addr, err)
	}
	defer ch.Close()

	for round := 1; round <= 2; round++ {
		c := newPassedClient(t)
		io.WriteString(c.conn, "GET /a HTTP/1.1\r\nHost: t\r\n\r\nGET /b HTTP/1.1\r\nHost: t\r\n\r\n")
		initial := c.readAhead(t, 2)
		if err := ch.Pass(c.fe, c.fe.RemoteAddr().String(), initial, time.Minute); err != nil {
			t.Fatalf("round %d: pass: %v", round, err)
		}
		c.fe.Close() // the front end's copy: the connection is the back end's now

		me := c.conn.LocalAddr().String()
		for _, path := range []string{"/a", "/b"} {
			if got, want := c.response(t), path+" from "+me; got != want {
				t.Fatalf("round %d: %q, want %q", round, got, want)
			}
		}
		io.WriteString(c.conn, "GET /c HTTP/1.1\r\nHost: t\r\n\r\n")
		if got, want := c.response(t), "/c from "+me; got != want {
			t.Fatalf("round %d: from the socket: %q, want %q", round, got, want)
		}
		c.conn.Close()
		written, err := ch.Done()
		if err != nil {
			t.Fatalf("round %d: done record: %v", round, err)
		}
		if written != c.in.n {
			t.Fatalf("round %d: done record says %d bytes written, the client read %d", round, written, c.in.n)
		}
		if ln.Passed() != uint64(round) || ln.Sessions() != uint64(round) || ln.Rejected() != 0 {
			t.Fatalf("round %d: passed %d, sessions %d, rejected %d", round, ln.Passed(), ln.Sessions(), ln.Rejected())
		}
	}

	// The channel now waits for its next pass; Listener.Close ends it.
	ln.Close()
	if _, err := ch.Done(); err == nil {
		t.Fatal("a done record from a closed Listener")
	}
}

// TestPassedConnEndsWithListener: Listener.Close ends a connection it was
// passed, and the front end's channel with it.
func TestPassedConnEndsWithListener(t *testing.T) {
	addr, ln := startBackend(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	ch, err := DialPass(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	c := newPassedClient(t)
	io.WriteString(c.conn, "GET /a HTTP/1.1\r\nHost: t\r\n\r\n")
	if err := ch.Pass(c.fe, "", c.readAhead(t, 1), time.Minute); err != nil {
		t.Fatal(err)
	}
	c.fe.Close()
	c.response(t)
	ln.Close()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.br.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the client after Listener.Close: %v, want its connection ended", err)
	}
	if _, err := ch.Done(); err == nil {
		t.Fatal("a done record from a closed Listener")
	}
}

// TestPassChannelRejections: a channel from another user is refused, and
// so is any message that is not one well-formed header and idle bound with
// one TCP socket attached. Each is counted once in Rejected, every
// descriptor the message carried is closed (the pipes' read ends see EOF),
// and the channel is closed. A client whose socket went in a rejected
// message sees its connection end with no byte of an answer: the front end
// closed its copy when the message went.
func TestPassChannelRejections(t *testing.T) {
	header := appendHeader(nil, 0, "192.0.2.1:4000", []byte("GET / HTTP/1.1\r\n\r\n"))
	good := binary.BigEndian.AppendUint64(append([]byte(nil), header...), uint64(time.Minute))
	for _, tc := range []struct {
		name     string
		msg      []byte
		fds      int  // pipes attached
		client   bool // a client's socket attached ahead of the pipes
		stranger bool // the listener expects another user
	}{
		{name: "another user's channel", msg: good, fds: 1, stranger: true},
		{name: "no descriptor", msg: good},
		{name: "two descriptors", msg: good, fds: 2},
		// What a back end out of descriptors does too: the kernel drops
		// what it cannot install and sets MSG_CTRUNC.
		{name: "descriptors truncated", msg: good, fds: 2, client: true},
		{name: "message truncated", msg: appendHeader(nil, 0, "", make([]byte, MaxPassData+1024)), fds: 1},
		{name: "no header", msg: []byte("GARBAGE, NOT A HEADER"), fds: 1},
		{name: "no idle bound", msg: header, fds: 1},
		{name: "a zero idle bound", msg: append(append([]byte(nil), header...), make([]byte, idleLen)...), fds: 1},
		{name: "bytes behind the idle bound", msg: append(append([]byte(nil), good...), "x"...), fds: 1},
		{name: "no socket", msg: good, fds: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			if tc.stranger {
				ln.passUID = os.Getuid() + 1
			}
			srv := &http.Server{Handler: http.NotFoundHandler()}
			go srv.Serve(ln)
			defer func() { srv.Close(); ln.Close() }()
			ch, err := net.DialUnix("unixpacket", nil, &net.UnixAddr{Name: passPrefix + ln.Addr().String(), Net: "unixpacket"})
			if err != nil {
				t.Fatal(err)
			}
			defer ch.Close()
			var readEnds, writeEnds []*os.File
			var fds []int
			var c *passedClient
			if tc.client {
				c = newPassedClient(t)
				io.WriteString(c.conn, "GET / HTTP/1.1\r\nHost: t\r\n\r\n")
				c.readAhead(t, 1)
				f, err := c.fe.File()
				if err != nil {
					t.Fatal(err)
				}
				c.fe.Close()
				writeEnds, fds = append(writeEnds, f), append(fds, int(f.Fd()))
			}
			for i := 0; i < tc.fds; i++ {
				r, w, err := os.Pipe()
				if err != nil {
					t.Fatal(err)
				}
				defer r.Close()
				readEnds, writeEnds = append(readEnds, r), append(writeEnds, w)
				fds = append(fds, int(w.Fd()))
			}
			var rights []byte
			if len(fds) > 0 {
				rights = syscall.UnixRights(fds...)
			}
			if _, _, err := ch.WriteMsgUnix(tc.msg, rights, nil); err != nil && !tc.stranger {
				t.Fatal(err)
			}
			for _, w := range writeEnds {
				w.Close() // the sender's copies: what is left open is the listener's
			}
			ch.SetReadDeadline(time.Now().Add(5 * time.Second))
			// EOF, or a reset where the message was never read.
			if _, err := ch.Read(make([]byte, 64)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("the channel after a refusal: %v, want it closed", err)
			}
			if got := ln.Rejected(); got != 1 {
				t.Fatalf("Rejected() = %d, want 1", got)
			}
			if ln.Passed() != 0 || ln.Sessions() != 0 {
				t.Fatalf("passed %d, sessions %d after a refusal", ln.Passed(), ln.Sessions())
			}
			for i, r := range readEnds {
				r.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, err := r.Read(make([]byte, 1)); err != io.EOF {
					t.Fatalf("descriptor %d: %v, want every copy closed", i, err)
				}
			}
			if c != nil {
				c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				if n, err := c.conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
					t.Fatalf("the client whose socket was rejected read %d bytes, %v; want its connection closed unanswered", n, err)
				}
			}
		})
	}
}

// TestPassedConnIdleBound: a passed Conn's IdleTimeout is the bound its
// message carried, not the Listener's SessionIdleTimeout; Pass sends no
// bound that is not positive.
func TestPassedConnIdleBound(t *testing.T) {
	ln, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	ch, err := DialPass(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	c := newPassedClient(t)
	if err := ch.Pass(c.fe, "", nil, 0); err == nil {
		t.Fatal("Pass sent a zero idle bound")
	}
	if err := ch.Pass(c.fe, "", nil, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	c.fe.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := conn.(*Conn).IdleTimeout(); got != 3*time.Second {
		t.Fatalf("IdleTimeout() = %v, want the 3s the message carried", got)
	}
}

// TestDialPassNeedsTheExactAddress: a pass address is the TCP address as
// the Listener spells it; another spelling of the same socket has none, and
// a Listener on no TCP address opens none.
func TestDialPassNeedsTheExactAddress(t *testing.T) {
	addr, _ := startBackend(t, http.NotFoundHandler())
	_, port, _ := net.SplitHostPort(addr)
	if _, err := DialPass(net.JoinHostPort("::ffff:127.0.0.1", port)); err == nil {
		t.Fatal("a pass address under another spelling")
	}
	uln, err := net.Listen("unix", "@lard-handoff-test-"+strings.ReplaceAll(t.Name(), "/", "-"))
	if err != nil {
		t.Fatal(err)
	}
	l := NewListener(uln)
	defer l.Close()
	if l.passLn != nil {
		t.Fatal("a pass address for a unix listener")
	}
}
