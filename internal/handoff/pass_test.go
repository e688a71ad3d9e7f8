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

// socket is the front end's copy of the connection as Pass and Split take
// it.
func (c *passedClient) socket(t *testing.T) syscall.RawConn {
	t.Helper()
	rc, err := c.fe.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	return rc
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

// passTransport is a front end's end of a pass transport: its framing
// writer and its reader.
type passTransport struct {
	c  net.Conn
	sw *SessionWriter
	br *bufio.Reader
}

func dialPassTransport(t *testing.T, addr string) *passTransport {
	t.Helper()
	c, err := DialPass(addr)
	if err != nil {
		t.Fatalf("no pass address for %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return &passTransport{c: c, sw: NewTransportWriter(c), br: bufio.NewReader(c)}
}

// done reads the next done record.
func (p *passTransport) done(t *testing.T) Done {
	t.Helper()
	p.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	d, ok, err := ReadDone(p.br)
	if err != nil || !ok {
		t.Fatalf("a done record: ok %t, %v", ok, err)
	}
	return d
}

// TestPassRoundTrip: a front end passes a client's connection, with the
// head it read and a request pipelined behind it, over a real Listener's
// pass address. The server answers both from the initial data and a third
// from the socket, sees the client's own address, and once the client has
// gone the done record counts every byte and response the client read. A
// second connection then goes over the same transport.
func TestPassRoundTrip(t *testing.T) {
	addr, ln := startBackend(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "%s from %s", r.URL.Path, r.RemoteAddr)
	}))
	tr := dialPassTransport(t, addr)

	for round := 1; round <= 2; round++ {
		c := newPassedClient(t)
		io.WriteString(c.conn, "GET /a HTTP/1.1\r\nHost: t\r\n\r\nGET /b HTTP/1.1\r\nHost: t\r\n\r\n")
		initial := c.readAhead(t, 2)
		if err := tr.sw.Pass(c.socket(t), c.fe.RemoteAddr().String(), initial, time.Minute); err != nil {
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
		// net/http is no server that reports its responses (Answered), so
		// the record counts bytes only.
		if d := tr.done(t); d.Written != c.in.n || d.Open {
			t.Fatalf("round %d: done record %+v, the client read %d bytes", round, d, c.in.n)
		}
		if ln.Passed() != uint64(round) || ln.Sessions() != uint64(round) || ln.Rejected() != 0 {
			t.Fatalf("round %d: passed %d, sessions %d, rejected %d", round, ln.Passed(), ln.Sessions(), ln.Rejected())
		}
	}

	// The transport now waits for its next header; Listener.Close ends it.
	ln.Close()
	if _, _, err := ReadDone(tr.br); err == nil {
		t.Fatal("a done record from a closed Listener")
	}
}

// TestPassedConnEndsWithListener: Listener.Close ends a connection it was
// passed, and the front end's transport with it.
func TestPassedConnEndsWithListener(t *testing.T) {
	addr, ln := startBackend(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	tr := dialPassTransport(t, addr)
	c := newPassedClient(t)
	io.WriteString(c.conn, "GET /a HTTP/1.1\r\nHost: t\r\n\r\n")
	if err := tr.sw.Pass(c.socket(t), "", c.readAhead(t, 1), time.Minute); err != nil {
		t.Fatal(err)
	}
	c.fe.Close()
	c.response(t)
	ln.Close()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.br.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the client after Listener.Close: %v, want its connection ended", err)
	}
	if _, _, err := ReadDone(tr.br); err == nil {
		t.Fatal("a done record from a closed Listener")
	}
}

// TestPassChannelRejections: a pass transport is refused at its first
// message unless it comes from the Listener's own user and carries exactly
// a pipe's read end and another's write end (setup rows). Behind a good
// first message, a header is refused unless the socket message before its
// bytes is exactly one, tagged with the header's offset, carrying the one
// descriptor its flags call for, a TCP socket, and a pass unless it is one
// well-formed header and idle bound with nothing behind it (header rows).
// Each is counted once in Rejected, the transport is closed, and every
// descriptor that went to the Listener is closed with it: the process has
// as many open as before. A client whose socket went with a
// refused header sees its connection end with no byte of an answer: the
// front end closed its copy when the message went.
func TestPassChannelRejections(t *testing.T) {
	const passFlags = FlagPass | FlagSessionFramed
	header := appendHeader(nil, passFlags, "192.0.2.1:4000", []byte("GET / HTTP/1.1\r\n\r\n"))
	good := binary.BigEndian.AppendUint64(append([]byte(nil), header...), uint64(time.Minute))
	split := appendHeader(nil, FlagSplit|FlagSessionFramed, "192.0.2.1:4000", []byte("GET / HTTP/1.1\r\n\r\n"))
	for _, tc := range []struct {
		name     string
		stranger bool   // the listener expects another user
		pipes    string // the first message's descriptors: r, w a pipe's read or write end, s a socket
		msg      []byte // the stream
		sock     string // the socket message before it: c the client's socket, p a pipe's write end; none if empty
		tag      int64  // that message's tag
	}{
		// Setup rows.
		{name: "another user's channel", stranger: true, pipes: "rw"},
		{name: "no pipes"},
		{name: "one pipe end", pipes: "r"},
		{name: "a non-FIFO", pipes: "rs"},
		{name: "a pipe end of the wrong direction", pipes: "rr"},
		// Header rows.
		{name: "no descriptor", pipes: "rw", msg: good},
		{name: "two descriptors", pipes: "rw", msg: good, sock: "cp"},
		// What a back end out of descriptors does too: the kernel drops
		// what it cannot install and sets MSG_CTRUNC.
		{name: "descriptors truncated", pipes: "rw", msg: good, sock: "cpp"},
		{name: "a descriptor tagged with another offset", pipes: "rw", msg: good, sock: "c", tag: 1},
		{name: "message truncated", pipes: "rw", msg: appendHeader(nil, passFlags, "", make([]byte, MaxPassData+1024)), sock: "c"},
		{name: "no header", pipes: "rw", msg: []byte("GARBAGE, NOT A HEADER"), sock: "c"},
		{name: "no idle bound", pipes: "rw", msg: header, sock: "c"},
		{name: "a zero idle bound", pipes: "rw", msg: append(append([]byte(nil), header...), make([]byte, idleLen)...), sock: "c"},
		{name: "bytes behind the idle bound", pipes: "rw", msg: append(append([]byte(nil), good...), "x"...), sock: "c"},
		{name: "no socket", pipes: "rw", msg: good, sock: "p"},
		{name: "a split header without a descriptor", pipes: "rw", msg: split},
		{name: "a split header with two descriptors", pipes: "rw", msg: split, sock: "cp"},
		{name: "a split header with a pipe", pipes: "rw", msg: split, sock: "p"},
		{name: "a descriptor on a plain header", pipes: "rw", msg: appendHeader(nil, FlagSessionFramed, "192.0.2.1:4000", nil), sock: "c"},
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
			var c *passedClient
			if strings.Contains(tc.sock, "c") {
				c = newPassedClient(t)
				io.WriteString(c.conn, "GET / HTTP/1.1\r\nHost: t\r\n\r\n")
				c.readAhead(t, 1)
			}
			before := openFDs(t)

			// What the test keeps and what it sends, each closed once
			// sent: what is left open of the latter is the listener's.
			var kept, sent []*os.File
			defer func() {
				for _, f := range kept {
					f.Close()
				}
			}()
			pipe := func() (r, w *os.File) {
				r, w, err := os.Pipe()
				if err != nil {
					t.Fatal(err)
				}
				return r, w
			}
			ch, err := net.DialUnix("unix", nil, &net.UnixAddr{Name: passPrefix + ln.Addr().String(), Net: "unix"})
			if err != nil {
				t.Fatal(err)
			}
			defer ch.Close()
			var req *os.File // the stream's write end, where the first message carried its read end
			for _, p := range tc.pipes {
				switch p {
				case 'r':
					r, w := pipe()
					kept, sent = append(kept, w), append(sent, r)
					req = w
				case 'w':
					r, w := pipe()
					kept, sent = append(kept, r), append(sent, w)
				case 's':
					f, err := ch.File()
					if err != nil {
						t.Fatal(err)
					}
					sent = append(sent, f)
				}
			}
			sendMsg := func(tag int64, files []*os.File) {
				var oob []byte
				if len(files) > 0 {
					fds := make([]int, len(files))
					for i, f := range files {
						fds[i] = int(f.Fd())
					}
					oob = syscall.UnixRights(fds...)
				}
				// The stranger's may find the socket closed.
				if _, _, err := ch.WriteMsgUnix(binary.BigEndian.AppendUint64(nil, uint64(tag)), oob, nil); err != nil && !tc.stranger {
					t.Fatal(err)
				}
				for _, f := range files {
					f.Close()
				}
			}
			sendMsg(0, sent)
			if tc.sock != "" {
				var files []*os.File
				for _, d := range tc.sock {
					if d == 'c' {
						f, err := c.fe.File()
						if err != nil {
							t.Fatal(err)
						}
						c.fe.Close() // the front end's copy: the client's connection is in the message
						files = append(files, f)
					} else {
						r, w := pipe()
						kept, files = append(kept, r), append(files, w)
					}
				}
				sendMsg(tc.tag, files)
			}
			if req != nil {
				// All there is: a read for more ends. The listener may
				// have refused the transport before the last of it.
				req.Write(tc.msg)
				req.Close()
			}

			ch.SetReadDeadline(time.Now().Add(5 * time.Second))
			// EOF, or a reset where a message was never read.
			if _, err := ch.Read(make([]byte, 64)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("the transport after a refusal: %v, want it closed", err)
			}
			if got := ln.Rejected(); got != 1 {
				t.Fatalf("Rejected() = %d, want 1", got)
			}
			if ln.Passed() != 0 || ln.Sessions() != 0 {
				t.Fatalf("passed %d, sessions %d after a refusal", ln.Passed(), ln.Sessions())
			}
			for _, f := range kept {
				f.Close()
			}
			kept = nil
			ch.Close()
			deadline := time.Now().Add(5 * time.Second)
			for openFDs(t) > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if after := openFDs(t); after > before {
				t.Fatalf("%d descriptors open before, %d after", before, after)
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

// TestPassedConnIdleBound: a passed connection's IdleTimeout is the bound its
// message carried, not the Listener's SessionIdleTimeout; Pass sends no
// bound that is not positive.
func TestPassedConnIdleBound(t *testing.T) {
	ln, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tr := dialPassTransport(t, ln.Addr().String())
	c := newPassedClient(t)
	if err := tr.sw.Pass(c.socket(t), "", nil, 0); err == nil {
		t.Fatal("Pass sent a zero idle bound")
	}
	if err := tr.sw.Pass(c.socket(t), "", nil, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	c.fe.Close()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if got := conn.(interface{ IdleTimeout() time.Duration }).IdleTimeout(); got != 3*time.Second {
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

// directServer serves every conn a Listener yields the way a server that
// answers split sessions directly does: it says so (Direct), answers each
// request head with "<path> from <RemoteAddr>" and reports each answer
// (Answered), and keeps the transport for its next session (NextSession).
func directServer(ln *Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer conn.Close()
			d := conn.(interface {
				Direct()
				Answered(bool) error
			})
			d.Direct()
			br := bufio.NewReader(conn)
			for {
				r, err := http.ReadRequest(br)
				if err == io.EOF {
					if conn.(interface{ NextSession() error }).NextSession() != nil {
						return
					}
					br.Reset(conn)
					continue
				}
				if err != nil {
					return
				}
				body := r.URL.Path + " from " + conn.RemoteAddr().String()
				fmt.Fprintf(conn, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
				if d.Answered(true) != nil {
					return
				}
			}
		}()
	}
}

// openFDs counts this process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestSplitSessionAnswersDirectly: over one pass transport, two clients'
// split sessions in turn, one with a request that rides in a data frame
// behind the first. A server that answers directly writes every response
// to its client's own socket, and the front end's side of the transport
// sees only done records, each counting the bytes its client read. The
// back end's copy of a socket goes at its session's end-of-session record,
// so once the transport and the clients are closed no descriptor is left.
func TestSplitSessionAnswersDirectly(t *testing.T) {
	before := openFDs(t)
	ln, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go directServer(ln)
	tr := dialPassTransport(t, ln.Addr().String())

	var clients []*passedClient
	for round, paths := range [][]string{{"/a", "/b"}, {"/c"}} {
		c := newPassedClient(t)
		clients = append(clients, c)
		for i, path := range paths {
			head := []byte("GET " + path + " HTTP/1.1\r\nHost: t\r\n\r\n")
			var err error
			if i == 0 {
				err = tr.sw.Split(c.socket(t), "192.0.2.1:4000", head, FlagRehandoff)
			} else {
				_, err = tr.sw.Write(head)
			}
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
			read := c.in.n
			if got, want := c.response(t), path+" from 192.0.2.1:4000"; got != want {
				t.Fatalf("round %d: %q, want %q", round, got, want)
			}
			if d := tr.done(t); d != (Done{Written: c.in.n - read, Responses: 1, Open: true}) {
				t.Fatalf("round %d: done record %+v for the %d bytes the client read", round, d, c.in.n-read)
			}
		}
	}
	if ln.Direct() != 3 || ln.Sessions() != 2 || ln.Rejected() != 0 {
		t.Fatalf("direct %d, sessions %d, rejected %d; want 3, 2, 0", ln.Direct(), ln.Sessions(), ln.Rejected())
	}
	if err := tr.sw.End(); err != nil {
		t.Fatal(err)
	}
	// Every copy of the first client's socket but the test's own is gone:
	// the front end's, here, and the back end's, at the first session's end.
	clients[0].fe.Close()
	clients[0].conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := clients[0].br.ReadByte(); err != io.EOF {
		t.Fatalf("the first client after its session ended: %v, want EOF", err)
	}
	tr.c.Close()
	ln.Close()
	for _, c := range clients {
		c.conn.Close()
		c.fe.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for openFDs(t) > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := openFDs(t); after > before {
		t.Fatalf("%d descriptors open before, %d after", before, after)
	}
}

// TestSplitSessionRelaysAServerThatDoesNotAsk: a server that never asks to
// answer directly, net/http's own, writes to the transport as on any
// session, and the front end relays: no done record, nothing on the
// client's socket.
func TestSplitSessionRelaysAServerThatDoesNotAsk(t *testing.T) {
	addr, ln := startBackend(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, r.URL.Path)
	}))
	tr := dialPassTransport(t, addr)
	c := newPassedClient(t)
	if err := tr.sw.Split(c.socket(t), "192.0.2.1:4000", []byte("GET /a HTTP/1.1\r\nHost: t\r\n\r\n"), FlagRehandoff); err != nil {
		t.Fatal(err)
	}
	tr.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, ok, err := ReadDone(tr.br); ok || err != nil {
		t.Fatalf("a done record from a server that writes its own responses: %t, %v", ok, err)
	}
	resp, err := http.ReadResponse(tr.br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if body, _ := io.ReadAll(resp.Body); string(body) != "/a" {
		t.Fatalf("relayed body %q", body)
	}
	if ln.Direct() != 0 {
		t.Fatalf("Direct() = %d for a relayed response", ln.Direct())
	}
	c.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, err := c.conn.Read(make([]byte, 1)); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the client read %d bytes, %v; want nothing", n, err)
	}
}

// TestSplitSessionWriteDeadline: a split session's write deadline goes
// where its writes go. A server that answers directly sets one and writes
// 64 MB to a client that never reads: once the client's socket is full the
// write fails with a timeout, not blocks.
func TestSplitSessionWriteDeadline(t *testing.T) {
	ln, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	wrote := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			wrote <- err
			return
		}
		defer conn.Close()
		conn.(interface{ Direct() }).Direct()
		conn.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
		_, err = conn.Write(make([]byte, 64<<20))
		wrote <- err
	}()
	tr := dialPassTransport(t, ln.Addr().String())
	c := newPassedClient(t)
	if err := tr.sw.Split(c.socket(t), "192.0.2.1:4000", []byte("GET /a HTTP/1.1\r\nHost: t\r\n\r\n"), FlagRehandoff); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-wrote:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("the write to a client that never reads: %v, want a timeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the write to a client that never reads still blocks 2s after its deadline was set")
	}
}

// TestListenerCloseEndsClientCopiesFirst: Listener.Close closes the split
// sessions' copies of their clients' sockets before their transports, so
// a server still about to answer when its front end sees the transport end
// can no longer reach the client: what the front end then reads off the
// socket's count is final.
func TestListenerCloseEndsClientCopiesFirst(t *testing.T) {
	ln, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got, release, wrote := make(chan struct{}), make(chan struct{}), make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		conn.(interface{ Direct() }).Direct()
		if _, err := http.ReadRequest(bufio.NewReader(conn)); err != nil {
			return
		}
		close(got)
		<-release
		_, err = io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
		wrote <- err
	}()
	tr := dialPassTransport(t, ln.Addr().String())
	c := newPassedClient(t)
	if err := tr.sw.Split(c.socket(t), "192.0.2.1:4000", []byte("GET /a HTTP/1.1\r\nHost: t\r\n\r\n"), FlagRehandoff); err != nil {
		t.Fatal(err)
	}
	<-got
	ln.Close()
	tr.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := ReadDone(tr.br); err == nil {
		t.Fatal("a done record from a closed Listener")
	}
	close(release)
	if err := <-wrote; err == nil {
		t.Fatal("the server answered the client after its Listener closed")
	}
	c.conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if n, err := c.conn.Read(make([]byte, 1)); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the client read %d bytes, %v; want nothing", n, err)
	}
}

// TestNextSessionAfterListenerClose: a kept loop that reads its next split
// header only after Listener.Close has closed every socket copy it knew of
// (the header already buffered, so that the read does not see the
// transport close) does not start that session. The socket the header
// brought is closed, the server's answer fails without reaching the client
// or the transport, and once the front end closes its copy the client sees
// its connection end with nothing sent.
func TestNextSessionAfterListenerClose(t *testing.T) {
	ln, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr, raw := transportPair(t)
	defer tr.close()
	defer raw.Close()
	c := newPassedClient(t)
	f, err := c.fe.File()
	if err != nil {
		t.Fatal(err)
	}
	err = tr.message(0, int(f.Fd()))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.req.Write(appendHeader(nil, FlagSplit|FlagSessionFramed, "192.0.2.1:4000", []byte("GET /a HTTP/1.1\r\nHost: t\r\n\r\n"))); err != nil {
		t.Fatal(err)
	}

	// A loop at its session's end-of-session record, as serveSession is
	// when it calls NextSession.
	sc := newSessionConn(ln, raw, bufio.NewReader(raw), make(chan struct{}, 1))
	sc.sawEnd = true
	sc.Direct()
	ln.Close()
	if err := sc.NextSession(); err == nil {
		t.Fatal("NextSession started a split session on a closed Listener")
	}
	if _, err := io.WriteString(sc, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"); err == nil {
		t.Fatal("the server's answer was written")
	}
	sc.Close()
	raw.Close()
	if n, _ := tr.ans.Read(make([]byte, 64)); n != 0 {
		t.Fatalf("%d bytes reached the transport", n)
	}
	c.fe.Close()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := c.conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("the client read %d bytes, %v; want its connection ended unanswered", n, err)
	}
	if ln.Sessions() != 0 {
		t.Fatalf("Sessions() = %d, want 0", ln.Sessions())
	}
}

// TestFrontEndTransportRefusesDescriptors: the front end never reads its
// end of a pass transport's socket, so a descriptor a back end sends there
// is never received, and the transport's stream goes on past it. The
// descriptor closes with the transport.
func TestFrontEndTransportRefusesDescriptors(t *testing.T) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fds[1])
	ansR, ansW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer ansW.Close()
	reqR, reqW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer reqR.Close()
	fe := newPassConn(os.NewFile(uintptr(fds[0]), "front"), nil, nil, ansR, reqW)
	defer fe.Close()

	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := syscall.Sendmsg(fds[1], make([]byte, tagLen), syscall.UnixRights(int(w.Fd())), nil, 0); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := ansW.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	fe.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := fe.Read(make([]byte, 16)); n != 1 || err != nil {
		t.Fatalf("Read = %d, %v; want the stream's one byte", n, err)
	}
	if got := pipeFDs(t, r); got != 1 {
		t.Fatalf("%d descriptors of the stray's pipe open, want 1, its read end: the stray received", got)
	}
	fe.Close()
	r.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := r.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("the stray descriptor after the transport closed: %v, want it closed", err)
	}
}

// pipeFDs counts this process's open descriptors of f's pipe, either end,
// among /proc/self/fd's links.
func pipeFDs(t *testing.T, f *os.File) int {
	t.Helper()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("pipe:[%d]", st.Sys().(*syscall.Stat_t).Ino)
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range ents {
		if link, _ := os.Readlink("/proc/self/fd/" + e.Name()); link == want {
			n++
		}
	}
	return n
}

// edgeCounter counts the EPOLLOUT edges a private epoll sees on the
// descriptors it watches, as the runtime's own poller registers them
// (EPOLLOUT|EPOLLET): each a wake-up of a writer with nothing to wait for.
type edgeCounter struct {
	epfd  int
	names map[int32]string
	count map[string]int
}

func newEdgeCounter(t *testing.T) *edgeCounter {
	t.Helper()
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(epfd) })
	return &edgeCounter{epfd: epfd, names: map[int32]string{}, count: map[string]int{}}
}

// watch registers c's descriptor under name, and takes the edge the
// registration itself reports for a descriptor already writable.
func (e *edgeCounter) watch(t *testing.T, name string, c syscall.Conn) {
	t.Helper()
	rc, err := c.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var cerr error
	rc.Control(func(fd uintptr) {
		e.names[int32(fd)] = name
		cerr = syscall.EpollCtl(e.epfd, syscall.EPOLL_CTL_ADD, int(fd), &syscall.EpollEvent{Events: syscall.EPOLLOUT | -syscall.EPOLLET, Fd: int32(fd)})
	})
	if cerr != nil {
		t.Fatal(cerr)
	}
	e.take(t)
	e.count[name] = 0
}

// take counts the edges since the last take: at most one a descriptor,
// since an edge-triggered epoll reports each once however often it fired.
func (e *edgeCounter) take(t *testing.T) {
	t.Helper()
	events := make([]syscall.EpollEvent, 8)
	n, err := syscall.EpollWait(e.epfd, events, 0)
	if err != nil && err != syscall.EINTR {
		t.Fatal(err)
	}
	for _, ev := range events[:max(n, 0)] {
		if ev.Events&syscall.EPOLLOUT != 0 {
			e.count[e.names[ev.Fd]]++
		}
	}
}

// TestPassTransportWakesNoWriter: a split session of 100 requests, each
// one data frame to the back end and one done record back, wakes no
// writer of either pipe: a pipe wakes its writer only when it was full.
// The front end's socket, read by the back end once, for the session's
// header, sees at most one edge (and its own poller does not watch it); a
// unix stream carrying the frames and records would wake each writer at
// every read. The edges are taken after
// every exchange, so each counts the exchanges that saw one.
func TestPassTransportWakesNoWriter(t *testing.T) {
	ln, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go directServer(ln)
	tr := dialPassTransport(t, ln.Addr().String())
	fe := tr.c.(*passConn)
	c := newPassedClient(t)

	edges := newEdgeCounter(t)
	edges.watch(t, "the front end's request pipe", fe.out)
	edges.watch(t, "the front end's socket", fe.sock)
	for i := 0; i < 100; i++ {
		head := []byte(fmt.Sprintf("GET /%d HTTP/1.1\r\nHost: t\r\n\r\n", i))
		if i == 0 {
			err = tr.sw.Split(c.socket(t), "192.0.2.1:4000", head, FlagRehandoff)
		} else {
			_, err = tr.sw.Write(head)
		}
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if got, want := c.response(t), fmt.Sprintf("/%d from 192.0.2.1:4000", i); got != want {
			t.Fatalf("request %d: %q, want %q", i, got, want)
		}
		if d := tr.done(t); d.Responses != 1 || !d.Open {
			t.Fatalf("request %d: done record %+v", i, d)
		}
		edges.take(t)
		if i == 0 {
			ln.transMu.Lock()
			for raw := range ln.transports {
				if be, ok := raw.(*passConn); ok {
					edges.watch(t, "the back end's answer pipe", be.out)
				}
			}
			ln.transMu.Unlock()
		}
	}
	want := map[string]int{"the front end's request pipe": 0, "the back end's answer pipe": 0, "the front end's socket": 1}
	for name, most := range want {
		got, ok := edges.count[name]
		if !ok {
			t.Fatalf("%s never watched", name)
		}
		if got > most {
			t.Errorf("%s: EPOLLOUT edges in %d exchanges of 100, want at most %d", name, got, most)
		}
	}
}
