package frontend

import (
	"errors"
	"io"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"lard/internal/backend"
	"lard/internal/trace"
)

// acceptRaw dials ln, a rawListener, and returns the connection it
// accepts and its client.
func acceptRaw(t *testing.T, ln net.Listener) (*clientSocket, *net.TCPConn) {
	t.Helper()
	client, err := net.DialTCP("tcp", nil, ln.Addr().(*net.TCPAddr))
	if err != nil {
		t.Fatal(err)
	}
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	s, ok := c.(*clientSocket)
	if !ok {
		t.Fatalf("a raw accept returns a %T, want *clientSocket", c)
	}
	t.Cleanup(func() { client.Close(); s.Close() })
	return s, client
}

// listenRawTCP returns a rawListener on a loopback port.
func listenRawTCP(t *testing.T, network, addr string) net.Listener {
	t.Helper()
	ln, err := net.Listen(network, addr)
	if err != nil {
		t.Skipf("no %s loopback: %v", network, err)
	}
	rl := listenRaw(ln)
	if _, ok := rl.(*rawListener); !ok {
		ln.Close()
		t.Fatalf("a TCP listener is served through %T, want *rawListener", rl)
	}
	t.Cleanup(func() { rl.Close() })
	return rl
}

// waitReadable waits, up to five seconds, until s has bytes to read, with
// a poll(2) of its own: s itself never waits.
func waitReadable(t *testing.T, s *clientSocket) {
	t.Helper()
	var n uintptr
	(*socketRC)(s).Control(func(fd uintptr) {
		p := pollFd{fd: int32(fd), events: pollIn}
		ts := syscall.NsecToTimespec(int64(5 * time.Second))
		n, _, _ = syscall.Syscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&p)), 1, uintptr(unsafe.Pointer(&ts)), 0, 0, 0)
	})
	if n != 1 {
		t.Fatal("the client's bytes never arrived")
	}
}

// TestClientSocketJoinsThePollerOnlyToWait: a connection whose head is
// already there when it is accepted is read, split to its back end, answered
// and closed without its socket ever joining the poller. One whose head
// comes late joins it, waits there under the head timeout, and is served.
// An idle one waits out the head timeout there and is closed silently.
func TestClientSocketJoinsThePollerOnlyToWait(t *testing.T) {
	const size = 3000
	node := startPassNode(t, backend.NewDocStore([]trace.Target{{Name: "/a", Size: size}}))
	const timeout = 300 * time.Millisecond
	fe, err := New(Config{Backends: []string{node.addr}, probeInterval: -1, headerTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fe.Close() })
	ln := listenRawTCP(t, "tcp", "127.0.0.1:0")
	const head = "GET /a HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"

	for i, row := range []struct {
		name   string
		late   time.Duration // how long after the accept the head comes; -1: never
		joined bool
	}{
		{"head there at accept", 0, false},
		{"head comes late", 50 * time.Millisecond, true},
		{"no head", -1, true},
	} {
		s, client := acceptRaw(t, ln)
		if row.late == 0 {
			io.WriteString(client, head)
			waitReadable(t, s)
		}
		done := make(chan struct{})
		start := time.Now()
		go func() {
			fe.handleConn(s)
			close(done)
		}()
		if row.late > 0 {
			time.Sleep(row.late)
			io.WriteString(client, head)
		}
		got := string(readAll(t, client))
		<-done
		took := time.Since(start)
		switch {
		case s.fd != -1:
			t.Fatalf("%s: the socket is still open after its connection", row.name)
		case (s.file != nil) != row.joined:
			t.Fatalf("%s: joined the poller: %t, want %t", row.name, s.file != nil, row.joined)
		case row.late < 0 && (got != "" || took < timeout):
			t.Fatalf("%s: the client read %q after %v, want nothing after the head timeout (%v)", row.name, got, took, timeout)
		case row.late >= 0 && (!strings.HasPrefix(got, "HTTP/1.1 200 OK\r\n") || len(got)-strings.Index(got, "\r\n\r\n")-4 != size):
			t.Fatalf("%s: the client read %q", row.name, got)
		}
		st := fe.Stats()
		if want := uint64(min(i+1, 2)); st.Direct != want || st.Errors != 0 {
			t.Fatalf("%s: %d responses answered directly, %d errors; want %d and 0", row.name, st.Direct, st.Errors, want)
		}
	}
}

// TestClosedClientSocketTouchesNoDescriptor: once a client's socket is
// closed, bare or after it joined the poller, every method fails with
// net.ErrClosed and calls no callback, so that a later connection whose
// socket has the same descriptor number is neither read, written, shut
// down nor handed to a back end through the old one.
func TestClosedClientSocketTouchesNoDescriptor(t *testing.T) {
	const tries = 10
	for _, joined := range []bool{false, true} {
		ln := listenRawTCP(t, "tcp", "127.0.0.1:0")
		clients := map[string]*net.TCPConn{} // by their own address
		old, _ := acceptRaw(t, ln)
		if joined {
			old.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
			if _, err := old.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) || old.file == nil {
				t.Fatalf("an idle read: %v, joined %t; want the deadline, in the poller", err, old.file != nil)
			}
		}
		// The clients are dialed first, so that none of their sockets takes
		// old's number. An accepted socket takes the lowest free number:
		// old's, unless a lower one was freed in between, and those stay
		// taken until it comes.
		for range tries {
			c, err := net.DialTCP("tcp", nil, ln.Addr().(*net.TCPAddr))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			clients[c.LocalAddr().String()] = c
		}
		fd := old.fd
		if err := old.Close(); err != nil {
			t.Fatal(err)
		}
		var next *clientSocket
		for i := 0; i < tries && (next == nil || next.fd != fd); i++ {
			c, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			next = c.(*clientSocket)
		}
		client := clients[next.peer.String()]
		if next.fd != fd || client == nil {
			t.Fatalf("descriptor %d was not reused", fd)
		}

		var called bool
		rc := (*socketRC)(old)
		buf := make([]byte, 8)
		for _, call := range []struct {
			name string
			do   func() error
		}{
			{"Read", func() error { return second(old.Read(buf)) }},
			{"Write", func() error { return second(old.Write([]byte("stolen"))) }},
			{"ReadFrom", func() error { return second(old.ReadFrom(strings.NewReader("stolen"))) }},
			{"RawConn.Control", func() error { return rc.Control(func(uintptr) { called = true }) }},
			{"RawConn.Read", func() error { return rc.Read(func(uintptr) bool { called = true; return true }) }},
			{"RawConn.Write", func() error { return rc.Write(func(uintptr) bool { called = true; return true }) }},
			{"CloseWrite", old.CloseWrite},
			{"SetReadDeadline", func() error { return old.SetReadDeadline(time.Now()) }},
			{"Close", old.Close},
		} {
			called = false
			if err := call.do(); !errors.Is(err, net.ErrClosed) || called {
				t.Fatalf("joined %t: %s on a closed socket: %v, callback called %t; want net.ErrClosed and none", joined, call.name, err, called)
			}
		}

		// The new connection's client was sent nothing, and its socket
		// still reads and writes both ways.
		client.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		if n, err := client.Read(buf); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("joined %t: the new connection's client read %q, %v", joined, buf[:n], err)
		}
		io.WriteString(client, "ping")
		waitReadable(t, next)
		if n, err := next.Read(buf); err != nil || string(buf[:n]) != "ping" {
			t.Fatalf("joined %t: the new connection read %q, %v", joined, buf[:n], err)
		}
		if _, err := next.Write([]byte("pong")); err != nil {
			t.Fatal(err)
		}
		client.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.ReadFull(client, buf[:4]); err != nil || string(buf[:4]) != "pong" {
			t.Fatalf("joined %t: the new connection's client read %q, %v", joined, buf[:4], err)
		}
	}
}

// second is a call's error.
func second[T any](_ T, err error) error { return err }

// TestClientSocketMatchesNet: a raw accept gives the socket net's accept
// gives: TCP_NODELAY set, the peer's address, read from accept4's
// sockaddr, spelled as net spells it, and the listener's local address.
func TestClientSocketMatchesNet(t *testing.T) {
	for _, l := range []struct{ network, addr string }{{"tcp4", "127.0.0.1:0"}, {"tcp6", "[::1]:0"}} {
		t.Run(l.network, func(t *testing.T) {
			ln := listenRawTCP(t, l.network, l.addr)
			s, client := acceptRaw(t, ln)
			var nodelay int
			var err error
			(*socketRC)(s).Control(func(fd uintptr) {
				nodelay, err = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_TCP, syscall.TCP_NODELAY)
			})
			if err != nil || nodelay == 0 {
				t.Fatalf("TCP_NODELAY %d, %v; want it set", nodelay, err)
			}
			_, addr := clientSocketOf(s)
			if want := client.LocalAddr().String(); addr != want || s.RemoteAddr().String() != want {
				t.Fatalf("the peer is %q (RemoteAddr %v), want %q", addr, s.RemoteAddr(), want)
			}
			if got, want := s.LocalAddr().String(), ln.Addr().String(); got != want {
				t.Fatalf("LocalAddr %q, want %q", got, want)
			}
		})
	}
}

// acceptCounter is a listener that is no *net.TCPListener: it counts the
// connections its Accept returns.
type acceptCounter struct {
	net.Listener
	n atomic.Int32
}

func (l *acceptCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.n.Add(1)
	}
	return c, err
}

// TestServeLifecycle: Serve accepts a TCP listener's connections through
// its raw copy and any other listener's through its Accept, and either way
// answers a client (a malformed head: 400). Close makes Serve return nil,
// the address can be listened on again at once, and every descriptor
// Serve opened is closed.
func TestServeLifecycle(t *testing.T) {
	warm, err := net.Listen("tcp", "127.0.0.1:0") // the poller's own descriptors, before the count
	if err != nil {
		t.Fatal(err)
	}
	warm.Close()
	for _, wrapped := range []bool{false, true} {
		before := openFDs(t)
		fe, err := New(Config{Backends: []string{"127.0.0.1:1"}, probeInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		tl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := tl.Addr().String()
		ln, counter := tl, &acceptCounter{Listener: tl}
		if wrapped {
			ln = counter
		}
		served := make(chan error, 1)
		go func() { served <- fe.Serve(ln) }()

		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		io.WriteString(c, "POST /x HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n\r\n")
		if got := string(readAll(t, c)); !strings.HasPrefix(got, "HTTP/1.1 400 Bad Request\r\n") {
			t.Fatalf("wrapped %t: the client read %q", wrapped, got)
		}
		c.Close()
		fe.lnMu.Lock()
		_, raw := fe.ln.(*rawListener)
		fe.lnMu.Unlock()
		if raw == wrapped || wrapped && counter.n.Load() != 1 {
			t.Fatalf("wrapped %t: served raw %t, through Accept %d times", wrapped, raw, counter.n.Load())
		}

		fe.Close()
		select {
		case err := <-served:
			if err != nil {
				t.Fatalf("wrapped %t: Serve returned %v after Close, want nil", wrapped, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("wrapped %t: Serve did not return after Close", wrapped)
		}
		again, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatalf("wrapped %t: listening again on %s: %v", wrapped, addr, err)
		}
		again.Close()
		deadline := time.Now().Add(5 * time.Second)
		for openFDs(t) > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := openFDs(t); after > before {
			t.Fatalf("wrapped %t: %d descriptors open after Close, %d before", wrapped, after, before)
		}
	}
}
