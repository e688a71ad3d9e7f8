package frontend

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"lard/internal/backend"
	"lard/internal/handoff"
	"lard/internal/trace"
)

// acceptRaw dials ln, a raw listener, and returns the connection it
// accepts and its client.
func acceptRaw(t *testing.T, ln net.Listener) (*handoff.Socket, *net.TCPConn) {
	t.Helper()
	client, err := net.DialTCP("tcp", nil, ln.Addr().(*net.TCPAddr))
	if err != nil {
		t.Fatal(err)
	}
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	s, ok := c.(*handoff.Socket)
	if !ok {
		t.Fatalf("a raw accept returns a %T, want *handoff.Socket", c)
	}
	t.Cleanup(func() { client.Close(); s.Close() })
	return s, client
}

// listenRawTCP returns a raw listener (handoff.ListenRaw) on a loopback
// port.
func listenRawTCP(t *testing.T, network, addr string) net.Listener {
	t.Helper()
	ln, err := net.Listen(network, addr)
	if err != nil {
		t.Skipf("no %s loopback: %v", network, err)
	}
	rl := handoff.ListenRaw(ln)
	if rl == ln {
		ln.Close()
		t.Fatal("a TCP listener is served through its own Accept, not raw")
	}
	t.Cleanup(func() { rl.Close() })
	return rl
}

// socketFD returns s's descriptor, -1 once it is closed.
func socketFD(s *handoff.Socket) int {
	fd := -1
	rc, _ := s.SyscallConn()
	rc.Control(func(d uintptr) { fd = int(d) })
	return fd
}

// waitReadable waits, up to five seconds, until s has bytes to read, with
// a poll(2) of its own: s itself never waits.
func waitReadable(t *testing.T, s *handoff.Socket) {
	t.Helper()
	var n uintptr
	rc, _ := s.SyscallConn()
	rc.Control(func(fd uintptr) {
		p := pollFd{fd: int32(fd), events: pollIn}
		ts := syscall.NsecToTimespec(int64(5 * time.Second))
		n, _, _ = syscall.Syscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&p)), 1, uintptr(unsafe.Pointer(&ts)), 0, 0, 0)
	})
	if n != 1 {
		t.Fatal("the client's bytes never arrived")
	}
}

// polled reports whether the runtime's poller watches descriptor fd: fd is
// among the targets of this process's epoll set (its fdinfo's tfd lines).
// A socket joins the poller by being added there.
func polled(t *testing.T, fd int) bool {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if link, _ := os.Readlink("/proc/self/fd/" + e.Name()); link != "anon_inode:[eventpoll]" {
			continue
		}
		info, err := os.ReadFile("/proc/self/fdinfo/" + e.Name())
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(info), "\n") {
			if f := strings.Fields(line); len(f) > 1 && f[0] == "tfd:" && f[1] == strconv.Itoa(fd) {
				return true
			}
		}
	}
	return false
}

// copiesOf returns this process's other descriptors for the socket fd is:
// a back end's copy of a client's socket, in tests where the back end runs
// in the test's own process.
func copiesOf(t *testing.T, fd int) []int {
	t.Helper()
	self := "/proc/self/fd/" + strconv.Itoa(fd)
	want, err := os.Readlink(self)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	var fds []int
	for _, e := range ents {
		n, _ := strconv.Atoi(e.Name())
		if link, _ := os.Readlink("/proc/self/fd/" + e.Name()); link == want && n != fd {
			fds = append(fds, n)
		}
	}
	return fds
}

// setSndbuf sets s's send buffer, for every copy of the socket.
func setSndbuf(t *testing.T, s *handoff.Socket, size int) {
	t.Helper()
	rc, _ := s.SyscallConn()
	var err error
	rc.Control(func(fd uintptr) { err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF, size) })
	if err != nil {
		t.Fatal(err)
	}
}

// splitCopy splits s to a Listener of the test's own over a pass
// transport, as a front end splits a session, and returns the session the
// Listener yields, answering directly, and the descriptor of the back
// end's copy of the socket.
func splitCopy(t *testing.T, s *handoff.Socket) (net.Conn, int) {
	t.Helper()
	ln, err := handoff.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	tr, err := handoff.DialPass(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	rc, _ := s.SyscallConn()
	if err := handoff.NewTransportWriter(tr).Split(rc, s.RemoteAddr().String(), []byte(getHead("/a")), handoff.FlagRehandoff); err != nil {
		t.Fatal(err)
	}
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.(interface{ Direct() }).Direct()
	copies := copiesOf(t, socketFD(s))
	if len(copies) != 1 {
		t.Fatalf("%d copies of the split socket, want the back end's one", len(copies))
	}
	return conn, copies[0]
}

// TestClientSocketJoinsThePollerOnlyToWait: a handoff.Socket joins the
// runtime's poller only when a call must wait, at either end of a handoff.
// The front end's: a connection whose head is already there when it is
// accepted is read and split to its back end without its socket joining;
// one whose head comes late joins, waits there under the head timeout, and
// is served; an idle one waits out the head timeout there and is closed
// silently; each is looked at while the front end waits for its back end
// (TestAcceptedSocketJoinsThePollerOnlyToWait, in handoff, looks at the
// socket's whole life). The back end's split copy: a response that fits
// the socket is written without the copy joining, and one that finds it
// full joins, to wait for room.
func TestClientSocketJoinsThePollerOnlyToWait(t *testing.T) {
	t.Run("accepted socket", func(t *testing.T) {
		const size = 3000
		targets := []trace.Target{{Name: "/a0", Size: size}, {Name: "/a1", Size: size}}
		// A miss takes about 150 ms: the window in which the front end waits
		// for its back end, and its socket's state is looked at.
		ln0, err := handoff.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		be := backend.New(backend.Config{Store: backend.NewDocStore(targets), CacheBytes: 1 << 20, DiskTimeScale: 5})
		srv := be.HTTPServer()
		go srv.Serve(ln0)
		t.Cleanup(func() { srv.Close(); ln0.Close() })
		const timeout = 300 * time.Millisecond
		fe, err := New(Config{Backends: []string{ln0.Addr().String()}, probeInterval: -1, headerTimeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fe.Close() })
		ln := listenRawTCP(t, "tcp", "127.0.0.1:0")

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
			fd := socketFD(s)
			head := fmt.Sprintf("GET /a%d HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n", i)
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
			if row.late >= 0 {
				waitFor(t, 5*time.Second, "the back end's miss", func() bool { return be.Stats().Misses == uint64(i+1) })
			} else {
				waitFor(t, timeout/2, "the idle socket to join the poller", func() bool { return polled(t, fd) })
			}
			if got := polled(t, fd); got != row.joined {
				t.Fatalf("%s: joined the poller: %t, want %t", row.name, got, row.joined)
			}
			got := string(readAll(t, client))
			<-done
			took := time.Since(start)
			switch {
			case socketFD(s) != -1:
				t.Fatalf("%s: the socket is still open after its connection", row.name)
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
	})

	t.Run("split copy", func(t *testing.T) {
		targets := []trace.Target{{Name: "/small", Size: 3000}, {Name: "/big", Size: 1 << 20}}
		node := startPassNode(t, backend.NewDocStore(targets))
		// A quota keeps a keep-alive connection split, not passed, and its
		// session, with the back end's copy, open after each response.
		fe, err := New(Config{Backends: []string{node.addr}, probeInterval: -1, QuotaRate: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fe.Close() })
		ln := listenRawTCP(t, "tcp", "127.0.0.1:0")

		for _, row := range []struct {
			name   string
			target trace.Target
			sndbuf int // the socket's send buffer; 0: the kernel's
			joined bool
		}{
			{"a response that fits", targets[0], 0, false},
			{"a response to a full socket", targets[1], 4096, true},
		} {
			s, client := acceptRaw(t, ln)
			fd := socketFD(s)
			if row.sndbuf > 0 {
				setSndbuf(t, s, row.sndbuf)
			}
			done := make(chan struct{})
			go func() {
				fe.handleConn(s)
				close(done)
			}()
			io.WriteString(client, getHead(row.target.Name))
			if row.joined {
				// The client reads nothing until the back end's write waits.
				waitFor(t, 5*time.Second, "the copy to join the poller", func() bool {
					c := copiesOf(t, fd)
					return len(c) == 1 && polled(t, c[0])
				})
			}
			client.SetReadDeadline(time.Now().Add(5 * time.Second))
			resp, err := http.ReadResponse(bufio.NewReader(client), nil)
			if err != nil {
				t.Fatalf("%s: %v", row.name, err)
			}
			if n, err := io.Copy(io.Discard, resp.Body); err != nil || n != row.target.Size {
				t.Fatalf("%s: a body of %d bytes, %v; want %d", row.name, n, err, row.target.Size)
			}
			c := copiesOf(t, fd)
			if len(c) != 1 {
				t.Fatalf("%s: %d copies of the socket while its session is open, want the back end's one", row.name, len(c))
			}
			if got := polled(t, c[0]); got != row.joined {
				t.Fatalf("%s: the copy joined the poller: %t, want %t", row.name, got, row.joined)
			}
			client.Close()
			<-done
		}
		if st := fe.Stats(); st.Direct != 2 || st.Passed != 0 || st.Errors != 0 {
			t.Fatalf("%d responses answered directly, %d passed, %d errors; want 2, 0, 0", st.Direct, st.Passed, st.Errors)
		}
	})
}

// TestClosedClientSocketTouchesNoDescriptor: once a client's socket is
// closed, bare or after it joined the poller, every method fails with
// net.ErrClosed and touches no descriptor, so that a later connection
// whose socket has the same descriptor number is neither read, written,
// shut down nor handed to a back end through the old one: the front end's
// accepted socket, through each of its methods, and the back end's split
// copy, through the writes of the session that held it.
func TestClosedClientSocketTouchesNoDescriptor(t *testing.T) {
	const tries = 10
	for _, split := range []bool{false, true} {
		for _, joined := range []bool{false, true} {
			name := fmt.Sprintf("accepted socket, joined %t", joined)
			if split {
				name = fmt.Sprintf("split copy, joined %t", joined)
			}
			t.Run(name, func(t *testing.T) {
				ln := listenRawTCP(t, "tcp", "127.0.0.1:0")
				clients := map[string]*net.TCPConn{} // by their own address
				s, peer := acceptRaw(t, ln)
				fd, closeOld := socketFD(s), s.Close
				var session net.Conn
				if split {
					session, fd = splitCopy(t, s)
					closeOld = session.Close
				}
				switch {
				case split && joined:
					// The response finds the socket full, and the client reads
					// it only once the copy waits for room.
					setSndbuf(t, s, 4096)
					body := bytes.Repeat([]byte("x"), 256<<10)
					wrote := make(chan error, 1)
					go func() { wrote <- second(session.Write(body)) }()
					waitFor(t, 5*time.Second, "the copy to join the poller", func() bool { return polled(t, fd) })
					peer.SetReadDeadline(time.Now().Add(5 * time.Second))
					if _, err := io.ReadFull(peer, make([]byte, len(body))); err != nil {
						t.Fatal(err)
					}
					if err := <-wrote; err != nil {
						t.Fatal(err)
					}
				case split:
					if _, err := io.WriteString(session, "hello"); err != nil {
						t.Fatal(err)
					}
				case joined:
					s.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
					if _, err := s.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) || !polled(t, fd) {
						t.Fatalf("an idle read: %v, joined %t; want the deadline, in the poller", err, polled(t, fd))
					}
				}
				if polled(t, fd) != joined {
					t.Fatalf("joined the poller: %t, want %t", !joined, joined)
				}
				// The clients are dialed first, so that none of their sockets
				// takes the old number. An accepted socket takes the lowest free
				// number: the old one, unless a lower one was freed in between,
				// and those stay taken until it comes.
				for range tries {
					c, err := net.DialTCP("tcp", nil, ln.Addr().(*net.TCPAddr))
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { c.Close() })
					clients[c.LocalAddr().String()] = c
				}
				if err := closeOld(); err != nil {
					t.Fatal(err)
				}
				var next *handoff.Socket
				for i := 0; i < tries && (next == nil || socketFD(next) != fd); i++ {
					c, err := ln.Accept()
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { c.Close() })
					next = c.(*handoff.Socket)
				}
				client := clients[next.RemoteAddr().String()]
				if socketFD(next) != fd || client == nil {
					t.Fatalf("descriptor %d was not reused", fd)
				}

				var called bool
				buf := make([]byte, 8)
				type call struct {
					name string
					do   func() error
				}
				var calls []call
				if split {
					calls = []call{
						{"Write", func() error { return second(session.Write([]byte("stolen"))) }},
						{"WriteBuffers", func() error {
							v := net.Buffers{[]byte("stolen")}
							return second(session.(interface {
								WriteBuffers(*net.Buffers) (int64, error)
							}).WriteBuffers(&v))
						}},
					}
				} else {
					rc, _ := s.SyscallConn()
					calls = []call{
						{"Read", func() error { return second(s.Read(buf)) }},
						{"Write", func() error { return second(s.Write([]byte("stolen"))) }},
						{"ReadFrom", func() error { return second(s.ReadFrom(strings.NewReader("stolen"))) }},
						{"RawConn.Control", func() error { return rc.Control(func(uintptr) { called = true }) }},
						{"RawConn.Read", func() error { return rc.Read(func(uintptr) bool { called = true; return true }) }},
						{"RawConn.Write", func() error { return rc.Write(func(uintptr) bool { called = true; return true }) }},
						{"CloseWrite", s.CloseWrite},
						{"SetReadDeadline", func() error { return s.SetReadDeadline(time.Now()) }},
						{"SetWriteDeadline", func() error { return s.SetWriteDeadline(time.Now()) }},
						{"Close", s.Close},
					}
				}
				for _, call := range calls {
					called = false
					if err := call.do(); !errors.Is(err, net.ErrClosed) || called {
						t.Fatalf("%s on a closed socket: %v, callback called %t; want net.ErrClosed and none", call.name, err, called)
					}
				}

				// The new connection's client was sent nothing, and its socket
				// still reads and writes both ways.
				client.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
				if n, err := client.Read(buf); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("the new connection's client read %q, %v", buf[:n], err)
				}
				io.WriteString(client, "ping")
				waitReadable(t, next)
				if n, err := next.Read(buf); err != nil || string(buf[:n]) != "ping" {
					t.Fatalf("the new connection read %q, %v", buf[:n], err)
				}
				if _, err := next.Write([]byte("pong")); err != nil {
					t.Fatal(err)
				}
				client.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, err := io.ReadFull(client, buf[:4]); err != nil || string(buf[:4]) != "pong" {
					t.Fatalf("the new connection's client read %q, %v", buf[:4], err)
				}
			})
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
			rc, _ := s.SyscallConn()
			rc.Control(func(fd uintptr) {
				nodelay, err = syscall.GetsockoptInt(int(fd), syscall.IPPROTO_TCP, syscall.TCP_NODELAY)
			})
			if err != nil || nodelay == 0 {
				t.Fatalf("TCP_NODELAY %d, %v; want it set", nodelay, err)
			}
			addr := newClientConn(s).addr
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
		raw := fe.ln != ln
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

// failOnce is a listener whose first Accept fails with err.
type failOnce struct {
	net.Listener
	failed atomic.Bool
	err    error
}

func (l *failOnce) Accept() (net.Conn, error) {
	if !l.failed.Swap(true) {
		return nil, l.err
	}
	return l.Listener.Accept()
}

// TestServeRetriesTemporaryAcceptErrors: an accept that fails for a
// moment, for want of descriptors, does not stop Serve: it pauses, accepts
// again, and answers the client (a malformed head: 400). Through a wrapped
// listener's Accept, and through the raw accept, whose accept4 fails with
// EMFILE in a child process that lowers its own descriptor limit, so that
// this process's limit stays as it is.
func TestServeRetriesTemporaryAcceptErrors(t *testing.T) {
	if os.Getenv(outOfDescriptors) != "" {
		serveOutOfDescriptors(t)
		return
	}
	t.Run("wrapped", func(t *testing.T) {
		tl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		emfile := &net.OpError{Op: "accept", Net: "tcp", Addr: tl.Addr(), Err: os.NewSyscallError("accept", syscall.EMFILE)}
		serveThroughAcceptFailure(t, &failOnce{Listener: tl, err: emfile}, func() {}, func() {})
	})
	t.Run("raw", func(t *testing.T) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestServeRetriesTemporaryAcceptErrors$", "-test.v", "-test.timeout=60s")
		cmd.Env = append(os.Environ(), outOfDescriptors+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil || !bytes.Contains(out, []byte("served after EMFILE")) {
			t.Fatalf("the child: %v\n%s", err, out)
		}
	})
}

// outOfDescriptors is set in the child process that
// TestServeRetriesTemporaryAcceptErrors runs its raw case in.
const outOfDescriptors = "LARD_TEST_OUT_OF_DESCRIPTORS"

// serveOutOfDescriptors is TestServeRetriesTemporaryAcceptErrors's raw
// case, in its child process: the client's connection takes the last
// descriptor under the lowered limit, so that the raw accept fails with
// EMFILE until the test closes the descriptors that filled it.
func serveOutOfDescriptors(t *testing.T) {
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var fill []int
	starve := func() {
		var lim syscall.Rlimit
		if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
			t.Fatal(err)
		}
		lim.Cur = uint64(openFDs(t) + 4)
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
			t.Fatal(err)
		}
		for {
			fd, err := syscall.Open("/dev/null", syscall.O_RDONLY|syscall.O_CLOEXEC, 0)
			if err != nil {
				break
			}
			fill = append(fill, fd)
		}
		syscall.Close(fill[len(fill)-1]) // for the client's socket
		fill = fill[:len(fill)-1]
	}
	feed := func() {
		for _, fd := range fill {
			syscall.Close(fd)
		}
	}
	serveThroughAcceptFailure(t, tl, starve, feed)
	t.Log("served after EMFILE")
}

// serveThroughAcceptFailure serves ln and checks that Serve keeps going
// through a temporary accept failure and answers a client. starve
// runs before the client dials, and feed once Serve has had 100 ms to give
// up, to end the failure.
func serveThroughAcceptFailure(t *testing.T, ln net.Listener, starve, feed func()) {
	t.Helper()
	fe, err := New(Config{Backends: []string{"127.0.0.1:1"}, probeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- fe.Serve(ln) }()
	waitFor(t, 5*time.Second, "Serve to start", func() bool { return fe.Addr() != nil })
	starve()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v on a temporary accept error", err)
	case <-time.After(100 * time.Millisecond):
	}
	feed()
	io.WriteString(c, "POST /x HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n\r\n")
	if got := string(readAll(t, c)); !strings.HasPrefix(got, "HTTP/1.1 400 Bad Request\r\n") {
		t.Fatalf("the client read %q", got)
	}
	fe.Close()
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after Close, want nil", err)
	}
}
