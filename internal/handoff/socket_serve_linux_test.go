package handoff_test

import (
	"io"
	"net"
	"strings"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"lard/internal/backend"
	"lard/internal/frontend"
	"lard/internal/handoff"
	"lard/internal/trace"
)

// heldListener hands each connection its Listener accepts to the test, and
// to Serve only once the test releases it.
type heldListener struct {
	net.Listener
	accepted chan *handoff.Socket
	release  chan struct{}
}

func (l *heldListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.accepted <- c.(*handoff.Socket)
	<-l.release
	return c, nil
}

// TestAcceptedSocketJoinsThePollerOnlyToWait: over a front end's whole
// handling of a connection — its head read, the split to a back end that
// answers the client directly, the shutdown and the close — the accepted
// socket never joins the poller where the head was there at accept, and
// joins where the head came late, to wait for it. Joined reads the record
// Close leaves, so a join at any point counts.
func TestAcceptedSocketJoinsThePollerOnlyToWait(t *testing.T) {
	const size = 3000
	bl, err := handoff.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	be := backend.New(backend.Config{Store: backend.NewDocStore([]trace.Target{{Name: "/a", Size: size}}), CacheBytes: 1 << 20})
	srv := be.HTTPServer()
	go srv.Serve(bl)
	t.Cleanup(func() { srv.Close(); bl.Close() })
	fe, err := frontend.New(frontend.Config{Backends: []string{bl.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &heldListener{Listener: handoff.ListenRaw(tl), accepted: make(chan *handoff.Socket), release: make(chan struct{})}
	go fe.Serve(ln)
	t.Cleanup(func() { fe.Close() })
	const head = "GET /a HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"

	for i, late := range []bool{false, true} {
		client, err := net.Dial("tcp", tl.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		s := <-ln.accepted
		if !late {
			io.WriteString(client, head)
			waitReadable(t, s)
		}
		ln.release <- struct{}{}
		if late {
			time.Sleep(50 * time.Millisecond)
			io.WriteString(client, head)
		}
		client.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, err := io.ReadAll(client)
		if err != nil || !strings.HasPrefix(string(got), "HTTP/1.1 200 OK\r\n") || len(got)-strings.Index(string(got), "\r\n\r\n")-4 != size {
			t.Fatalf("late %t: the client read %q, %v", late, got, err)
		}
		rc, _ := s.SyscallConn()
		for deadline := time.Now().Add(5 * time.Second); rc.Control(func(uintptr) {}) == nil; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("late %t: the socket is still open after its connection", late)
			}
		}
		if handoff.Joined(s) != late {
			t.Fatalf("late %t: joined the poller: %t, want %t", late, !late, late)
		}
		if st := fe.Stats(); st.Direct != uint64(i+1) || st.Errors != 0 {
			t.Fatalf("late %t: %d responses answered directly, %d errors; want %d and 0", late, st.Direct, st.Errors, i+1)
		}
	}
}

// waitReadable waits, up to five seconds, until s has bytes to read, with
// a poll(2) of its own: s itself never waits.
func waitReadable(t *testing.T, s *handoff.Socket) {
	t.Helper()
	var n uintptr
	rc, _ := s.SyscallConn()
	rc.Control(func(fd uintptr) {
		p := struct {
			fd              int32
			events, revents int16
		}{fd: int32(fd), events: 1} // POLLIN
		ts := syscall.NsecToTimespec(int64(5 * time.Second))
		n, _, _ = syscall.Syscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&p)), 1, uintptr(unsafe.Pointer(&ts)), 0, 0, 0)
	})
	if n != 1 {
		t.Fatal("the client's bytes never arrived")
	}
}
