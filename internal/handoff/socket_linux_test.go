package handoff

import (
	"errors"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestSocketFitsItsSizeClass: a front end allocates one Socket per
// connection it accepts, so the type stays within the runtime's 128-byte
// size class on linux/amd64. What only a back end's copy uses, such as its
// writev scratch, is the session's (sessionConn).
func TestSocketFitsItsSizeClass(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the size is pinned on linux/amd64")
	}
	if size := unsafe.Sizeof(Socket{}); size > 128 {
		t.Fatalf("a Socket is %d bytes, more than 128", size)
	}
}

// TestSocketCloseRacesAWrite: Close from another goroutine, as
// Listener.Close closes a split session's copy, while a write runs on the
// bare descriptor or waits in the poller, ends the write, and no byte
// reaches a connection that then takes the socket's descriptor number. It
// is the reason every call on the bare descriptor, and the close, runs
// under the socket's lock; run it with -race.
func TestSocketCloseRacesAWrite(t *testing.T) {
	const tries = 10
	for _, waiting := range []bool{false, true} {
		tl, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ln := ListenRaw(tl)
		defer ln.Close()
		peer, err := net.Dial("tcp", tl.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		c, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		s := c.(*Socket)
		fd := s.fd
		// The clients are dialed first, so that none of their sockets takes
		// s's number (TestClosedClientSocketTouchesNoDescriptor).
		clients := map[string]net.Conn{}
		for range tries {
			c, err := net.Dial("tcp", tl.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			clients[c.LocalAddr().String()] = c
		}

		// The writer writes until the socket is closed. Its peer reads
		// everything, so that it writes on the bare descriptor, or nothing,
		// so that the socket fills and the write waits in the poller.
		wrote := make(chan error, 1)
		go func() {
			chunk := make([]byte, 512)
			for {
				if _, err := s.Write(chunk); err != nil {
					wrote <- err
					return
				}
			}
		}()
		if waiting {
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				s.mu.Lock()
				joined := s.file != nil
				s.mu.Unlock()
				if joined {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the write never waited for room")
				}
			}
		} else {
			var read atomic.Int64
			go func() {
				buf := make([]byte, 64<<10)
				for {
					n, err := peer.Read(buf)
					if read.Add(int64(n)); err != nil {
						return
					}
				}
			}()
			for deadline := time.Now().Add(5 * time.Second); read.Load() < 1<<20; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the writes never got under way")
				}
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		var next *Socket
		for i := 0; i < tries && (next == nil || next.fd != fd); i++ {
			c, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			next = c.(*Socket)
		}
		if next.fd != fd {
			t.Fatalf("waiting %t: descriptor %d was not reused", waiting, fd)
		}
		if err := <-wrote; !errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrClosed) {
			t.Fatalf("waiting %t: the write ended with %v, want the socket closed", waiting, err)
		}
		client := clients[next.RemoteAddr().String()]
		client.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		if n, err := client.Read(make([]byte, 1)); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("waiting %t: the new connection's client read %d bytes, %v; want none", waiting, n, err)
		}
	}
}
