package handoff

import (
	"bufio"
	"io"
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

// fuzzListener is the part of a Listener the transport's readers use, with
// an Accept side that closes every passed connection at once.
func fuzzListener(t *testing.T) *Listener {
	l := &Listener{
		HandshakeTimeout:   time.Second,
		SessionIdleTimeout: time.Second,
		acceptCh:           make(chan net.Conn),
		done:               make(chan struct{}),
		transports:         make(map[net.Conn]struct{}),
		clients:            make(map[*clientSocket]struct{}),
	}
	go func() {
		for {
			select {
			case c := <-l.acceptCh:
				c.Close()
			case <-l.done:
				return
			}
		}
	}()
	t.Cleanup(func() { close(l.done) })
	return l
}

// transportPair is a pass transport's two ends: the sender's, raw, and the
// Listener's, read as acceptPasses reads it.
func transportPair(t *testing.T, l *Listener) (int, *rightsConn) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := os.NewFile(uintptr(fds[1]), "listener end")
	c, err := net.FileConn(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	return fds[0], newRightsConn(c.(*net.UnixConn), &l.rejected)
}

// countFDs counts this process's open descriptors.
func countFDs(t *testing.T) int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// FuzzDescriptorStream drives a Listener's reading of a pass transport —
// headers, their descriptors, frames, end-of-session records and passes —
// over arbitrary bytes cut into messages at arbitrary points, each message
// carrying zero to three descriptors (copies of a pipe's write end, and of
// a connected TCP socket). Whatever arrives, every descriptor is either
// handed to exactly one session or pass and closed with it, or closed as a
// rejection: none is left open once the transport is done with. A stream
// costs at most one rejection, since the first ends its transport.
func FuzzDescriptorStream(f *testing.F) {
	head := []byte("GET /a HTTP/1.1\r\nHost: t\r\n\r\n")
	split := appendHeader(nil, FlagSplit|FlagSessionFramed|FlagRehandoff, "192.0.2.1:4000", head)
	pass := append(appendHeader(nil, FlagPass|FlagSessionFramed, "192.0.2.1:4000", head), 0, 0, 0, 0, 0, 0, 0, 9)
	frames := append(append([]byte{0, 0, 0, 4}, "GET "...), 0, 0, 0, 0)
	f.Add(split, []byte{byte(len(split)), 1})
	f.Add(append(append(split, frames...), split...), []byte{byte(len(split)), 1, byte(len(frames)), 0, 255, 1})
	f.Add(pass, []byte{255, 1})
	f.Add(append(append([]byte(nil), pass...), split...), []byte{byte(len(pass)), 2, 255, 1})
	f.Add(split, []byte{255, 3})
	f.Add([]byte("GARBAGE"), []byte{3, 1, 255, 2})
	f.Fuzz(func(t *testing.T, stream, plan []byte) {
		if len(plan) > 32 {
			plan = plan[:32]
		}
		before := countFDs(t)
		func() {
			l := fuzzListener(t)
			sender, raw := transportPair(t, l)
			r, w, err := os.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			defer w.Close()
			sock := newPassedClient(t)
			defer sock.conn.Close()
			defer sock.fe.Close()
			sockFile, err := sock.fe.File()
			if err != nil {
				t.Fatal(err)
			}
			defer sockFile.Close()

			// The sender: the stream in the plan's cuts, each cut's
			// descriptors attached, then the sender's end closed. It is
			// done with the descriptors it attaches before they close:
			// closing the Listener's end ends its writes.
			sent := make(chan struct{})
			defer func() { raw.Close(); <-sent }()
			go func() {
				defer close(sent)
				defer syscall.Close(sender)
				rest := stream
				for i := 0; i+1 < len(plan) && len(rest) > 0; i += 2 {
					n := min(int(plan[i])+1, len(rest))
					var fds []int
					for k := 0; k < int(plan[i+1]%4); k++ {
						if k == 0 {
							fds = append(fds, int(sockFile.Fd()))
						} else {
							fds = append(fds, int(w.Fd()))
						}
					}
					var oob []byte
					if len(fds) > 0 {
						oob = syscall.UnixRights(fds...)
					}
					if syscall.Sendmsg(sender, rest[:n], oob, nil, 0) != nil {
						return
					}
					rest = rest[n:]
				}
				if len(rest) > 0 {
					syscall.Write(sender, rest)
				}
			}()

			// The Listener's side, as serveTransport and NextSession read it.
			br := bufio.NewReader(raw)
			h, err := l.readHead(raw, br)
			for err == nil {
				if h.flags&FlagPass != 0 {
					if !l.servePass(raw, br, h) {
						return
					}
				} else {
					sc := newSessionConn(raw, br, h.client, h.initialLen, make(chan struct{}, 1))
					sc.l = l
					if l.holdClient(sc, h.fd) != nil {
						return
					}
					io.Copy(io.Discard, sc)
					sc.Close()
					if !sc.drained() {
						return
					}
				}
				h, err = l.readNextHeader(raw, br)
			}
			if err != errIdleClosed {
				l.reject(raw, err)
			}
			if got := l.Rejected(); got > 1 {
				t.Fatalf("one transport, %d rejections", got)
			}
		}()
		deadline := time.Now().Add(time.Second)
		for countFDs(t) > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := countFDs(t); after > before {
			t.Fatalf("%d descriptors open before, %d after", before, after)
		}
	})
}
