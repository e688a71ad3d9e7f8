package handoff

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

// fuzzListener is the part of a Listener the transport's readers use.
func fuzzListener(t *testing.T) *Listener {
	l := &Listener{
		HandshakeTimeout:   time.Second,
		SessionIdleTimeout: time.Second,
		done:               make(chan struct{}),
		transports:         make(map[net.Conn]struct{}),
		clients:            make(map[*Socket]struct{}),
	}
	t.Cleanup(func() { close(l.done) })
	return l
}

// rawTransport is the front end's side of a pass transport as a test
// drives it, byte by byte: its end of the socket, and the pipe ends
// DialPass keeps.
type rawTransport struct {
	sock int      // the socket, blocking
	req  *os.File // the request pipe's write end: the stream to the Listener
	ans  *os.File // the answer pipe's read end: the stream back
}

// message sends one socket message: tag, the stream offset it names, with
// fds attached.
func (r *rawTransport) message(tag int64, fds ...int) error {
	var oob []byte
	if len(fds) > 0 {
		oob = syscall.UnixRights(fds...)
	}
	return syscall.Sendmsg(r.sock, binary.BigEndian.AppendUint64(nil, uint64(tag)), oob, nil, 0)
}

// close closes the front end's side: the Listener's reads see EOF.
func (r *rawTransport) close() {
	syscall.Close(r.sock)
	r.req.Close()
	r.ans.Close()
}

// transportPair is a pass transport's two ends: the front end's, raw, and
// the Listener's, as openPass leaves it once the pipes have come.
func transportPair(t *testing.T) (*rawTransport, *passConn) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	reqR, reqW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	ansR, ansW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	return &rawTransport{sock: fds[0], req: reqW, ans: ansR}, newPassConn(os.NewFile(uintptr(fds[1]), "listener end"), nil, nil, reqR, ansW)
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
// headers, their sockets, frames, end-of-session records and passes — over
// arbitrary stream bytes cut into writes at arbitrary points, each write
// preceded by zero to three descriptors (copies of a connected TCP socket,
// and of a pipe's write end) in a socket message tagged with an arbitrary
// offset near the write's own, or by a message with none. Whatever
// arrives, every descriptor the Listener receives is either handed to
// exactly one session and closed with it, or closed as a
// rejection: none is left open once the transport is done with. A stream
// costs at most one rejection, since the first ends its transport.
//
// Each two bytes of plan are one write: its length less one, and its
// message: the low two bits the descriptors, bit 2 a message without
// any, and the rest, signed, the tag's distance from the write's offset.
func FuzzDescriptorStream(f *testing.F) {
	head := []byte("GET /a HTTP/1.1\r\nHost: t\r\n\r\n")
	split := appendHeader(nil, FlagSplit|FlagSessionFramed|FlagRehandoff, "192.0.2.1:4000", head)
	pass := append(appendHeader(nil, FlagPass|FlagSessionFramed, "192.0.2.1:4000", head), 0, 0, 0, 0, 0, 0, 0, 9)
	frames := append(append([]byte{0, 0, 0, 4}, "GET "...), 0, 0, 0, 0)
	f.Add(split, []byte{byte(len(split) - 1), 1})
	f.Add(append(append(split, frames...), split...), []byte{byte(len(split) - 1), 1, byte(len(frames) - 1), 0, 255, 1})
	f.Add(pass, []byte{255, 1})
	f.Add(append(append([]byte(nil), pass...), split...), []byte{byte(len(pass) - 1), 1, 255, 1})
	f.Add(split, []byte{255, 3 | 1<<3})
	f.Add([]byte("GARBAGE"), []byte{3, 1, 255, 4})
	f.Fuzz(func(t *testing.T, stream, plan []byte) {
		if len(plan) > 32 {
			plan = plan[:32]
		}
		before := countFDs(t)
		func() {
			l := fuzzListener(t)
			tr, raw := transportPair(t)
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
			sent := []int{int(sockFile.Fd()), int(w.Fd()), int(w.Fd())}

			// The front end: the plan's writes, each after its message,
			// then the rest and its side closed. It is done with the
			// descriptors it sends before they close: closing the
			// Listener's end ends its writes.
			done := make(chan struct{})
			defer func() { raw.Close(); <-done }()
			go func() {
				defer close(done)
				defer tr.close()
				rest, off := stream, int64(0)
				for i := 0; i+1 < len(plan) && len(rest) > 0; i += 2 {
					n, spec := min(int(plan[i])+1, len(rest)), plan[i+1]
					if k := int(spec % 4); k > 0 || spec&4 != 0 {
						if tr.message(off+int64(int8(spec)>>3), sent[:k]...) != nil {
							return
						}
					}
					if _, err := tr.req.Write(rest[:n]); err != nil {
						return
					}
					rest, off = rest[n:], off+int64(n)
				}
				tr.req.Write(rest)
			}()

			// The Listener's side, as serveTransport and NextSession read
			// it: every header opens a session, read to its end. The
			// client has gone, so a pass ends at its initial data.
			sock.conn.Close()
			br := bufio.NewReader(raw)
			h, err := l.readHead(raw, br)
			for err == nil {
				sc := newSessionConn(l, raw, br, make(chan struct{}, 1))
				if sc.begin(h) != nil {
					return
				}
				io.Copy(io.Discard, sc)
				sc.Close()
				if sc.end() != nil {
					return
				}
				h, err = l.readNextHeader(raw, br)
			}
			l.reject(err)
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
