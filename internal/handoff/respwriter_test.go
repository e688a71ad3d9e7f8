package handoff

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lard/internal/httprelay"
)

// The tests below drive an unmodified net/http server over the listener
// with a tap on either side of the handed-off conn: above it, what the
// server wrote and in how many Writes — which is, byte for byte and write
// for write, what the transport carried when the conn passed writes
// through — and below it, what the transport carries now.

// wireLog is one side's record.
type wireLog struct {
	mu     sync.Mutex
	writes int
	bytes  bytes.Buffer
}

func (l *wireLog) record(p []byte) {
	l.mu.Lock()
	l.writes++
	l.bytes.Write(p)
	l.mu.Unlock()
}

func (l *wireLog) snapshot() (writes int, data string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.writes, l.bytes.String()
}

// tapConn records writes before passing them down; reading tells that a
// Read is parked in the conn beneath.
type tapConn struct {
	net.Conn
	log     *wireLog
	reading *atomic.Bool
}

func (c *tapConn) Write(p []byte) (int, error) {
	c.log.record(p)
	return c.Conn.Write(p)
}

func (c *tapConn) Read(p []byte) (int, error) {
	c.reading.Store(true)
	defer c.reading.Store(false)
	return c.Conn.Read(p)
}

// tapListener taps every conn it accepts into one log.
type tapListener struct {
	net.Listener
	log     wireLog
	reading atomic.Bool
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, log: &l.log, reading: &l.reading}, nil
}

// wire is one client connection to a tapped back end.
type wire struct {
	t            *testing.T
	conn         net.Conn
	br           *bufio.Reader
	sw           *SessionWriter // nil on a v1 conn
	above, below *tapListener
}

// newWire sets up a tapped back end and a connection to it; a server is to
// accept handed-off conns from above.
func newWire(t *testing.T, framed bool) *wire {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w := &wire{t: t, below: &tapListener{Listener: ln}}
	hl := NewListener(w.below)
	w.above = &tapListener{Listener: hl}
	t.Cleanup(func() { hl.Close() })
	if w.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.conn.Close() })
	w.conn.SetDeadline(time.Now().Add(10 * time.Second))
	w.br = bufio.NewReader(w.conn)
	if framed {
		w.sw = NewSessionWriter(w.conn)
	}
	return w
}

// handoff hands the connection off with initial as the bytes already read
// from the client: as a session-framed transport, or as a v1 conn.
func (w *wire) handoff(initial string) {
	w.t.Helper()
	var flags byte
	if w.sw != nil {
		flags = FlagRehandoff | FlagSessionFramed
	}
	if err := Send(w.conn, "192.0.2.1:4000", []byte(initial), flags); err != nil {
		w.t.Fatal(err)
	}
}

// startHTTPWire hands a connection carrying initial off to an unmodified
// net/http server.
func startHTTPWire(t *testing.T, framed bool, initial string, handler func(*wire) http.HandlerFunc) *wire {
	t.Helper()
	w := newWire(t, framed)
	srv := &http.Server{Handler: handler(w)}
	go srv.Serve(w.above)
	t.Cleanup(func() { srv.Close() })
	w.handoff(initial)
	return w
}

// send is the client's next bytes on the handed-off connection.
func (w *wire) send(p string) {
	w.t.Helper()
	var err error
	if w.sw != nil {
		_, err = w.sw.Write([]byte(p))
	} else {
		_, err = w.conn.Write([]byte(p))
	}
	if err != nil {
		w.t.Fatal(err)
	}
}

// response reads the next response whole; the body's error is returned,
// not fatal, for the row whose handler aborts.
func (w *wire) response(method string) (*http.Response, []byte, error) {
	w.t.Helper()
	resp, err := http.ReadResponse(w.br, &http.Request{Method: method})
	if err != nil {
		w.t.Fatalf("reading response: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, body, err
}

// parked waits until the server's background read — net/http starts one
// before every handler that has no request body left to read — is waiting
// in the transport. It runs beside the handler and sends what is held when
// it starts; once it is parked a test's write counts are exact.
func (w *wire) parked() {
	for deadline := time.Now().Add(5 * time.Second); !w.below.reading.Load(); runtime.Gosched() {
		if time.Now().After(deadline) {
			w.t.Error("the server's background read never reached the transport")
			return
		}
	}
}

// check holds what every row must: the transport carried the server's bytes
// in the server's order, in no more writes than the server made, and in
// exactly want of them.
func (w *wire) check(want int) {
	w.t.Helper()
	serverWrites, in := w.above.log.snapshot()
	writes, out := w.below.log.snapshot()
	if out != in {
		w.t.Errorf("transport carried %d bytes, server wrote %d: not the same bytes", len(out), len(in))
	}
	if writes > serverWrites {
		w.t.Errorf("%d transport writes for %d server writes", writes, serverWrites)
	}
	if writes != want {
		w.t.Errorf("%d transport writes (server made %d), want %d", writes, serverWrites, want)
	}
}

// sized answers /N with N bytes and a Content-Length.
func sized(w *wire) http.HandlerFunc {
	return func(rw http.ResponseWriter, r *http.Request) {
		n, err := strconv.Atoi(r.URL.Path[1:])
		if err != nil {
			w.t.Errorf("bad path %q", r.URL.Path)
		}
		w.parked()
		rw.Header().Set("Content-Length", strconv.Itoa(n))
		rw.Header().Set("Content-Type", "application/octet-stream")
		rw.Write(bytes.Repeat([]byte("x"), n))
	}
}

func get(n int) string { return fmt.Sprintf("GET /%d HTTP/1.1\r\nHost: t\r\n\r\n", n) }

// bothWires runs a row over a session-framed transport and over a v1 conn.
func bothWires(t *testing.T, row func(t *testing.T, framed bool)) {
	t.Run("session", func(t *testing.T) { row(t, true) })
	t.Run("v1", func(t *testing.T) { row(t, false) })
}

// TestResponseLeavesInOneWrite is the rule and its boundary: every
// length-delimited response that fits the window is one transport write
// (two on the parent from 4 KB up: net/http's buffer), a longer one leaves
// as the server wrote it.
func TestResponseLeavesInOneWrite(t *testing.T) {
	// The head's length for a five-digit Content-Length, to find the
	// boundary: a probe answers it.
	probe := startHTTPWire(t, true, get(10000), sized)
	if _, body, err := probe.response("GET"); err != nil || len(body) != 10000 {
		t.Fatalf("probe: %d bytes, %v", len(body), err)
	}
	_, out := probe.below.log.snapshot()
	fits := httprelay.ReaderSize - (len(out) - 10000)

	for _, row := range []struct {
		name string
		size int
		want int
	}{
		{"1KB", 1 << 10, 1},
		{"3.9KB", 3994, 1},
		{"4KB", 4 << 10, 1},
		{"8KB", 8 << 10, 1},
		{"fills the window", fits, 1},
		{"one byte over", fits + 1, 2},
		{"64KB", 64 << 10, 2},
	} {
		t.Run(row.name, func(t *testing.T) {
			bothWires(t, func(t *testing.T, framed bool) {
				w := startHTTPWire(t, framed, get(row.size), sized)
				if resp, body, err := w.response("GET"); err != nil || resp.StatusCode != 200 || len(body) != row.size {
					t.Fatalf("status %d, %d body bytes, %v", resp.StatusCode, len(body), err)
				}
				w.check(row.want)
			})
		})
	}
}

// TestChunkedResponseWrittenThrough: the first response without a length
// ends the framing, and every write of it leaves as it comes, a flushed
// chunk when it is flushed.
func TestChunkedResponseWrittenThrough(t *testing.T) {
	bothWires(t, func(t *testing.T, framed bool) {
		second := make(chan struct{})
		w := startHTTPWire(t, framed, get(0), func(w *wire) http.HandlerFunc {
			return func(rw http.ResponseWriter, r *http.Request) {
				w.parked()
				io.WriteString(rw, "first chunk")
				rw.(http.Flusher).Flush()
				<-second // written only once the first has arrived
				rw.Write(bytes.Repeat([]byte("y"), 5000))
			}
		})
		resp, err := http.ReadResponse(w.br, nil)
		if err != nil || len(resp.TransferEncoding) == 0 {
			t.Fatalf("response %+v, %v: want a chunked one", resp, err)
		}
		first := make([]byte, len("first chunk"))
		if _, err := io.ReadFull(resp.Body, first); err != nil || string(first) != "first chunk" {
			t.Fatalf("first chunk: %q, %v", first, err)
		}
		close(second)
		if rest, err := io.ReadAll(resp.Body); err != nil || len(rest) != 5000 {
			t.Fatalf("rest of the body: %d bytes, %v", len(rest), err)
		}
		serverWrites, _ := w.above.log.snapshot()
		w.check(serverWrites)
	})
}

// TestBodilessResponsesLeaveAtOnce: a response to HEAD carries a
// Content-Length and no body, which its head cannot tell; it leaves when
// the server turns to its read side, not when a body arrives, and the next
// response on the session is framed again. 204 and 304 never wait.
func TestBodilessResponsesLeaveAtOnce(t *testing.T) {
	for _, status := range []int{http.StatusOK, http.StatusNoContent, http.StatusNotModified} {
		t.Run(strconv.Itoa(status), func(t *testing.T) {
			bothWires(t, func(t *testing.T, framed bool) {
				method := "GET"
				if status == http.StatusOK {
					method = "HEAD"
				}
				w := startHTTPWire(t, framed, method+" /bodiless HTTP/1.1\r\nHost: t\r\n\r\n", func(w *wire) http.HandlerFunc {
					return func(rw http.ResponseWriter, r *http.Request) {
						if r.URL.Path == "/bodiless" {
							w.parked()
							rw.Header().Set("Content-Length", "8192")
							rw.WriteHeader(status)
							return
						}
						sized(w)(rw, r)
					}
				})
				if resp, body, err := w.response(method); err != nil || resp.StatusCode != status || len(body) != 0 {
					t.Fatalf("status %d, %d body bytes, %v", resp.StatusCode, len(body), err)
				}
				w.check(1)
				w.send(get(8192))
				if _, body, err := w.response("GET"); err != nil || len(body) != 8192 {
					t.Fatalf("GET after %s: %d body bytes, %v", method, len(body), err)
				}
				w.check(2)
			})
		})
	}
}

// TestExpectContinueAndPipelining: an interim 100 leaves by itself, before
// the client sends the body it waits with; two requests that arrive
// together get one write each.
func TestExpectContinueAndPipelining(t *testing.T) {
	t.Run("100-continue", func(t *testing.T) {
		bothWires(t, func(t *testing.T, framed bool) {
			w := startHTTPWire(t, framed, "POST /8192 HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\n", func(w *wire) http.HandlerFunc {
				return func(rw http.ResponseWriter, r *http.Request) {
					if body, _ := io.ReadAll(r.Body); string(body) != "hello" {
						w.t.Errorf("request body %q", body)
					}
					sized(w)(rw, r)
				}
			})
			if resp, _, _ := w.response("POST"); resp.StatusCode != 100 {
				t.Fatalf("status %d before the body was sent, want 100", resp.StatusCode)
			}
			w.send("hello")
			if resp, body, err := w.response("POST"); err != nil || resp.StatusCode != 200 || len(body) != 8192 {
				t.Fatalf("status %d, %d body bytes, %v", resp.StatusCode, len(body), err)
			}
			w.check(2)
		})
	})
	t.Run("pipelined", func(t *testing.T) {
		bothWires(t, func(t *testing.T, framed bool) {
			w := startHTTPWire(t, framed, get(8192)+get(6000), sized)
			for _, size := range []int{8192, 6000} {
				if _, body, err := w.response("GET"); err != nil || len(body) != size {
					t.Fatalf("%d body bytes, %v, want %d", len(body), err, size)
				}
			}
			w.check(2)
		})
	})
}

// TestAbortedResponseReachesThePeer: a handler that gives up inside a body
// it declared leaves the peer what the parent's pass-through left it — the
// bytes written, then the close — and nothing stays held.
func TestAbortedResponseReachesThePeer(t *testing.T) {
	bothWires(t, func(t *testing.T, framed bool) {
		w := startHTTPWire(t, framed, get(0), func(w *wire) http.HandlerFunc {
			return func(rw http.ResponseWriter, r *http.Request) {
				w.parked()
				rw.Header().Set("Content-Length", "8192")
				rw.Write(bytes.Repeat([]byte("z"), 5000))
				panic(http.ErrAbortHandler)
			}
		})
		if _, body, err := w.response("GET"); err != io.ErrUnexpectedEOF || len(body) != 5000 {
			t.Fatalf("%d body bytes, %v: want 5000 and an unexpected EOF", len(body), err)
		}
		serverWrites, _ := w.above.log.snapshot()
		w.check(serverWrites)
	})
}

// TestLineServerAnswersBeforeItReads: the listener promises any TCP server,
// not only an HTTP one. A server that answers a line and reads the next is
// never waited for, even when its answer begins like a response head.
func TestLineServerAnswersBeforeItReads(t *testing.T) {
	bothWires(t, func(t *testing.T, framed bool) {
		w := newWire(t, framed)
		go func() {
			for {
				c, err := w.above.Accept()
				if err != nil {
					return
				}
				go func() {
					defer c.Close()
					for br := bufio.NewReader(c); ; {
						line, err := br.ReadString('\n')
						if err != nil {
							return
						}
						io.WriteString(c, line)
					}
				}()
			}
		}()
		lines := []string{"HTTP/1.1 200 OK\n", "plain line\n", "HT\n", "HTTP/1.1 204 No Content\n"}
		w.handoff(lines[0])
		for i, line := range lines {
			if i > 0 {
				w.send(line)
			}
			if got, err := w.br.ReadString('\n'); err != nil || got != line {
				t.Fatalf("line %d: %q, %v, want %q", i, got, err, line)
			}
		}
	})
}

// TestFramingStartsAgainWithTheSession: what the writer gave up "for the rest
// of the session" it gave up for that session. A server that keeps its conn
// for the transport's next session (NextSession) answers the first session
// with a response that ends the framing or leaves it mid-count, and the
// second with 8 KB in three writes, which must leave in one; the conn is by
// then the second client's.
func TestFramingStartsAgainWithTheSession(t *testing.T) {
	sized := []string{"HTTP/1.1 200 OK\r\nContent-Length: 8192\r\n\r\n", strings.Repeat("x", 4096), strings.Repeat("y", 4096)}
	for _, row := range []struct {
		name  string
		first []string // the first session's response, write by write
		want  int      // transport writes it leaves in
	}{
		{"chunked", []string{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n", "5\r\nhello\r\n", "0\r\n\r\n"}, 3},
		{"close-delimited", []string{"HTTP/1.0 200 OK\r\n\r\n", "until a close"}, 2},
		{"no HTTP", []string{"+OK\r\n"}, 1},
		{"half a head", []string{"HTTP/1.1 200 OK\r\nContent-Le"}, 1},
		{"a length and no body", []string{"HTTP/1.1 200 OK\r\nContent-Length: 8192\r\n\r\n"}, 1},
		{"a long body cut short", []string{"HTTP/1.1 200 OK\r\nContent-Length: 65536\r\n\r\n", "HTTP/"}, 2},
	} {
		t.Run(row.name, func(t *testing.T) {
			w := newWire(t, true)
			served := make(chan struct{})
			go func() {
				defer close(served)
				c, err := w.above.Accept()
				if err != nil {
					t.Error(err)
					return
				}
				defer c.Close()
				br := bufio.NewReader(c)
				for i, response := range [][]string{row.first, sized} {
					if i > 0 {
						if err := c.(*tapConn).Conn.(interface{ NextSession() error }).NextSession(); err != nil {
							t.Error(err)
							return
						}
						if got := c.RemoteAddr().String(); got != "192.0.2.2:5000" {
							t.Errorf("RemoteAddr in the second session: %s", got)
						}
					}
					if _, err := br.ReadString('\n'); err != nil {
						t.Errorf("session %d: reading the request: %v", i, err)
						return
					}
					for _, p := range response {
						io.WriteString(c, p)
					}
					if _, err := br.ReadByte(); err != io.EOF {
						t.Errorf("session %d: %v where the session ends, want EOF", i, err)
						return
					}
				}
			}()
			w.handoff("go\n")
			if _, err := io.CopyN(io.Discard, w.br, int64(len(strings.Join(row.first, "")))); err != nil {
				t.Fatal(err)
			}
			if err := w.sw.Handoff("192.0.2.2:5000", []byte("go\n"), FlagRehandoff); err != nil {
				t.Fatal(err)
			}
			if _, err := io.CopyN(io.Discard, w.br, int64(len(strings.Join(sized, "")))); err != nil {
				t.Fatal(err)
			}
			if err := w.sw.End(); err != nil {
				t.Fatal(err)
			}
			<-served
			w.check(row.want + 1)
		})
	}
}

// TestResponseWriterReadSideRaces: net/http reads in the background while
// the handler writes. Whatever the interleaving, the transport carries the
// server's bytes in order (run under -race: the writer's state is shared).
func TestResponseWriterReadSideRaces(t *testing.T) {
	var sink fuzzConn
	sc := newSessionConn(&sink, bufio.NewReader(strings.NewReader("")), nil, 0, make(chan struct{}, 1))
	response := "HTTP/1.1 200 OK\r\nContent-Length: 8192\r\n\r\n" + strings.Repeat("x", 8192)
	var want strings.Builder
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				sc.Read(make([]byte, 1))
			} else {
				sc.SetReadDeadline(time.Time{})
			}
		}
	}()
	for i := 0; i < 200; i++ {
		for rest := response; len(rest) > 0; {
			n := min(len(rest), 4096)
			if _, err := sc.Write([]byte(rest[:n])); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		want.WriteString(response)
	}
	close(stop)
	wg.Wait()
	sc.Close()
	if sink.String() != want.String() {
		t.Fatalf("transport carried %d bytes, server wrote %d: not the same bytes", sink.Len(), want.Len())
	}
}
