package handoff

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Flags:       FlagRehandoff,
		ClientAddr:  "192.0.2.7:49152",
		InitialData: []byte("GET /index.html HTTP/1.1\r\nHost: x\r\n\r\n"),
	}
	var buf bytes.Buffer
	if err := WriteHeader(&buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := ReadHeader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Flags != h.Flags || got.ClientAddr != h.ClientAddr || !bytes.Equal(got.InitialData, h.InitialData) {
		t.Fatalf("round trip: %+v vs %+v", got, h)
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(addr string, data []byte, flags byte) bool {
		if len(addr) > MaxAddrLen || len(data) > MaxInitialData {
			return true // out of scope
		}
		h := Header{Flags: flags, ClientAddr: addr, InitialData: data}
		var buf bytes.Buffer
		if err := WriteHeader(&buf, h); err != nil {
			return false
		}
		got, err := ReadHeader(&buf)
		if err != nil {
			return false
		}
		return got.Flags == h.Flags && got.ClientAddr == h.ClientAddr &&
			bytes.Equal(got.InitialData, h.InitialData)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderRejectsOversized(t *testing.T) {
	if err := WriteHeader(io.Discard, Header{ClientAddr: strings.Repeat("a", MaxAddrLen+1)}); err == nil {
		t.Fatal("oversized address accepted")
	}
	if err := WriteHeader(io.Discard, Header{InitialData: make([]byte, MaxInitialData+1)}); err == nil {
		t.Fatal("oversized initial data accepted")
	}
}

func TestReadHeaderRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("GARBAGE!"),
		[]byte("LARD"),                    // truncated
		{'L', 'A', 'R', 'D', 99, 0, 0, 0}, // bad version
		{'L', 'A', 'R', 'D', version, 0, 0xFF, 0xFF}, // address too long
	}
	for i, in := range cases {
		if _, err := ReadHeader(bytes.NewReader(in)); err == nil {
			t.Fatalf("case %d: garbage accepted", i)
		}
	}
}

// startBackend runs an http.Server on a handoff.Listener and returns its
// address and the listener.
func startBackend(t *testing.T, handler http.Handler) (string, *Listener) {
	t.Helper()
	ln, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: handler}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); ln.Close() })
	return ln.Addr().String(), ln
}

// handoffRequest performs the front-end side by hand: connects to the
// backend, sends a handoff header carrying an HTTP request, and returns
// the raw response bytes.
func handoffRequest(t *testing.T, addr, clientAddr, request string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := Send(conn, clientAddr, []byte(request), 0); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	out, err := io.ReadAll(conn)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestHandoffServesUnmodifiedHTTPServer(t *testing.T) {
	var gotRemote string
	addr, _ := startBackend(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotRemote = r.RemoteAddr
		fmt.Fprintf(w, "hello %s", r.URL.Path)
	}))
	resp := handoffRequest(t, addr, "192.0.2.9:1234",
		"GET /docs/a.html HTTP/1.1\r\nHost: lard\r\nConnection: close\r\n\r\n")
	if !strings.Contains(resp, "200 OK") || !strings.Contains(resp, "hello /docs/a.html") {
		t.Fatalf("response:\n%s", resp)
	}
	// The paper's transparency claim: the server sees the *client's*
	// address, not the front end's.
	if gotRemote != "192.0.2.9:1234" {
		t.Fatalf("backend saw RemoteAddr %q, want client address", gotRemote)
	}
}

func TestHandoffInitialDataPlusStreamedData(t *testing.T) {
	// A request head split across the handoff message and the live
	// stream must reassemble seamlessly.
	addr, _ := startBackend(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "got %d bytes", len(body))
	}))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	head := "POST /upload HTTP/1.1\r\nHost: x\r\nContent-Length: 10\r\nConnection: close\r\n\r\napple"
	if err := Send(conn, "203.0.113.5:5555", []byte(head), 0); err != nil {
		t.Fatal(err)
	}
	// The remaining body bytes arrive over the connection itself.
	if _, err := conn.Write([]byte("grape")); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	out, _ := io.ReadAll(conn)
	if !strings.Contains(string(out), "got 10 bytes") {
		t.Fatalf("response:\n%s", out)
	}
}

func TestListenerRejectsBadHandshake(t *testing.T) {
	addr, ln := startBackend(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	// A raw HTTP client (no handoff header) must be dropped without
	// killing the accept loop.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"))
	buf := make([]byte, 1)
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("non-handoff connection was served")
	}
	conn.Close()
	// And a proper handoff still works afterwards.
	resp := handoffRequest(t, addr, "192.0.2.1:1", "GET / HTTP/1.0\r\n\r\n")
	if !strings.Contains(resp, "200 OK") {
		t.Fatalf("listener died after bad handshake:\n%s", resp)
	}
	if ln.Rejected() != 1 {
		t.Fatalf("Rejected = %d, want 1", ln.Rejected())
	}
}

func TestConnReadsDrainInitialFirst(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	// The initial data is whatever follows the header in the reader the
	// handshake parsed it from; later bytes follow on the same stream.
	c := newConn(b, bufio.NewReader(b), parseClientAddr("198.51.100.2:999"))
	go func() {
		a.Write([]byte("abcdef"))
		a.Write([]byte("ghi"))
		a.Close()
	}()
	out, err := io.ReadAll(c)
	if err != nil && err != io.EOF && !strings.Contains(err.Error(), "closed") {
		t.Fatal(err)
	}
	if string(out) != "abcdefghi" {
		t.Fatalf("read %q", out)
	}
	if c.RemoteAddr().String() != "198.51.100.2:999" {
		t.Fatalf("RemoteAddr = %v", c.RemoteAddr())
	}
}

func TestConnUnparseableClientAddr(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := newConn(b, bufio.NewReader(b), parseClientAddr("not-an-address"))
	if c.RemoteAddr().String() != "not-an-address" {
		t.Fatalf("RemoteAddr = %v", c.RemoteAddr())
	}
	if c.RemoteAddr().Network() != "tcp" {
		t.Fatalf("Network = %v", c.RemoteAddr().Network())
	}
}

func TestConcurrentHandoffs(t *testing.T) {
	addr, _ := startBackend(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "path=%s", r.URL.Path)
	}))
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			path := fmt.Sprintf("/doc%d", i)
			resp := handoffRequest(t, addr, fmt.Sprintf("10.0.0.%d:1000", i),
				fmt.Sprintf("GET %s HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n", path))
			if !strings.Contains(resp, "path="+path) {
				errs <- fmt.Errorf("wrong response for %s: %s", path, resp)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// wire is one client connection handed off to a server over a Listener:
// as a session-framed transport, or as a v1 conn.
type wire struct {
	t    *testing.T
	ln   *Listener
	conn net.Conn
	br   *bufio.Reader
	sw   *SessionWriter // nil on a v1 conn
}

// newWire sets up a listener and a connection to it; a server is to
// accept handed-off conns from w.ln.
func newWire(t *testing.T, framed bool) *wire {
	t.Helper()
	ln, err := Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	w := &wire{t: t, ln: ln, conn: conn, br: bufio.NewReader(conn)}
	if framed {
		w.sw = NewSessionWriter(conn)
	}
	return w
}

// handoff hands the connection off with initial as the bytes already read
// from the client.
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
func startHTTPWire(t *testing.T, framed bool, initial string, handler http.HandlerFunc) *wire {
	t.Helper()
	w := newWire(t, framed)
	srv := &http.Server{Handler: handler}
	go srv.Serve(w.ln)
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
// not fatal, for the test whose handler aborts.
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

// sized answers /N with N bytes and a Content-Length.
func sized(rw http.ResponseWriter, r *http.Request) {
	n, _ := strconv.Atoi(r.URL.Path[1:])
	rw.Header().Set("Content-Length", strconv.Itoa(n))
	rw.Write(bytes.Repeat([]byte("x"), n))
}

func get(n int) string { return fmt.Sprintf("GET /%d HTTP/1.1\r\nHost: t\r\n\r\n", n) }

// bothWires runs a test over a session-framed transport and over a v1 conn.
func bothWires(t *testing.T, test func(t *testing.T, framed bool)) {
	t.Run("session", func(t *testing.T) { test(t, true) })
	t.Run("v1", func(t *testing.T) { test(t, false) })
}

// TestExpectContinueAndPipelining: an interim 100 reaches the client
// before it sends the body it waits with, and two requests that arrive
// together get their responses in order.
func TestExpectContinueAndPipelining(t *testing.T) {
	t.Run("100-continue", func(t *testing.T) {
		bothWires(t, func(t *testing.T, framed bool) {
			w := startHTTPWire(t, framed, "POST /8192 HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\n", func(rw http.ResponseWriter, r *http.Request) {
				if body, _ := io.ReadAll(r.Body); string(body) != "hello" {
					t.Errorf("request body %q", body)
				}
				sized(rw, r)
			})
			if resp, _, _ := w.response("POST"); resp.StatusCode != 100 {
				t.Fatalf("status %d before the body was sent, want 100", resp.StatusCode)
			}
			w.send("hello")
			if resp, body, err := w.response("POST"); err != nil || resp.StatusCode != 200 || len(body) != 8192 {
				t.Fatalf("status %d, %d body bytes, %v", resp.StatusCode, len(body), err)
			}
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
		})
	})
}

// TestAbortedResponseReachesThePeer: a handler that gives up inside a body
// it declared leaves the peer the bytes written, then the close.
func TestAbortedResponseReachesThePeer(t *testing.T) {
	bothWires(t, func(t *testing.T, framed bool) {
		w := startHTTPWire(t, framed, get(0), func(rw http.ResponseWriter, r *http.Request) {
			rw.Header().Set("Content-Length", "8192")
			rw.Write(bytes.Repeat([]byte("z"), 5000))
			panic(http.ErrAbortHandler)
		})
		if _, body, err := w.response("GET"); err != io.ErrUnexpectedEOF || len(body) != 5000 {
			t.Fatalf("%d body bytes, %v: want 5000 and an unexpected EOF", len(body), err)
		}
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
				c, err := w.ln.Accept()
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
