package handoff

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
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
