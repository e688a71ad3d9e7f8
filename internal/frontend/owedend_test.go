package frontend

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lard/internal/handoff"
)

// closingExchange plays one client that announces the end of its
// connection: it sends request, requires a complete 200 and then EOF,
// and waits for the front end to retire the session, so the back-end
// transport is back in the pool before the next client arrives.
func closingExchange(t *testing.T, fe *Server, feAddr, request string) string {
	t.Helper()
	conn, err := net.Dial("tcp", feAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, request); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	h, body := readOneResponse(t, br, "GET")
	if h.Status != 200 {
		t.Fatalf("%q: status %d", request, h.Status)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("%q: after the response the client read %v, want EOF", request, err)
	}
	waitFor(t, 5*time.Second, "session to retire", func() bool {
		return fe.Stats().ActiveSessions == 0
	})
	return body
}

// recordingListener hands the server conns that keep what it read from
// them: the bytes of each handed-off session exactly as the back end's
// application received them.
type recordingListener struct {
	net.Listener
	mu       sync.Mutex
	sessions [][]byte
}

type recordingConn struct {
	net.Conn
	l   *recordingListener
	got []byte
}

func (l *recordingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &recordingConn{Conn: c, l: l}, nil
}

func (c *recordingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.mu.Lock() // the server may Close from another goroutine
	c.got = append(c.got, p[:n]...)
	c.l.mu.Unlock()
	return n, err
}

func (c *recordingConn) Close() error {
	c.l.mu.Lock()
	c.l.sessions = append(c.l.sessions, c.got)
	c.l.mu.Unlock()
	return c.Conn.Close()
}

// TestCloseRequestKeepsTransport: Connection is hop-by-hop. N clients in
// a row that each announce "close" cost one dial between them: the front
// end honours the option itself, the back end gets the head with the
// token blanked and every other byte as sent, answers keep-alive, and its
// transport goes back to the pool. An HTTP/1.0 request without keep-alive
// has no token to blank and still costs its transport.
func TestCloseRequestKeepsTransport(t *testing.T) {
	hln, err := handoff.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingListener{Listener: hln}
	var sawClose atomic.Int32
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Close {
			sawClose.Add(1)
		}
		body, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, "%s %d", r.Method, len(body))
	})}
	go srv.Serve(rec)
	t.Cleanup(func() { srv.Close(); hln.Close() })
	fe, feAddr := startPooledFrontend(t, []string{hln.Addr().String()})

	requests := []struct{ sent, body, token string }{
		{"GET /a HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n", "GET 0", "close"},
		{"POST /b HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 5\r\n\r\nhello", "POST 5", "close"},
		{"GET /c HTTP/1.1\r\nConnection: close, TE\r\nHost: t\r\n\r\n", "GET 0", "close"},
		{"GET /d HTTP/1.1\r\nHost: t\r\nconnection: keep-alive\r\nConnection: CLOSE\r\n\r\n", "GET 0", "CLOSE"},
	}
	for _, rq := range requests {
		if body := closingExchange(t, fe, feAddr, rq.sent); body != rq.body {
			t.Fatalf("%q: body %q, want %q", rq.sent, body, rq.body)
		}
	}
	n := uint64(len(requests))
	st := fe.Stats()
	if st.PoolMisses != 1 || st.PoolHits != n-1 || st.Handoffs != n {
		t.Fatalf("%d closing clients: %d dials, %d pool hits, %d handoffs; want 1, %d, %d", n, st.PoolMisses, st.PoolHits, st.Handoffs, n-1, n)
	}
	if st.CloseConsumed != n || st.SessionEndsWithHeader != n-1 || st.Errors != 0 {
		t.Fatalf("close consumed %d, ends with header %d, errors %d; want %d, %d, 0", st.CloseConsumed, st.SessionEndsWithHeader, st.Errors, n, n-1)
	}
	if got := hln.Sessions(); got != n {
		t.Fatalf("back end saw %d sessions, want %d", got, n)
	}
	if sawClose.Load() != 0 {
		t.Fatalf("%d requests reached the handler with r.Close set", sawClose.Load())
	}

	// An HTTP/1.0 request without keep-alive closes by its version: the
	// front end rewrites no versions, the back end closes the session,
	// and the transport dies with it. The client still gets its response.
	if body := closingExchange(t, fe, feAddr, "GET /e HTTP/1.0\r\nHost: t\r\n\r\n"); body != "GET 0" {
		t.Fatalf("HTTP/1.0 request: body %q", body)
	}
	if st := fe.Stats(); st.PoolHits != n || st.PoolIdle != 0 || st.CloseConsumed != n {
		t.Fatalf("after the HTTP/1.0 request: %d pool hits, %d idle, %d close consumed; want %d, 0, %d", st.PoolHits, st.PoolIdle, st.CloseConsumed, n, n)
	}
	closingExchange(t, fe, feAddr, requests[0].sent)
	if st := fe.Stats(); st.PoolMisses != 2 {
		t.Fatalf("the request after the HTTP/1.0 one: %d dials in all, want 2", st.PoolMisses)
	}

	// Every session that ended at the back end delivered its request as
	// sent, but for the blanked token. (The last session is still open:
	// its end-of-session record is owed.)
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.sessions) < len(requests) {
		t.Fatalf("%d sessions recorded, want at least %d", len(rec.sessions), len(requests))
	}
	for i, rq := range requests {
		want := strings.Replace(rq.sent, rq.token, "     ", 1)
		if got := string(rec.sessions[i]); got != want {
			t.Fatalf("session %d reached the back end as\n%q, want\n%q", i, got, want)
		}
	}
}

// countingConn counts the Write calls made on a transport.
type countingConn struct {
	net.Conn
	writes atomic.Int32
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// scriptedBackend serves handed-off sessions by hand, one at a time: it
// answers every request head with a small keep-alive response, reads the
// session to its end, and reports what the session carried.
func scriptedBackend(t *testing.T) (*handoff.Listener, <-chan string) {
	t.Helper()
	ln, err := handoff.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	sessions := make(chan string, 16) // more than any test here opens
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			var got []byte
			buf := make([]byte, 4096)
			for {
				n, err := c.Read(buf)
				got = append(got, buf[:n]...)
				if bytes.HasSuffix(got, []byte("\r\n\r\n")) && n > 0 {
					io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
				}
				if err != nil {
					if err != io.EOF {
						got = append(got, ("<" + err.Error() + ">")...)
					}
					break
				}
			}
			sessions <- string(got)
			c.Close()
		}
	}()
	return ln, sessions
}

// TestEndRidesWithNextHeader: the request side of a pool-hit handoff is
// exactly one Write on the transport — the end-of-session record the
// previous session owes, the header and the head together — and a
// request that stays on its back end is exactly one more. The back end
// still sees each session end before the next begins.
func TestEndRidesWithNextHeader(t *testing.T) {
	ln, sessions := scriptedBackend(t)
	fe, feAddr := startPooledFrontend(t, []string{ln.Addr().String()})

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	transport := &countingConn{Conn: raw}
	fe.pool.put(newBackendConn(0, transport))
	expectWrites := func(want int32, after string) {
		t.Helper()
		if got := transport.writes.Load(); got != want {
			t.Fatalf("after %s: %d writes on the transport, want %d", after, got, want)
		}
	}

	const closing = "GET /a HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
	closingExchange(t, fe, feAddr, closing)
	expectWrites(1, "the first handoff (nothing owed)")

	// One client connection, three requests: a handoff, then two that
	// stay on the session.
	conn, err := net.Dial("tcp", feAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	const keep = "GET /b HTTP/1.1\r\nHost: t\r\n\r\n"
	for i := 0; i < 3; i++ {
		io.WriteString(conn, keep)
		if h, _ := readOneResponse(t, br, "GET"); h.Status != 200 {
			t.Fatalf("keep-alive request %d: status %d", i, h.Status)
		}
		expectWrites(int32(2+i), fmt.Sprintf("keep-alive request %d", i))
	}
	conn.Close()
	waitFor(t, 5*time.Second, "session to retire", func() bool { return fe.Stats().ActiveSessions == 0 })

	closingExchange(t, fe, feAddr, closing)
	expectWrites(5, "the third handoff")

	st := fe.Stats()
	if st.PoolHits != 3 || st.PoolMisses != 0 || st.SessionEndsWithHeader != 2 || st.SessionEndsSwept != 0 {
		t.Fatalf("hits %d, misses %d, ends with header %d, swept %d; want 3, 0, 2, 0",
			st.PoolHits, st.PoolMisses, st.SessionEndsWithHeader, st.SessionEndsSwept)
	}
	// The listener yields a session only after the one before it read
	// EOF and was closed, so two sessions reported means both ended
	// cleanly, in order, each carrying exactly its own requests.
	blanked := strings.Replace(closing, "close", "     ", 1)
	for i, want := range []string{blanked, keep + keep + keep} {
		select {
		case got := <-sessions:
			if got != want {
				t.Fatalf("session %d carried %q, want %q", i, got, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("session %d never ended at the back end", i)
		}
	}
}

// TestIdleTransportIsEnded: a transport that goes idle with its session
// open is ended by the pool's sweep — the back-end handler sees EOF while
// the transport waits in the pool, with no TTL configured at all — and is
// still a pool hit afterwards.
func TestIdleTransportIsEnded(t *testing.T) {
	ln, sessions := scriptedBackend(t)
	fe, err := New(Config{
		Backends:      []string{ln.Addr().String()},
		Strategy:      "wrr",
		ConnPolicy:    "perreq",
		probeInterval: -1,
		poolIdle:      -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	const every = 50 * time.Millisecond
	fe.pool.every = every // before Serve starts the janitor
	feLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fe.Serve(feLn)
	t.Cleanup(func() { fe.Close() })
	feAddr := feLn.Addr().String()

	const closing = "GET /a HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
	closingExchange(t, fe, feAddr, closing)
	left := time.Now()
	select {
	case <-sessions:
	case <-time.After(5 * time.Second):
		t.Fatal("the back end's session never saw EOF while its transport sat idle")
	}
	// Idle for a full interval at one sweep, ended by it: under two
	// intervals after the client left. The slack is for a loaded host.
	if waited := time.Since(left); waited > 2*every+time.Second {
		t.Fatalf("EOF reached the back end %v after the client left; the sweep runs every %v", waited, every)
	}
	waitFor(t, 5*time.Second, "the swept transport to be back in the pool", func() bool {
		st := fe.Stats()
		return st.SessionEndsSwept == 1 && st.PoolIdle == 1
	})

	closingExchange(t, fe, feAddr, closing)
	st := fe.Stats()
	if st.PoolMisses != 1 || st.PoolHits != 1 || st.SessionEndsWithHeader != 0 {
		t.Fatalf("after the sweep: %d dials, %d hits, %d ends with header; want 1, 1, 0", st.PoolMisses, st.PoolHits, st.SessionEndsWithHeader)
	}
}

// TestBackendIdleCloseCostsAMiss: a back end whose server gives up on the
// open session before the front end pays its end-of-session record (an
// http.Server.IdleTimeout) tears the transport down. The checkout probe
// must see that, so the next handoff is a pool miss on a fresh dial with
// nothing visible to the client — even for a POST, which could not be
// retried once written to a dead transport.
func TestBackendIdleCloseCostsAMiss(t *testing.T) {
	hln, err := handoff.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{
		IdleTimeout: 20 * time.Millisecond,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			fmt.Fprintf(w, "%s %d", r.Method, len(body))
		}),
	}
	go srv.Serve(hln)
	t.Cleanup(func() { srv.Close(); hln.Close() })
	fe, feAddr := startPooledFrontend(t, []string{hln.Addr().String()})

	closingExchange(t, fe, feAddr, "GET /a HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
	waitFor(t, 5*time.Second, "the back end to close the idle transport", func() bool {
		fe.pool.mu.Lock()
		defer fe.pool.mu.Unlock()
		return len(fe.pool.idle[0]) == 1 && !fe.pool.idle[0][0].silent()
	})
	body := closingExchange(t, fe, feAddr, "POST /b HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: 5\r\n\r\nhello")
	if body != "POST 5" {
		t.Fatalf("POST after the back end's idle close: body %q", body)
	}
	st := fe.Stats()
	if st.PoolMisses != 2 || st.PoolHits != 0 || st.PoolEvictions != 1 || st.StaleRetries != 0 || st.Errors != 0 {
		t.Fatalf("misses %d, hits %d, evictions %d, stale retries %d, errors %d; want 2, 0, 1, 0, 0",
			st.PoolMisses, st.PoolHits, st.PoolEvictions, st.StaleRetries, st.Errors)
	}
}

// TestPoolHitHandoffAllocs: the front end's side of a pool-hit handoff —
// checkout with its probe, the one write, check-in — allocates at most
// once, and a resume — the same client connection back on the transport
// it parked — not at all. The transport is real loopback TCP; the far end
// only discards.
func TestPoolHitHandoffAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(io.Discard, c); c.Close() }()
		}
	}()
	s, err := New(Config{Backends: []string{ln.Addr().String()}, Strategy: "wrr", probeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	head := buildRequestHead(t, "GET /x HTTP/1.1\r\nHost: t\r\n\r\n")
	cc := &clientConn{addr: "192.0.2.1:4000"} // cc.sess: the client connection the transport is parked for
	handoffOnce := func() {
		b, err := s.connectBackend(cc, 0, &head, false, false)
		if err != nil {
			t.Fatal(err)
		}
		b.clean = true
		s.releaseBackend(b, cc.sess)
	}
	handoffOnce() // the dial
	allocs := testing.AllocsPerRun(200, handoffOnce)
	t.Logf("allocs per pool-hit handoff: %v", allocs)
	if allocs > 1 {
		t.Fatalf("a pool-hit handoff allocates %v times, want at most 1", allocs)
	}
	before := s.Stats()
	if before.PoolMisses != 1 || before.SessionResumes != 0 {
		t.Fatalf("%d dials, %d resumes; want 1, 0: the measured handoffs were not pool hits", before.PoolMisses, before.SessionResumes)
	}

	cc.sess = s.d.NewSession(s.policy)
	defer cc.sess.Close()
	handoffOnce() // the last untagged checkout: parks the transport for cc.sess
	allocs = testing.AllocsPerRun(200, handoffOnce)
	t.Logf("allocs per resume: %v", allocs)
	if allocs != 0 {
		t.Fatalf("a resume allocates %v times, want 0", allocs)
	}
	st := s.Stats()
	if st.PoolMisses != 1 || st.SessionResumes != 201 || st.Handoffs != before.Handoffs+1 {
		t.Fatalf("%d dials, %d resumes, %d handoffs beyond the first phase; want 1, 201, 1",
			st.PoolMisses, st.SessionResumes, st.Handoffs-before.Handoffs)
	}
}
