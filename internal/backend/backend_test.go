package backend

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"lard/internal/handoff"
	"lard/internal/httprelay"
	"lard/internal/trace"
)

func testStore() *DocStore {
	return NewDocStore([]trace.Target{
		{Name: "/a.html", Size: 1000},
		{Name: "/b.html", Size: 2000},
		{Name: "/big.bin", Size: 300000},
	})
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = testStore()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestServeDocumentContent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := get(t, ts.URL+"/a.html")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(body) != 1000 {
		t.Fatalf("body length %d, want 1000", len(body))
	}
	if !bytes.Equal(body, ContentBytes("/a.html", 1000)) {
		t.Fatal("content mismatch with deterministic generator")
	}
}

func TestCacheHitMissHeaders(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	resp, _ := get(t, ts.URL+"/a.html")
	if got := resp.Header.Get("X-Cache"); got != "MISS" {
		t.Fatalf("first request X-Cache = %q", got)
	}
	resp, _ = get(t, ts.URL+"/a.html")
	if got := resp.Header.Get("X-Cache"); got != "HIT" {
		t.Fatalf("second request X-Cache = %q", got)
	}
	st := srv.Stats()
	if st.Requests != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
	// The handler counts the bytes after the copy returns, which the
	// client's read of the body does not wait for.
	for deadline := time.Now().Add(time.Second); st.BytesSent != 2000; st = srv.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("BytesSent = %d", st.BytesSent)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestNotFound(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	resp, _ := get(t, ts.URL+"/missing.html")
	if resp.StatusCode != 404 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if srv.Stats().NotFound != 1 {
		t.Fatalf("stats %+v", srv.Stats())
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/a.html", "text/plain", bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, HEAD" {
		t.Fatalf("status %d, Allow %q: want 405 and the methods there are (RFC 7231 §6.5.5)", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

func TestDiskDelayOnMissOnly(t *testing.T) {
	var slept []time.Duration
	var mu sync.Mutex
	cfg := Config{
		DiskTimeScale: 1.0,
		sleep: func(d time.Duration) {
			mu.Lock()
			slept = append(slept, d)
			mu.Unlock()
		},
	}
	_, ts := newTestServer(t, cfg)
	get(t, ts.URL+"/a.html")
	get(t, ts.URL+"/a.html")
	mu.Lock()
	defer mu.Unlock()
	if len(slept) != 1 {
		t.Fatalf("slept %d times, want 1 (miss only)", len(slept))
	}
	// A 1000-byte file: 28ms + one 4KB transfer unit = 28.41ms.
	if slept[0] != 28*time.Millisecond+410*time.Microsecond {
		t.Fatalf("slept %v", slept[0])
	}
}

func TestCacheEvictionUnderPressure(t *testing.T) {
	cfg := Config{CacheBytes: 2500} // holds a+b but not big
	srv, ts := newTestServer(t, cfg)
	get(t, ts.URL+"/a.html")
	get(t, ts.URL+"/b.html")
	get(t, ts.URL+"/big.bin") // too large to cache at all
	st := srv.Stats()
	if st.CacheUsed > 2500 {
		t.Fatalf("cache used %d over capacity", st.CacheUsed)
	}
	resp, _ := get(t, ts.URL+"/big.bin")
	if resp.Header.Get("X-Cache") != "MISS" {
		t.Fatal("uncacheable object reported HIT")
	}
}

func TestHeadRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Head(ts.URL + "/b.html")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.ContentLength != 2000 {
		t.Fatalf("ContentLength = %d", resp.ContentLength)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	get(t, ts.URL+"/a.html")
	resp, body := get(t, ts.URL+"/_lard/stats")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !bytes.Contains(body, []byte(`"requests":`)) {
		t.Fatalf("stats body: %s", body)
	}
}

// TestDefaultPolicyCountsHits: the cache is GDS-Frequency — a document
// with several hits survives a run of same-sized documents asked for once
// each, which would flush an LRU — and X-Cache and Stats report the same
// hits and misses.
func TestDefaultPolicyCountsHits(t *testing.T) {
	targets := []trace.Target{{Name: "/hot", Size: 1000}}
	for i := 0; i < 10; i++ {
		targets = append(targets, trace.Target{Name: fmt.Sprintf("/once%d", i), Size: 1000})
	}
	t.Run("default", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{Store: NewDocStore(targets), CacheBytes: 3000})
		var hits, misses uint64
		fetch := func(name string) string {
			resp, _ := get(t, ts.URL+name)
			x := resp.Header.Get("X-Cache")
			if x == "HIT" {
				hits++
			} else {
				misses++
			}
			return x
		}
		for i := 0; i < 5; i++ {
			fetch("/hot")
		}
		for _, tg := range targets[1:] {
			fetch(tg.Name)
		}
		if got := fetch("/hot"); got != "HIT" {
			t.Fatalf("/hot after the scan: X-Cache %s, want HIT", got)
		}
		st := srv.Stats()
		if st.Hits != hits || st.Misses != misses || st.Requests != hits+misses || st.CacheUsed > 3000 {
			t.Fatalf("stats %+v; X-Cache said %d hits, %d misses", st, hits, misses)
		}
	})
}

func TestDocStoreBasics(t *testing.T) {
	s := testStore()
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if d, ok := s.lookup("/a.html"); !ok || d.size != 1000 || d.contentLength[0] != "1000" {
		t.Fatalf("lookup = %+v, %v", d, ok)
	}
	if _, ok := s.lookup("/zzz"); ok {
		t.Fatal("phantom target")
	}
	s.Add("/new", 77)
	if d, _ := s.lookup("/new"); d == nil || d.size != 77 || !bytes.Equal(d.block, contentBlock("/new")) {
		t.Fatal("Add failed")
	}
	targets := s.Targets()
	if len(targets) != 4 || targets[0].Name != "/a.html" {
		t.Fatalf("Targets = %v", targets)
	}
}

func TestContentDeterministicAndDistinct(t *testing.T) {
	a1 := ContentBytes("/x", 256)
	a2 := ContentBytes("/x", 256)
	b := ContentBytes("/y", 256)
	if !bytes.Equal(a1, a2) {
		t.Fatal("content not deterministic")
	}
	if bytes.Equal(a1, b) {
		t.Fatal("different targets share content")
	}
}

func TestContentReaderExactLengths(t *testing.T) {
	f := func(size uint16) bool {
		data, err := io.ReadAll(ContentReader("/t", int64(size)))
		return err == nil && len(data) == int(size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestContentReaderMatchesBlockGenerator holds the reader's doubling fill
// to the definition of the content — byte i of a document is byte i%64
// of its block — for sizes and Read buffer lengths that straddle block
// boundaries, read at odd offsets across successive Reads.
func TestContentReaderMatchesBlockGenerator(t *testing.T) {
	block := contentBlock("/t")
	for _, size := range []int{0, 1, 63, 64, 65, 127, 128, 129, 1000, 8192, 8193, 70000} {
		want := make([]byte, size)
		for i := range want {
			want[i] = block[i%len(block)]
		}
		for _, bufLens := range [][]int{{1}, {7}, {63}, {64}, {65}, {100, 3, 129}, {4096}, {1, 8191, 64, 33}, {1 << 17}} {
			r := ContentReader("/t", int64(size))
			var got []byte
			for i := 0; ; i++ {
				buf := make([]byte, bufLens[i%len(bufLens)])
				n, err := r.Read(buf)
				got = append(got, buf[:n]...)
				if err == io.EOF {
					break
				}
				if err != nil || n == 0 {
					t.Fatalf("size %d, buffers %v: Read = %d, %v", size, bufLens, n, err)
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("size %d, buffers %v: content differs from the block generator (%d bytes read)", size, bufLens, len(got))
			}
		}
	}
}

func TestNewPanicsWithoutStore(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(Config{})
}

// bareWriter is a ResponseWriter that costs nothing itself, so that what
// AllocsPerRun counts is the handler's.
type bareWriter struct{ h http.Header }

func (w *bareWriter) Header() http.Header         { return w.h }
func (w *bareWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *bareWriter) WriteHeader(int)             {}

// TestHitAllocatesNothing pins the handler's own cost per cache hit: the
// header values, the content block and the copy buffer are per document or
// pooled, not per request (10 allocations before they were). That is
// net/http's writer; a hit on a session the node has taken over costs, from
// the bytes on the wire to the bytes on the wire, the one string
// httprelay.RequestHead carries its target in. A 512 KB document's hit costs
// the same: it leaves from the same pooled buffer, and its iovecs' array is
// pooled with it.
func TestHitAllocatesNothing(t *testing.T) {
	for _, doc := range []trace.Target{{Name: "/a.html", Size: 1000}, {Name: "/half.bin", Size: 512 << 10}} {
		store := testStore()
		store.Add(doc.Name, doc.Size)
		s := New(Config{Store: store})
		h := s.Handler()
		req := httptest.NewRequest("GET", doc.Name, nil)
		w := &bareWriter{h: make(http.Header)}
		h.ServeHTTP(w, req) // the miss that fills the cache
		if allocs := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) }); allocs != 0 {
			t.Fatalf("%s: %.0f allocations per hit, want 0", doc.Name, allocs)
		}
		if st := s.Stats(); st.Hits != 201 || st.BytesSent != 202*doc.Size || w.h.Get("X-Cache") != "HIT" {
			t.Fatalf("%s: stats %+v, X-Cache %q", doc.Name, st, w.h.Get("X-Cache"))
		}

		sess := startSession(t, s.HTTPServer())
		head := "GET " + doc.Name + " HTTP/1.1\r\nHost: t\r\n\r\n"
		sess.request(t, head)                      // net/http's one, and the takeover
		buf := make([]byte, sess.request(t, head)) // the loop's first: its scratch grows
		frame := []byte(head)
		if allocs := testing.AllocsPerRun(200, func() {
			if _, err := sess.sw.Write(frame); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(sess.br, buf); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Fatalf("%s: %.0f allocations per hit on a taken-over session, want 1 (the target)", doc.Name, allocs)
		}
		if !bytes.HasPrefix(buf, []byte("HTTP/1.1 200 OK\r\n")) || !bytes.HasSuffix(buf, ContentBytes(doc.Name, doc.Size)) {
			t.Fatalf("%s: the session's last response begins %q", doc.Name, buf[:min(len(buf), 200)])
		}
	}
}

// TestSessionBoundaryAllocs pins what a one-request session costs on a
// transport the loop has kept, from the bytes on the wire to the bytes on the
// wire: the handed-off client's address (its string, and the net.TCPAddr
// RemoteAddr reports) and the request's target. Nothing of net/http's: it
// gave a session a conn, a goroutine, two buffers, a Request and a context.
func TestSessionBoundaryAllocs(t *testing.T) {
	s := startSession(t, New(Config{Store: testStore()}).HTTPServer())
	const head = "GET /a.html HTTP/1.1\r\nHost: t\r\n\r\n"
	s.request(t, head)                      // net/http's one, and the takeover
	buf := make([]byte, s.request(t, head)) // the loop's first: its scratch grows
	initial := []byte(head)
	if allocs := testing.AllocsPerRun(200, func() {
		if err := s.sw.Handoff("192.0.2.1:4000", initial, handoff.FlagRehandoff); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(s.br, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 4 {
		t.Fatalf("%.0f allocations per one-request session on a kept transport, want 4 (the client's address, three, and the target)", allocs)
	}
	if !bytes.HasPrefix(buf, []byte("HTTP/1.1 200 OK\r\n")) || !bytes.HasSuffix(buf, ContentBytes("/a.html", 1000)) {
		t.Fatalf("the last session's response begins %q", buf[:min(len(buf), 200)])
	}
}

// countedListener counts the writes made on the conns it accepts: the
// segments a back end sends its front end. sndbuf, if set, is their
// SO_SNDBUF, for a test that needs a Write to block.
type countedListener struct {
	net.Listener
	writes atomic.Int64
	sndbuf int
}

type countedConn struct {
	net.Conn
	writes *atomic.Int64
}

func (l *countedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok && l.sndbuf > 0 {
		tc.SetWriteBuffer(l.sndbuf)
	}
	return &countedConn{c, &l.writes}, err
}

func (c *countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// WriteBuffers counts a writev as the one write it is: without it the
// listener's conns would find no writev under this wrapper and send a
// Write per iovec.
func (c *countedConn) WriteBuffers(v *net.Buffers) (int64, error) {
	c.writes.Add(1)
	return v.WriteTo(c.Conn)
}

// node is a back end served the way lardbe serves it: an http.Server over a
// handoff listener.
type node struct {
	ln *countedListener
	hl *handoff.Listener

	mu       sync.Mutex
	accepted []net.Conn // what the server's Accept returned, as it returned it
}

// Accept is the handoff listener's, remembered: the node is the net.Listener
// its server is given.
func (n *node) Accept() (net.Conn, error) {
	c, err := n.hl.Accept()
	if err == nil {
		n.mu.Lock()
		n.accepted = append(n.accepted, c)
		n.mu.Unlock()
	}
	return c, err
}

func (n *node) Close() error   { return n.hl.Close() }
func (n *node) Addr() net.Addr { return n.hl.Addr() }

// conns is how many conns the server has accepted, and the last of them.
func (n *node) conns() (int, net.Conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.accepted) == 0 {
		return 0, nil
	}
	return len(n.accepted), n.accepted[len(n.accepted)-1]
}

// startNode serves srv; a setup sets the handoff listener's timeouts, or the
// sockets', first.
func startNode(tb testing.TB, srv *http.Server, setup ...func(*node)) *node {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	n := &node{ln: &countedListener{Listener: ln}}
	n.hl = handoff.NewListener(n.ln)
	for _, f := range setup {
		f(n)
	}
	go srv.Serve(n)
	tb.Cleanup(func() { srv.Close(); n.hl.Close() })
	return n
}

// session is a front end's end of one pooled transport to a node.
type session struct {
	ln   *countedListener
	conn net.Conn
	br   *bufio.Reader
	sw   *handoff.SessionWriter
}

// open dials the node a fresh transport; its first request hands off.
func (n *node) open(tb testing.TB) *session {
	tb.Helper()
	s := n.dial(tb)
	tb.Cleanup(func() { s.conn.Close() })
	return s
}

// dial is open for a caller that closes the transport itself.
func (n *node) dial(tb testing.TB) *session {
	tb.Helper()
	conn, err := net.Dial("tcp", n.ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	return &session{ln: n.ln, conn: conn, br: bufio.NewReaderSize(conn, httprelay.ReaderSize), sw: handoff.NewTransportWriter(conn)}
}

func startSession(tb testing.TB, srv *http.Server) *session {
	tb.Helper()
	return startNode(tb, srv).open(tb)
}

// send sends bytes of the session's requests as one frame; the session's
// first ride the handoff header.
func (s *session) send(tb testing.TB, data string) {
	tb.Helper()
	if !s.sw.InSession() {
		s.handoff(tb, "192.0.2.1:4000", data)
	} else if _, err := s.sw.Write([]byte(data)); err != nil {
		tb.Fatal(err)
	}
}

// handoff begins the transport's next session, for client, as the front end
// does: the end-of-session record the last one owes, the header and the
// session's first bytes in one write.
func (s *session) handoff(tb testing.TB, client, data string) {
	tb.Helper()
	if err := s.sw.Handoff(client, []byte(data), handoff.FlagRehandoff); err != nil {
		tb.Fatal(err)
	}
}

// request sends one request head and relays the response to nowhere, as the
// front end reads it.
func (s *session) request(tb testing.TB, head string) int64 {
	tb.Helper()
	s.send(tb, head)
	return s.response(tb)
}

// response relays the next response to nowhere.
func (s *session) response(tb testing.TB) int64 {
	tb.Helper()
	n, _, err := httprelay.RelayResponseFrom(io.Discard, s.br, s.conn, "GET", 1<<16, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// TestHalfHeadSessionIsTimedOut: the handoff listener's handshake timeout
// covers the handoff header only, so the session's own bytes need the
// server's. A peer that stalls inside a request head loses its transport; a
// session that idles between requests, as one parked in the front end's pool
// does, keeps it.
func TestHalfHeadSessionIsTimedOut(t *testing.T) {
	srv := New(Config{Store: testStore()}).HTTPServer()
	if srv.ReadHeaderTimeout <= 0 || srv.IdleTimeout != 0 || srv.ReadTimeout != 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v, ReadTimeout %v: want only the first set", srv.ReadHeaderTimeout, srv.IdleTimeout, srv.ReadTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond // the same clock, sooner
	s := startSession(t, srv)
	s.request(t, "GET /a.html HTTP/1.1\r\nHost: t\r\n\r\n")
	time.Sleep(3 * srv.ReadHeaderTimeout)
	if n := s.request(t, "GET /b.html HTTP/1.1\r\nHost: t\r\n\r\n"); n < 2000 {
		t.Fatalf("after idling, a %d-byte response", n)
	}
	if _, err := s.sw.Write([]byte("GET /a.html HTTP/1.1\r\nHost:")); err != nil {
		t.Fatal(err)
	}
	s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if b, err := s.br.ReadByte(); err != io.EOF {
		t.Fatalf("half a request head: read %q, %v; want the transport closed", b, err)
	}
}

// onlyNetHTTP hides the Hijacker in net/http's ResponseWriter, so that the
// handler answers every request through net/http, as it did all of them
// before it took connections over.
func onlyNetHTTP(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { h.ServeHTTP(struct{ http.ResponseWriter }{w}, r) })
}

// lengthless drops the handler's Content-Length, which makes net/http
// chunk the body.
type lengthless struct{ http.ResponseWriter }

func (w lengthless) WriteHeader(status int) {
	w.Header().Del("Content-Length")
	w.ResponseWriter.WriteHeader(status)
}

// BenchmarkBackendResponse is the back end's hop whole: the node's handler
// behind a handoff listener on loopback, one pooled session, a request per
// iteration. The takeover rows are the node as it is served; the others put
// net/http back under every request and write as it writes, for comparison.
// writes/response is the writes per response its reader has to take: from
// the node's own loop one at any size (8k, 24k: one write; 512k, 3m: one
// writev of the body's 32 KB period, 17 and 97 iovecs).
//
// The last three rows are the HTTP/1.0 shape, a session per request.
// session-per-request is a pooled transport: every iteration hands off a new
// session on the one transport the loop keeps, which costs a header more
// than a request on an open session. transport-per-request is what a front
// end pays that dials for every request (its pool missed, or holds nothing):
// accept, net/http's connection and its Hijack each time, which keeping the
// transport does nothing for. close-per-transport is a v1 handoff of one
// request that asks for a close, as the benchmark's direct load generator
// sends it: taken over like any other, and answered by the loop.
func BenchmarkBackendResponse(b *testing.B) {
	const head = "GET /doc HTTP/1.1\r\nHost: t\r\n\r\n"
	closing := []byte("GET /doc HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
	request := func(b *testing.B, _ *node, s *session) { s.request(b, head) }
	for _, c := range []struct {
		name    string
		size    int64
		wrap    func(http.Handler) http.Handler
		segment float64 // writes/response; 0: not held to one number
		each    func(*testing.B, *node, *session)
	}{
		{"8k", 8 << 10, onlyNetHTTP, 0, request}, {"24k", 24 << 10, onlyNetHTTP, 0, request},
		{"chunked", 8 << 10, func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { h.ServeHTTP(lengthless{w}, r) })
		}, 0, request},
		{"8k/takeover", 8 << 10, nil, 1, request}, {"24k/takeover", 24 << 10, nil, 1, request},
		{"512k/takeover", 512 << 10, nil, 1, request}, {"3m/takeover", 3<<20 - headRoom, nil, 1, request},
		{"8k/session-per-request", 8 << 10, nil, 1, func(b *testing.B, _ *node, s *session) {
			s.handoff(b, "192.0.2.1:4000", head)
			s.response(b)
		}},
		{"8k/transport-per-request", 8 << 10, nil, 1, func(b *testing.B, n *node, _ *session) {
			s := n.dial(b)
			s.request(b, head)
			s.conn.Close()
		}},
		{"8k/close-per-transport", 8 << 10, nil, 1, func(b *testing.B, n *node, _ *session) {
			s := n.dial(b)
			if err := handoff.Send(s.conn, "192.0.2.1:4000", closing, 0); err != nil {
				b.Fatal(err)
			}
			s.response(b)
			s.conn.Close()
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			srv := New(Config{Store: NewDocStore([]trace.Target{{Name: "/doc", Size: c.size}})}).HTTPServer()
			if c.wrap != nil {
				srv.Handler = c.wrap(srv.Handler)
			}
			n := startNode(b, srv)
			s := n.open(b)
			s.request(b, head) // the miss
			before := s.ln.writes.Load()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.each(b, n, s)
			}
			b.StopTimer()
			writes := float64(s.ln.writes.Load()-before) / float64(b.N)
			b.ReportMetric(writes, "writes/response")
			if c.segment != 0 && writes != c.segment {
				b.Fatalf("%d writes for %d responses, want %v each", s.ln.writes.Load()-before, b.N, c.segment)
			}
		})
	}
}
