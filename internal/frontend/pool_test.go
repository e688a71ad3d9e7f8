package frontend

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"lard/internal/backend"
	"lard/internal/handoff"
	"lard/internal/httprelay"
	"lard/internal/metrics"
	"lard/internal/trace"
	"lard/pkg/lard"
)

// pipeConn returns the pool-side end of a fresh in-memory connection.
func pipeConn(t *testing.T) net.Conn {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return a
}

// TestPoolProperty drives the pool through a seeded random schedule of
// puts, checkouts, and sabotage (aging entries past the TTL, killing idle
// conns), for a handful of client connections that park transports and
// come back and some that do neither, and asserts its invariants: the idle
// population never exceeds the per-node bound, parked or not, expired
// connections are never handed out, a transport comes back tagged only to
// the connection that parked it, and the
// counters balance — every checkout is exactly one hit, one resume or one
// miss (even when it pops only expired/dead conns before coming up empty),
// and every put is eventually a hit, a resume, an eviction, or still idle.
func TestPoolProperty(t *testing.T) {
	const size = 3
	const ttl = time.Hour // out of reach except via deliberate aging
	p := newBackendPool(size, ttl, metrics.NewRegistry())
	rng := rand.New(rand.NewSource(7))
	owners := []*lard.Session{nil, nil, new(lard.Session), new(lard.Session), new(lard.Session)}

	var puts, checkouts, handedOut int
	for i := 0; i < 800; i++ {
		node := rng.Intn(4)
		owner := owners[rng.Intn(len(owners))]
		switch rng.Intn(5) {
		case 0, 1:
			b := newBackendConn(node, pipeConn(t))
			b.owner = owner
			p.put(b)
			puts++
		case 2, 3:
			if b, ok := p.get(node, owner); ok {
				handedOut++
				if b.owner != nil && b.owner != owner {
					t.Fatalf("checkout %d handed a transport still tagged for another connection", checkouts)
				}
			}
			checkouts++
		case 4:
			// Sabotage one idle entry so checkouts exercise the
			// expired/dead fall-through: evictions, then a deeper hit
			// or — the undercount regression — exactly one miss.
			p.mu.Lock()
			if conns := p.idle[node]; len(conns) > 0 {
				j := rng.Intn(len(conns))
				if rng.Intn(2) == 0 {
					conns[j].idleSince = conns[j].idleSince.Add(-2 * ttl)
				} else {
					conns[j].c.Close() // the liveness peek will see a dead conn
				}
			}
			p.mu.Unlock()
		}
		for n := 0; n < 4; n++ {
			if _, forNode := p.idleCount(n); forNode > size {
				t.Fatalf("node %d holds %d idle conns, bound %d", n, forNode, size)
			}
		}
	}
	hits, misses, resumes, evictions := p.hits.Value(), p.misses.Value(), p.resumes.Value(), p.evictions.Value()
	if resumes == 0 {
		t.Fatal("the schedule never resumed a parked transport")
	}
	if hits+resumes+misses != uint64(checkouts) {
		t.Fatalf("hits %d + resumes %d + misses %d != checkouts %d", hits, resumes, misses, checkouts)
	}
	if hits+resumes != uint64(handedOut) {
		t.Fatalf("hits %d + resumes %d != successful checkouts %d", hits, resumes, handedOut)
	}
	idle, _ := p.idleCount(-1)
	if uint64(puts) != hits+resumes+evictions+uint64(idle) {
		t.Fatalf("puts %d != hits %d + resumes %d + evictions %d + idle %d", puts, hits, resumes, evictions, idle)
	}
}

// TestPoolChecksOutOwnThenUntaggedThenOldest: get's order. A client
// connection gets the transport it parked; failing that the most recently
// checked-in untagged one; failing that the oldest one parked for someone
// else, which comes back untagged. Another node's transports are never
// in the running.
func TestPoolChecksOutOwnThenUntaggedThenOldest(t *testing.T) {
	p := newBackendPool(8, time.Hour, metrics.NewRegistry())
	me, x, y := new(lard.Session), new(lard.Session), new(lard.Session)
	put := func(node int, owner *lard.Session) *backendConn {
		b := newBackendConn(node, pipeConn(t))
		b.owner = owner
		p.put(b)
		return b
	}
	// Node 0's idle list, oldest first.
	parkedX := put(0, x)
	free1 := put(0, nil)
	mine := put(0, me)
	parkedY := put(0, y)
	free2 := put(0, nil)
	put(1, me) // another node's: never an answer for node 0

	for i, want := range []struct {
		b      *backendConn
		tagged bool
		what   string
	}{
		{mine, true, "the caller's own parked transport"},
		{free2, false, "the newest untagged transport"},
		{free1, false, "the remaining untagged transport"},
		{parkedX, false, "the oldest transport parked for someone else"},
		{parkedY, false, "the last parked transport"},
	} {
		b, ok := p.get(0, me)
		if !ok || b != want.b {
			t.Fatalf("checkout %d: not %s", i, want.what)
		}
		if (b.owner != nil) != want.tagged || want.tagged && b.owner != me {
			t.Fatalf("checkout %d (%s): came back tagged %v, want tagged for the caller: %v", i, want.what, b.owner != nil, want.tagged)
		}
	}
	if _, ok := p.get(0, me); ok {
		t.Fatal("node 0 is empty; the checkout took node 1's transport")
	}
	if hits, misses, resumes := p.hits.Value(), p.misses.Value(), p.resumes.Value(); hits != 4 || misses != 1 || resumes != 1 {
		t.Fatalf("hits %d, misses %d, resumes %d; want 4, 1, 1", hits, misses, resumes)
	}

	// A connection with nothing parked starts at the untagged step, and a
	// checkout on no connection's behalf (the tests' nil) never takes a
	// tagged transport as its own.
	put(0, x)
	free := put(0, nil)
	if b, _ := p.get(0, me); b != free {
		t.Fatal("with nothing parked for the caller, the checkout did not take the untagged transport")
	}
	if b, ok := p.get(0, nil); !ok || b.owner != nil {
		t.Fatal("a checkout for no connection came back tagged")
	}
}

// TestPoolMissCountsExpiredFallthrough is the undercount regression: a
// checkout that pops only expired conns and comes up empty must record
// the evictions AND one miss — the fresh dial it falls through to — so
// PoolHits+PoolMisses equals checkouts and hit-rate stats stay honest.
func TestPoolMissCountsExpiredFallthrough(t *testing.T) {
	p := newBackendPool(4, time.Hour, metrics.NewRegistry())
	for i := 0; i < 2; i++ {
		c := pipeConn(t)
		p.put(newBackendConn(0, c))
	}
	p.mu.Lock()
	for i := range p.idle[0] {
		p.idle[0][i].idleSince = p.idle[0][i].idleSince.Add(-2 * time.Hour)
	}
	p.mu.Unlock()
	if _, ok := p.get(0, nil); ok {
		t.Fatal("expired conn handed out")
	}
	hits, misses, ev := p.hits.Value(), p.misses.Value(), p.evictions.Value()
	if hits != 0 || misses != 1 || ev != 2 {
		t.Fatalf("hits=%d misses=%d evictions=%d, want 0/1/2", hits, misses, ev)
	}
}

// TestPoolZeroesVacatedSlots is the slice-tail-retention regression: the
// capacity-eviction shift in put, the checkout pop, and the sweep
// compaction all truncate the per-node slice, and each must zero the
// vacated tail slots — a dropped *backendConn left in the underlying array
// keeps its conn and 16 KiB reader reachable.
func TestPoolZeroesVacatedSlots(t *testing.T) {
	p := newBackendPool(2, time.Hour, metrics.NewRegistry())
	assertTailZeroed := func(context string) {
		t.Helper()
		p.mu.Lock()
		defer p.mu.Unlock()
		conns := p.idle[0]
		full := conns[:cap(conns)]
		for i := len(conns); i < cap(conns); i++ {
			if full[i] != nil {
				t.Fatalf("%s: vacated slot %d retains %+v", context, i, full[i])
			}
		}
	}

	for i := 0; i < 2; i++ {
		c := pipeConn(t)
		p.put(newBackendConn(0, c))
	}
	c := pipeConn(t)
	p.put(newBackendConn(0, c)) // over capacity: shift-evicts the oldest
	assertTailZeroed("capacity eviction")

	if _, ok := p.get(0, nil); !ok {
		t.Fatal("checkout failed")
	}
	assertTailZeroed("checkout pop")

	p.mu.Lock()
	for i := range p.idle[0] {
		p.idle[0][i].idleSince = p.idle[0][i].idleSince.Add(-2 * time.Hour)
	}
	p.mu.Unlock()
	p.sweep()
	if idle, _ := p.idleCount(-1); idle != 0 {
		t.Fatalf("sweep left %d idle conns", idle)
	}
	assertTailZeroed("sweep compaction")
}

// wrapErrConn wraps every error its Read returns, hiding the net.Error
// behind fmt's wrapper — the shape instrumented and test conns produce.
type wrapErrConn struct{ net.Conn }

func (c wrapErrConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err != nil {
		err = fmt.Errorf("instrumented: %w", err)
	}
	return n, err
}

// TestIsDeadlineErrUnwraps is the misclassification regression: a wrapped
// deadline error is still a deadline expiry, and EOF never is.
func TestIsDeadlineErrUnwraps(t *testing.T) {
	if !isDeadlineErr(os.ErrDeadlineExceeded) {
		t.Fatal("bare deadline error not recognized")
	}
	if !isDeadlineErr(fmt.Errorf("peek: %w", os.ErrDeadlineExceeded)) {
		t.Fatal("wrapped deadline error not recognized")
	}
	if isDeadlineErr(io.EOF) || isDeadlineErr(fmt.Errorf("x: %w", io.EOF)) {
		t.Fatal("EOF misread as deadline expiry")
	}
}

// TestPoolKeepsConnWithWrappedDeadlineErr: the liveness peek on a healthy
// idle conn whose Read wraps its errors must classify the deadline expiry
// as "alive and silent" and hand the conn out, not evict it.
func TestPoolKeepsConnWithWrappedDeadlineErr(t *testing.T) {
	p := newBackendPool(2, time.Hour, metrics.NewRegistry())
	c := wrapErrConn{pipeConn(t)}
	p.put(newBackendConn(0, c))
	b, ok := p.get(0, nil)
	if !ok {
		t.Fatal("healthy conn with wrapping Read evicted as dead")
	}
	if b.c != net.Conn(c) {
		t.Fatal("a different conn was handed out")
	}
	hits, misses, ev := p.hits.Value(), p.misses.Value(), p.evictions.Value()
	if hits != 1 || misses != 0 || ev != 0 {
		t.Fatalf("hits=%d misses=%d evictions=%d, want 1/0/0", hits, misses, ev)
	}
}

// TestPoolTTLAndSweep: an idle connection past its TTL is not handed out
// at checkout, and the janitor's sweep discards it without traffic.
func TestPoolTTLAndSweep(t *testing.T) {
	p := newBackendPool(2, 30*time.Millisecond, metrics.NewRegistry())

	c0 := pipeConn(t)
	p.put(newBackendConn(0, c0))
	time.Sleep(50 * time.Millisecond)
	if _, ok := p.get(0, nil); ok {
		t.Fatal("expired connection handed out")
	}
	if ev := p.evictions.Value(); ev != 1 {
		t.Fatalf("evictions = %d, want 1 (TTL)", ev)
	}

	c1 := pipeConn(t)
	p.put(newBackendConn(1, c1))
	time.Sleep(50 * time.Millisecond)
	p.sweep()
	if idle, _ := p.idleCount(-1); idle != 0 {
		t.Fatalf("sweep left %d idle conns", idle)
	}
}

// TestPoolDetectsDeadConnAtCheckout: a connection the back end closed
// while idle must be discarded by the checkout liveness probe, never
// handed to a session.
func TestPoolDetectsDeadConnAtCheckout(t *testing.T) {
	p := newBackendPool(2, time.Hour, metrics.NewRegistry())
	a, b := net.Pipe()
	defer a.Close()
	p.put(newBackendConn(0, a))
	b.Close() // the "back end" hangs up while the conn is idle
	if _, ok := p.get(0, nil); ok {
		t.Fatal("dead connection handed out")
	}
	if hits, ev := p.hits.Value(), p.evictions.Value(); hits != 0 || ev != 1 {
		t.Fatalf("hits=%d evictions=%d, want 0/1", hits, ev)
	}
}

// TestPoolDetectsDeadTCPConnAtCheckout is the same over real loopback
// TCP, where a zero-deadline peek is blind: the poller reports the expired
// deadline before it issues any read, so a transport whose peer sent FIN
// long ago passed as alive and silent. The probe must look at the
// descriptor. And over a pass transport, whose answers come on a pipe,
// where a socket's peek fails: a back end that closed it, or that wrote a
// stray byte between sessions, costs the transport; a silent one is a hit.
func TestPoolDetectsDeadTCPConnAtCheckout(t *testing.T) {
	for _, tc := range []struct {
		name string
		// dial opens a transport and returns what makes its back end
		// go wrong.
		dial func(t *testing.T) (net.Conn, func())
	}{
		{"tcp", func(t *testing.T) (net.Conn, func()) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ln.Close() })
			near, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			far, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			return near, func() {
				far.Close()                       // the "back end" hangs up while the conn is idle
				time.Sleep(50 * time.Millisecond) // for the FIN to cross the loopback
			}
		}},
		{"pass transport, back end closed", func(t *testing.T) (net.Conn, func()) {
			c, ln, _ := passSession(t)
			return c, func() {
				ln.Close()
				// Close may leave the transport to its own goroutine to
				// close: wait for the EOF, which a read does not consume.
				c.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, err := c.Read(make([]byte, 1)); err != io.EOF {
					t.Fatalf("the transport after its Listener closed: %v, want EOF", err)
				}
				c.SetReadDeadline(time.Time{})
			}
		}},
		{"pass transport, stray byte", func(t *testing.T) (net.Conn, func()) {
			c, _, session := passSession(t)
			return c, func() { session.Write([]byte("x")) }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, spoil := tc.dial(t)
			p := newBackendPool(2, time.Hour, metrics.NewRegistry())
			p.put(newBackendConn(0, c))
			if b, ok := p.get(0, nil); !ok {
				t.Fatal("a live, silent transport was not handed out")
			} else {
				p.put(b)
			}
			spoil()
			if _, ok := p.get(0, nil); ok {
				t.Fatal("a dead or talking transport handed out")
			}
			if hits, ev := p.hits.Value(), p.evictions.Value(); hits != 1 || ev != 1 {
				t.Fatalf("hits=%d evictions=%d, want 1/1", hits, ev)
			}
		})
	}
}

// passSession opens a pass transport to a Listener of its own and one
// plain session on it, ended, so that the Listener holds the transport: the
// transport, the Listener, and the session's conn at the back end. It
// skips where there are no pass transports.
func passSession(t *testing.T) (net.Conn, *handoff.Listener, net.Conn) {
	t.Helper()
	ln, err := handoff.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	c, err := handoff.DialPass(ln.Addr().String())
	if err != nil {
		t.Skipf("no pass transport: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	sw := handoff.NewTransportWriter(c)
	if err := sw.Handoff("192.0.2.1:4000", nil, handoffFlags); err != nil {
		t.Fatal(err)
	}
	if err := sw.End(); err != nil {
		t.Fatal(err)
	}
	session, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { session.Close() })
	return c, ln, session
}

// startPooledFrontend builds a pooled front end over the given back ends.
func startPooledFrontend(t *testing.T, addrs []string, mod ...func(*Config)) (*Server, string) {
	t.Helper()
	cfg := Config{
		Backends:      addrs,
		Strategy:      "wrr",
		ConnPolicy:    "perreq",
		probeInterval: -1,
	}
	for _, m := range mod {
		m(&cfg)
	}
	fe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fe.Serve(ln)
	t.Cleanup(func() { fe.Close() })
	return fe, ln.Addr().String()
}

// rawKeepAliveGet performs one request on a fresh client connection
// without announcing "Connection: close" — the session ends by the
// client hanging up after the response, like a browser abandoning a
// keep-alive connection — and then waits for the front end to retire the
// session, so the back-end transport is back in the pool before the
// caller's next request. (A client that *does* send Connection: close
// is closingExchange, in owedend_test.go: the front end consumes the
// option, so its transport is pooled just the same.)
func rawKeepAliveGet(t *testing.T, fe *Server, feAddr, target string) int {
	t.Helper()
	conn, err := net.Dial("tcp", feAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", target)
	br := bufio.NewReader(conn)
	h, _ := readOneResponse(t, br, "GET")
	conn.Close()
	waitFor(t, 5*time.Second, "session to retire", func() bool {
		return fe.Stats().ActiveSessions == 0
	})
	return h.Status
}

// TestPooledHandoffReuse is the tentpole's e2e smoke: successive client
// connections to the same node must reuse one back-end transport (pool
// hits), and the back end must see one TCP connection carrying many
// sessions.
func TestPooledHandoffReuse(t *testing.T) {
	tr := smallTrace(t, 10, 50)
	store := backend.NewDocStore(tr.Targets)
	be := backend.New(backend.Config{Store: store, CacheBytes: 1 << 20})
	ln, err := handoff.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: be.Handler()}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); ln.Close() })

	fe, feAddr := startPooledFrontend(t, []string{ln.Addr().String()})

	const reqs = 20
	for i := 0; i < reqs; i++ {
		if code := rawKeepAliveGet(t, fe, feAddr, tr.At(i%tr.Len()).Target); code != 200 {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	st := fe.Stats()
	if st.PoolHits == 0 {
		t.Fatalf("no pool hits over %d sequential sessions: %+v", reqs, st)
	}
	if st.PoolHits+st.PoolMisses == 0 || st.PoolMisses > 3 {
		t.Fatalf("pool misses %d: the dial was not amortized (hits %d)", st.PoolMisses, st.PoolHits)
	}
	if got := be.Stats().Requests; got != reqs {
		t.Fatalf("back end served %d requests, want %d", got, reqs)
	}
	if sessions := ln.Sessions(); sessions != reqs {
		t.Fatalf("back end saw %d sessions, want %d", sessions, reqs)
	}
}

// TestHeadThenGetOnPooledSession: a response to HEAD carries a
// Content-Length and no body, which the back end's writer cannot tell from
// its head. It must reach the front end when the server is done with it,
// not wait for a body, and leave the session framed for the GET behind it.
func TestHeadThenGetOnPooledSession(t *testing.T) {
	store := backend.NewDocStore([]trace.Target{{Name: "/doc", Size: 8 << 10}})
	be := backend.New(backend.Config{Store: store, CacheBytes: 1 << 20})
	ln, err := handoff.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := be.HTTPServer()
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); ln.Close() })
	fe, feAddr := startPooledFrontend(t, []string{ln.Addr().String()})

	// One connection that comes and goes leaves its transport in the pool.
	if code := rawKeepAliveGet(t, fe, feAddr, "/doc"); code != 200 {
		t.Fatalf("warm-up: status %d", code)
	}
	conn, err := net.Dial("tcp", feAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for _, method := range []string{"HEAD", "GET", "HEAD", "GET"} {
		fmt.Fprintf(conn, "%s /doc HTTP/1.1\r\nHost: t\r\n\r\n", method)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		h, body := readOneResponse(t, br, method)
		want := 8 << 10
		if method == "HEAD" {
			want = 0
		}
		if h.Status != 200 || h.ContentLength != 8<<10 || len(body) != want {
			t.Fatalf("%s: status %d, Content-Length %d, %d body bytes", method, h.Status, h.ContentLength, len(body))
		}
	}
	if st := fe.Stats(); st.PoolHits != 1 || st.PoolMisses != 1 || ln.Sessions() != 2 {
		t.Fatalf("pool hits %d, misses %d, back-end sessions %d: want one pooled transport and the four requests on one session", st.PoolHits, st.PoolMisses, ln.Sessions())
	}
}

// TestPoolEvictionOnMembership: drain, mark-down, and removal must each
// discard the node's pooled connections — no session may be handed to a
// gone node through a warm transport. Runs in the CI race job.
func TestPoolEvictionOnMembership(t *testing.T) {
	tr := smallTrace(t, 12, 60)
	store := backend.NewDocStore(tr.Targets)
	var addrs []string
	for i := 0; i < 3; i++ {
		be := backend.New(backend.Config{Store: store, CacheBytes: 1 << 20})
		ln, err := handoff.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: be.Handler()}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close(); ln.Close() })
		addrs = append(addrs, ln.Addr().String())
	}
	fe, feAddr := startPooledFrontend(t, addrs)

	get := func(i int) {
		t.Helper()
		if code := rawKeepAliveGet(t, fe, feAddr, tr.At(i%tr.Len()).Target); code != 200 {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	// Warm the pool on every node (WRR round-robins).
	for i := 0; i < 12; i++ {
		get(i)
	}
	if idle, _ := fe.pool.idleCount(0); idle == 0 {
		t.Fatal("pool not warmed")
	}

	// Drain node 0: its idle transports must go immediately.
	fe.DrainBackend(0)
	if _, forNode := fe.pool.idleCount(0); forNode != 0 {
		t.Fatalf("drained node still pools %d conns", forNode)
	}
	before := fe.Stats()
	for i := 0; i < 9; i++ {
		get(100 + i)
	}
	if _, forNode := fe.pool.idleCount(0); forNode != 0 {
		t.Fatalf("drained node re-pooled %d conns under traffic", forNode)
	}
	if hits := fe.Stats().PoolHits; hits == before.PoolHits {
		t.Fatal("survivors not served through the pool")
	}

	// Removal likewise.
	fe.UndrainBackend(0)
	for i := 0; i < 6; i++ {
		get(200 + i)
	}
	fe.RemoveBackend(0)
	if _, forNode := fe.pool.idleCount(0); forNode != 0 {
		t.Fatalf("removed node still pools %d conns", forNode)
	}

	// Mark-down (via SetBackendDown, the manual Section 2.6 path).
	if _, forNode := fe.pool.idleCount(1); forNode == 0 {
		for i := 0; i < 6; i++ {
			get(300 + i)
		}
	}
	fe.SetBackendDown(1, true)
	if _, forNode := fe.pool.idleCount(1); forNode != 0 {
		t.Fatalf("marked-down node still pools %d conns", forNode)
	}
}

// TestDialFailureRedispatch is the headline bugfix test: with healthy
// alternates present, a refused back-end dial must never surface to the
// client as a 502 — the session re-dispatches to another node.
func TestDialFailureRedispatch(t *testing.T) {
	tr := smallTrace(t, 8, 40)
	store := backend.NewDocStore(tr.Targets)
	be := backend.New(backend.Config{Store: store, CacheBytes: 1 << 20})
	ln, err := handoff.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: be.Handler()}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); ln.Close() })

	// A dead address that refuses instantly.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	// The mark-down threshold is out of reach: every request that WRR
	// sends to the dead node must be saved by re-dispatch alone.
	fe, feAddr := startPooledFrontend(t, []string{deadAddr, ln.Addr().String()}, func(c *Config) {
		c.dialTimeout = 250 * time.Millisecond
		c.dialFailuresBeforeDown = 1 << 30
	})

	client := &http.Client{
		Transport: &http.Transport{DisableKeepAlives: true},
		Timeout:   5 * time.Second,
	}
	for i := 0; i < 20; i++ {
		resp, err := client.Get("http://" + feAddr + tr.At(i%tr.Len()).Target)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d — dial failure leaked to the client", i, resp.StatusCode)
		}
	}
	st := fe.Stats()
	if st.Redispatches == 0 {
		t.Fatalf("no re-dispatches recorded: %+v", st)
	}
	if st.RehandoffFails != 0 {
		t.Fatalf("RehandoffFails = %d, want 0", st.RehandoffFails)
	}
	// WRR keeps choosing the dead node, so roughly half the requests
	// should have been saved.
	if st.Redispatches < 5 {
		t.Fatalf("Redispatches = %d, want ~10", st.Redispatches)
	}

	// Regression: completing a redispatched request must release the
	// *replacement* claim (the original done was superseded) — idle
	// keep-alive connections hold no admission capacity. Two sessions,
	// one request each, held open: WRR guarantees one of them was
	// redispatched off the dead node.
	var held []net.Conn
	defer func() {
		for _, c := range held {
			c.Close()
		}
	}()
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", feAddr)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, conn)
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", tr.At(i).Target)
		readOneResponse(t, bufio.NewReader(conn), "GET")
	}
	waitFor(t, 5*time.Second, "idle sessions to release their slots", func() bool {
		return fe.Dispatcher().InFlight() == 0
	})
}

// TestStaleConnRetriedTransparently: a pooled transport the back end
// drops right after accepting the next session's header (the keep-alive
// race: header written, nothing comes back) must be retried once on a
// fresh connection with nothing visible to the client.
func TestStaleConnRetriedTransparently(t *testing.T) {
	const doc = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok"
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })

	// A hand-rolled back end speaking the session-framed protocol: the
	// first transport serves one session, absorbs the end-of-session
	// record, accepts the *second* session's header — and hangs up. The
	// retry's fresh transport then serves normally.
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		br := bufio.NewReader(conn)
		if _, err := handoff.ReadHeader(br); err != nil {
			return
		}
		io.WriteString(conn, doc)
		var end [4]byte
		io.ReadFull(br, end[:]) // end-of-session record
		// Second session: take the header, then die silently.
		handoff.ReadHeader(br)
		conn.Close()

		conn2, err := ln.Accept()
		if err != nil {
			return
		}
		br2 := bufio.NewReader(conn2)
		if _, err := handoff.ReadHeader(br2); err != nil {
			return
		}
		io.WriteString(conn2, doc)
		var end2 [4]byte
		io.ReadFull(br2, end2[:])
		conn2.Close()
	}()

	fe, feAddr := startPooledFrontend(t, []string{ln.Addr().String()})
	client := &http.Client{
		Transport: &http.Transport{DisableKeepAlives: true},
		Timeout:   5 * time.Second,
	}
	for i := 0; i < 2; i++ {
		resp, err := client.Get("http://" + feAddr + "/x")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || string(body) != "ok" {
			t.Fatalf("request %d: %d %q — stale conn leaked to the client", i, resp.StatusCode, body)
		}
		// The client has its response before the relay loop checks the
		// transport in; the next request must find it in the pool, or it
		// would dial past the scripted back end's first connection.
		waitFor(t, 5*time.Second, "the transport to be checked in", func() bool {
			return fe.Stats().ActiveSessions == 0
		})
	}
	st := fe.Stats()
	if st.StaleRetries == 0 {
		t.Fatalf("StaleRetries = 0: the retry path did not run (%+v)", st)
	}
	if st.PoolHits == 0 {
		t.Fatalf("PoolHits = 0: second session did not come from the pool (%+v)", st)
	}
}

// buildRequestHead parses a literal head for tests and benchmarks.
func buildRequestHead(t testing.TB, raw string) httprelay.RequestHead {
	t.Helper()
	head, err := httprelay.ReadRequestHead(bufio.NewReader(strings.NewReader(raw)), 1<<16)
	if err != nil {
		t.Fatalf("parsing %q: %v", raw, err)
	}
	return head
}
