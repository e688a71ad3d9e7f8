//go:build linux

package frontend

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"lard/internal/backend"
	"lard/internal/handoff"
	"lard/internal/trace"
	"lard/pkg/lard"
)

// passNode is one back end as lardbe runs it: a backend.Server served by
// its HTTPServer over a handoff.Listener, which has a pass address.
type passNode struct {
	be   *backend.Server
	ln   *handoff.Listener
	addr string
	stop func()
}

// startPassNode starts a back end on a fresh loopback port.
func startPassNode(t *testing.T, store *backend.DocStore) *passNode {
	t.Helper()
	ln, err := handoff.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	be := backend.New(backend.Config{Store: store, CacheBytes: 1 << 20})
	srv := be.HTTPServer()
	go srv.Serve(ln)
	n := &passNode{be: be, ln: ln, addr: ln.Addr().String(), stop: func() { srv.Close(); ln.Close() }}
	t.Cleanup(n.stop)
	return n
}

// startPassFrontend starts a pinning front end over addrs.
func startPassFrontend(t *testing.T, addrs []string, mod ...func(*Config)) (*Server, string) {
	t.Helper()
	return startRelayFrontend(t, addrs, append([]func(*Config){func(c *Config) { c.ConnPolicy = lard.ConnPin }}, mod...)...)
}

// countingReader counts the bytes a client receives.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// keptClient is one keep-alive client connection to the front end.
type keptClient struct {
	conn net.Conn
	in   *countingReader
	br   *bufio.Reader
}

func dialKept(t *testing.T, feAddr string) *keptClient {
	t.Helper()
	conn, err := net.Dial("tcp", feAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	in := &countingReader{r: conn}
	return &keptClient{conn: conn, in: in, br: bufio.NewReader(in)}
}

func getHead(target string) string { return fmt.Sprintf("GET %s HTTP/1.1\r\nHost: t\r\n\r\n", target) }

// send writes raw request bytes.
func (c *keptClient) send(t *testing.T, raw string) {
	t.Helper()
	if _, err := io.WriteString(c.conn, raw); err != nil {
		t.Fatal(err)
	}
}

// expect reads one response and requires it to be r's document.
func (c *keptClient) expect(t *testing.T, r trace.Request) {
	t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	h, body := readOneResponse(t, c.br, "GET")
	if h.Status != 200 || body != string(backend.ContentBytes(r.Target, r.Size)) {
		t.Fatalf("%s: status %d, %d body bytes; want its %d-byte document", r.Target, h.Status, len(body), r.Size)
	}
}

// get sends a request for r and requires its document.
func (c *keptClient) get(t *testing.T, r trace.Request) {
	t.Helper()
	c.send(t, getHead(r.Target))
	c.expect(t, r)
}

// ended requires the connection to have been closed by its far end.
func (c *keptClient) ended(t *testing.T, what string) {
	t.Helper()
	c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.br.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s: the client read %v, want its connection ended", what, err)
	}
}

// loads is the front end's per-node load right now.
func loads(fe *Server) []int { return fe.Dispatcher().Loads() }

func retired(fe *Server) func() bool {
	return func() bool { return fe.Stats().ActiveSessions == 0 && fe.Dispatcher().InFlight() == 0 }
}

// TestPinnedConnectionIsPassed: a pinned keep-alive connection to a back
// end on this host is passed, and its later requests, a pipelined one
// among them, reach the back end's loop without the front end: one
// dispatch, one handoff, one pass, one takeover and one loop session for
// six requests. Its slot stays in Loads() until the client closes, the done
// record credits every byte the client read, and the next connection
// passes over the same transport, back in the pool once the done record
// came: the first pass is a pool miss, the second a hit.
func TestPinnedConnectionIsPassed(t *testing.T) {
	tr := smallTrace(t, 10, 10)
	n := startPassNode(t, backend.NewDocStore(tr.Targets))
	fe, feAddr := startPassFrontend(t, []string{n.addr})

	c := dialKept(t, feAddr)
	c.send(t, getHead(tr.At(0).Target)+getHead(tr.At(1).Target))
	c.expect(t, tr.At(0))
	c.expect(t, tr.At(1))
	for i := 2; i < 6; i++ {
		c.get(t, tr.At(i))
	}
	waitFor(t, 5*time.Second, "the pass to be counted", func() bool { return fe.Stats().Passed == 1 })
	st := fe.Stats()
	if st.Dispatches != 1 || st.Handoffs != 1 || st.PoolMisses != 1 || st.PoolHits != 0 || st.Served != 0 {
		t.Fatalf("dispatches %d, handoffs %d, pool misses %d, hits %d, served %d; want 1, 1, 1, 0, 0",
			st.Dispatches, st.Handoffs, st.PoolMisses, st.PoolHits, st.Served)
	}
	if bst := n.be.Stats(); bst.Requests != 6 || bst.Takeovers != 1 || bst.LoopSessions != 1 {
		t.Fatalf("back end: %d requests, %d takeovers, %d loop sessions; want 6, 1, 1", bst.Requests, bst.Takeovers, bst.LoopSessions)
	}
	if n.ln.Passed() != 1 || n.ln.Sessions() != 1 {
		t.Fatalf("listener: passed %d, sessions %d; want 1, 1", n.ln.Passed(), n.ln.Sessions())
	}
	if l := loads(fe); l[0] != 1 {
		t.Fatalf("Loads() = %v with the passed connection open, want its slot", l)
	}

	c.conn.Close()
	waitFor(t, 5*time.Second, "the passed session to retire", retired(fe))
	if l := loads(fe); l[0] != 0 {
		t.Fatalf("Loads() = %v after the client closed", l)
	}
	if got := fe.Stats().BackendToClient; got != c.in.n {
		t.Fatalf("BackendToClient = %d, the client read %d", got, c.in.n)
	}

	c2 := dialKept(t, feAddr)
	c2.get(t, tr.At(7))
	c2.conn.Close()
	waitFor(t, 5*time.Second, "the second session to retire", retired(fe))
	st = fe.Stats()
	if st.Passed != 2 || st.PoolHits != 1 || st.PoolMisses != 1 || st.Handoffs != 2 || st.Errors != 0 {
		t.Fatalf("passed %d, pool hits %d, misses %d, handoffs %d, errors %d; want 2, 1, 1, 2, 0",
			st.Passed, st.PoolHits, st.PoolMisses, st.Handoffs, st.Errors)
	}
	series := scrape(t, fe)
	if got := series["lard_fe_passed_total"]; got != st.Passed {
		t.Fatalf("lard_fe_passed_total = %d, Stats says %d", got, st.Passed)
	}
	if got := series[`lard_fe_relay_bytes_total{dir="to_client"}`]; got != uint64(st.BackendToClient) {
		t.Fatalf(`lard_fe_relay_bytes_total{dir="to_client"} = %d, Stats says %d`, got, st.BackendToClient)
	}
}

// TestPassedSlotReleasedWhenBackendDies: a back end that goes ends the
// connections it was passed and their channels, and with the channel the
// front end releases the session's slot.
func TestPassedSlotReleasedWhenBackendDies(t *testing.T) {
	tr := smallTrace(t, 5, 5)
	n := startPassNode(t, backend.NewDocStore(tr.Targets))
	fe, feAddr := startPassFrontend(t, []string{n.addr})
	c := dialKept(t, feAddr)
	c.get(t, tr.At(0))
	waitFor(t, 5*time.Second, "the pass to be counted", func() bool { return fe.Stats().Passed == 1 })
	if l := loads(fe); l[0] != 1 {
		t.Fatalf("Loads() = %v with the passed connection open", l)
	}
	n.stop()
	waitFor(t, 5*time.Second, "the slot to be released", retired(fe))
	c.ended(t, "a client of a back end that went")
}

// TestPassRuleRelays: a connection is passed whole only when its first
// request keeps it open with nothing behind its head, under a pinning
// policy, with no quota, to a back end named as its listener names itself.
// Each other case passes nothing: its session is split, and its response
// goes to the client directly where the back end's loop answers it, or
// relayed where net/http does (a body, HTTP/1.0) or the back end is named
// otherwise.
func TestPassRuleRelays(t *testing.T) {
	tr := smallTrace(t, 5, 5)
	store := backend.NewDocStore(tr.Targets)
	doc := tr.At(0)
	for _, tc := range []struct {
		name    string
		request string
		mod     func(*Config)
		direct  uint64
	}{
		{name: "Connection: close", request: fmt.Sprintf("GET %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n", doc.Target), direct: 1},
		{name: "a request body", request: fmt.Sprintf("GET %s HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\nhi", doc.Target)},
		{name: "HTTP/1.0", request: fmt.Sprintf("GET %s HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", doc.Target)},
		{name: "perreq", request: getHead(doc.Target), mod: func(c *Config) { c.ConnPolicy = lard.ConnPerRequest }, direct: 1},
		{name: "a configured quota", request: getHead(doc.Target), mod: func(c *Config) { c.QuotaRate = 1e6 }, direct: 1},
		{name: "a back end addressed by another spelling", request: getHead(doc.Target), mod: relayOnly},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := startPassNode(t, store)
			var mods []func(*Config)
			if tc.mod != nil {
				mods = append(mods, tc.mod)
			}
			fe, feAddr := startPassFrontend(t, []string{n.addr}, mods...)
			c := dialKept(t, feAddr)
			c.send(t, tc.request)
			c.expect(t, doc)
			waitFor(t, 5*time.Second, "the response to be counted", func() bool { return fe.Stats().Served == 1 })
			if st := fe.Stats(); st.Passed != 0 || st.Handoffs != 1 || n.ln.Passed() != 0 || st.Direct != tc.direct {
				t.Fatalf("passed %d (listener %d), handoffs %d, direct %d; want a session not passed, %d direct",
					st.Passed, n.ln.Passed(), st.Handoffs, st.Direct, tc.direct)
			}
		})
	}
}

// TestPassedConnectionStaysThroughDrain: the drain rule for passed
// connections. A drain stops new passes to the node and moves none it has:
// the passed connection's next request is still its back end's, with no
// re-handoff and its slot still held, while a new connection goes to the
// other node.
func TestPassedConnectionStaysThroughDrain(t *testing.T) {
	tr := smallTrace(t, 10, 10)
	store := backend.NewDocStore(tr.Targets)
	nodes := []*passNode{startPassNode(t, store), startPassNode(t, store)}
	fe, feAddr := startPassFrontend(t, []string{nodes[0].addr, nodes[1].addr}, func(c *Config) { c.Strategy = "lard" })

	c := dialKept(t, feAddr)
	c.get(t, tr.At(0))
	waitFor(t, 5*time.Second, "the pass to be counted", func() bool { return fe.Stats().Passed == 1 })
	first := 0
	if nodes[1].be.Stats().Requests > 0 {
		first = 1
	}
	other := 1 - first
	fe.DrainBackend(first)

	c.get(t, tr.At(1))
	if got := nodes[first].be.Stats().Requests; got != 2 {
		t.Fatalf("the drained node served %d of the passed connection's 2 requests", got)
	}
	if st := fe.Stats(); st.Rehandoffs != 0 || st.Dispatches != 1 {
		t.Fatalf("rehandoffs %d, dispatches %d after the drain; want 0, 1: the front end never saw the request", st.Rehandoffs, st.Dispatches)
	}
	if l := loads(fe); l[first] != 1 {
		t.Fatalf("Loads() = %v: the passed connection's slot went with the drain", l)
	}

	c2 := dialKept(t, feAddr)
	c2.get(t, tr.At(2))
	waitFor(t, 5*time.Second, "the second pass to be counted", func() bool { return fe.Stats().Passed == 2 })
	if nodes[other].ln.Passed() != 1 || nodes[first].ln.Passed() != 1 {
		t.Fatalf("passes: drained node %d, other %d; want the new connection on the other", nodes[first].ln.Passed(), nodes[other].ln.Passed())
	}
	c.conn.Close()
	c2.conn.Close()
	waitFor(t, 5*time.Second, "both sessions to retire", retired(fe))
}

// TestPassedConnectionIdlesOut: with no front end left to time it, a
// passed connection that goes quiet is ended by the back end's loop after
// the front end's headerTimeout, which the pass carried (the listener's own
// bound is minutes), and the session's slot goes with it.
func TestPassedConnectionIdlesOut(t *testing.T) {
	tr := smallTrace(t, 5, 5)
	n := startPassNode(t, backend.NewDocStore(tr.Targets))
	const bound = 300 * time.Millisecond
	fe, feAddr := startPassFrontend(t, []string{n.addr}, func(c *Config) { c.headerTimeout = bound })
	c := dialKept(t, feAddr)
	c.get(t, tr.At(0))
	c.get(t, tr.At(1)) // within the bound: served
	start := time.Now()
	c.ended(t, "an idle passed connection")
	if waited := time.Since(start); waited < bound/2 {
		t.Fatalf("the connection ended %v after its last response, before the %v bound", waited, bound)
	}
	waitFor(t, 5*time.Second, "the slot to be released", retired(fe))
	if st := fe.Stats(); st.Passed != 1 || st.BackendToClient != c.in.n {
		t.Fatalf("passed %d, BackendToClient %d; want 1, the %d bytes the client read", st.Passed, st.BackendToClient, c.in.n)
	}
}

// TestConcurrentPasses: clients that come and go at once each hold a pass
// transport of their own while they last. Every one is passed and served,
// the slots all come back, and every pass is one checkout, a pool hit or a
// miss.
func TestConcurrentPasses(t *testing.T) {
	tr := smallTrace(t, 10, 10)
	n := startPassNode(t, backend.NewDocStore(tr.Targets))
	fe, feAddr := startPassFrontend(t, []string{n.addr})
	const clients, rounds = 8, 3
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			for r := 0; r < rounds; r++ {
				conn, err := net.Dial("tcp", feAddr)
				if err != nil {
					errs <- err
					return
				}
				br := bufio.NewReader(conn)
				for k := 0; k < 3; k++ {
					req := tr.At((i + r + k) % tr.Len())
					io.WriteString(conn, getHead(req.Target))
					conn.SetReadDeadline(time.Now().Add(5 * time.Second))
					resp, err := http.ReadResponse(br, nil)
					if err != nil {
						conn.Close()
						errs <- err
						return
					}
					body, err := io.ReadAll(resp.Body)
					if err != nil || string(body) != string(backend.ContentBytes(req.Target, req.Size)) {
						conn.Close()
						errs <- fmt.Errorf("%s: %d bytes, %v", req.Target, len(body), err)
						return
					}
				}
				conn.Close()
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, "every session to retire", retired(fe))
	st := fe.Stats()
	if st.Passed != clients*rounds || st.Handoffs != st.Passed || st.PoolHits+st.PoolMisses != st.Handoffs || st.Errors != 0 {
		t.Fatalf("passed %d, handoffs %d, pool hits %d + misses %d, errors %d; want %d passes, each one checkout",
			st.Passed, st.Handoffs, st.PoolHits, st.PoolMisses, st.Errors, clients*rounds)
	}
	if got := n.be.Stats().Requests; got != clients*rounds*3 {
		t.Fatalf("the back end served %d requests, want %d", got, clients*rounds*3)
	}
}
