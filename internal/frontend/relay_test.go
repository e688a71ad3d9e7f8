package frontend

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lard/internal/backend"
	"lard/internal/handoff"
	"lard/internal/httprelay"
	"lard/internal/loadgen"
	"lard/pkg/lard"
)

// startRawBackend runs fn for every handed-off connection on a fresh
// handoff listener, for tests that need byte-level control of the
// back-end side.
func startRawBackend(t *testing.T, fn func(net.Conn)) string {
	t.Helper()
	ln, err := handoff.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go fn(conn)
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// startRelayFrontend builds a re-handoff front end over the given
// back-end addresses.
func startRelayFrontend(t *testing.T, addrs []string, mod ...func(*Config)) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return startRelayFrontendOn(t, ln, addrs, mod...), ln.Addr().String()
}

// startRelayFrontendOn is startRelayFrontend serving ln.
func startRelayFrontendOn(t *testing.T, ln net.Listener, addrs []string, mod ...func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Backends:      addrs,
		Strategy:      "wrr",
		ConnPolicy:    lard.ConnPerRequest,
		probeInterval: -1,
	}
	for _, m := range mod {
		m(&cfg)
	}
	fe, err := New(cfg)
	if err != nil {
		ln.Close()
		t.Fatal(err)
	}
	go fe.Serve(ln)
	t.Cleanup(func() { fe.Close() })
	return fe
}

// readOneResponse reads one full response off a raw client connection.
func readOneResponse(t *testing.T, br *bufio.Reader, method string) (httprelay.ResponseHead, string) {
	t.Helper()
	h, err := httprelay.ReadResponseHead(br, 1<<16)
	if err != nil {
		t.Fatalf("reading response head: %v", err)
	}
	var body strings.Builder
	if _, _, err := httprelay.CopyResponseBody(&body, br, h, method); err != nil {
		t.Fatalf("reading response body: %v", err)
	}
	return h, body.String()
}

// TestChunkedResponseThroughRehandoff is the acceptance criterion: a
// chunked HTTP/1.1 response relays through re-handoff mode without
// downgrading the connection — the same client connection carries the
// next request, served by a different back end.
func TestChunkedResponseThroughRehandoff(t *testing.T) {
	// Two real net/http back ends whose handler emits chunked responses
	// (no Content-Length, explicit flush).
	var addrs []string
	for i := 0; i < 2; i++ {
		i := i
		ln, err := handoff.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fl := w.(http.Flusher)
			fmt.Fprintf(w, "chunk-one-from-%d|", i)
			fl.Flush()
			fmt.Fprintf(w, "chunk-two-for%s", r.URL.Path)
		})}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close(); ln.Close() })
		addrs = append(addrs, ln.Addr().String())
	}
	fe, feAddr := startRelayFrontend(t, addrs, func(c *Config) { c.Strategy = "lb" })

	conn, err := net.Dial("tcp", feAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)

	// Enough distinct targets that LB maps some to each back end.
	seen := map[string]bool{}
	for i := 0; i < 8; i++ {
		target := fmt.Sprintf("/doc-%d", i)
		fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n\r\n", target)
		h, body := readOneResponse(t, br, "GET")
		if h.Status != 200 || !h.Chunked {
			t.Fatalf("request %d: status %d chunked=%v (response downgraded?)", i, h.Status, h.Chunked)
		}
		if !strings.Contains(body, "chunk-two-for"+target) {
			t.Fatalf("request %d: body %q lost through chunk relay", i, body)
		}
		for _, b := range []string{"from-0", "from-1"} {
			if strings.Contains(body, b) {
				seen[b] = true
			}
		}
	}
	st := fe.Stats()
	if st.Accepted != 1 {
		t.Fatalf("Accepted = %d: the client connection did not survive chunked relaying", st.Accepted)
	}
	if len(seen) < 2 || st.Rehandoffs == 0 {
		t.Fatalf("no re-handoff across back ends (seen %v, rehandoffs %d)", seen, st.Rehandoffs)
	}
}

// TestHTTP10BackendResponseNotReused is the satellite regression: an
// HTTP/1.0 back-end response without Connection: keep-alive must not
// leave the back-end connection in the reuse pool — the front end closes
// the client connection (the close semantics were relayed verbatim)
// instead of blocking a follow-up request against a dying socket.
func TestHTTP10BackendResponseNotReused(t *testing.T) {
	addr := startRawBackend(t, func(conn net.Conn) {
		defer conn.Close()
		br := bufio.NewReader(conn)
		if _, err := httprelay.ReadRequestHead(br, 1<<16); err != nil {
			return
		}
		// An HTTP/1.0 server: respond, then close without ceremony.
		io.WriteString(conn, "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok")
	})
	_, feAddr := startRelayFrontend(t, []string{addr})

	conn, err := net.Dial("tcp", feAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "GET /a HTTP/1.1\r\nHost: t\r\n\r\n")
	h, body := readOneResponse(t, br, "GET")
	if h.Status != 200 || body != "ok" {
		t.Fatalf("first response: %d %q", h.Status, body)
	}
	// The front end must close promptly (EOF), not hold the connection
	// waiting to relay onto the closed back-end socket.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("connection after HTTP/1.0 response: %v, want EOF", err)
	}
}

// TestSmugglingShapedRequestsRejected covers the Content-Length satellite
// end to end: framing violations must be answered with 400 and never
// forwarded, in both whole-connection and re-handoff modes.
func TestSmugglingShapedRequestsRejected(t *testing.T) {
	forwarded := make(chan string, 16)
	addr := startRawBackend(t, func(conn net.Conn) {
		defer conn.Close()
		buf := make([]byte, 4096)
		n, _ := conn.Read(buf)
		forwarded <- string(buf[:n])
	})

	bad := []string{
		"POST /x HTTP/1.1\r\nHost: t\r\nContent-Length: -5\r\n\r\n",
		"POST /x HTTP/1.1\r\nHost: t\r\nContent-Length: 5 GET /evil HTTP/1.1\r\n\r\n",
		"POST /x HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n",
		"POST /x HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
	}
	for _, policy := range []string{lard.ConnPin, lard.ConnPerRequest} {
		_, feAddr := startRelayFrontend(t, []string{addr}, func(c *Config) {
			c.ConnPolicy = policy
		})
		for _, raw := range bad {
			conn, err := net.Dial("tcp", feAddr)
			if err != nil {
				t.Fatal(err)
			}
			io.WriteString(conn, raw)
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			h, err := httprelay.ReadResponseHead(bufio.NewReader(conn), 1<<16)
			if err != nil {
				t.Fatalf("connpolicy=%s %q: no response: %v", policy, raw, err)
			}
			if h.Status != 400 {
				t.Fatalf("connpolicy=%s %q: status %d, want 400", policy, raw, h.Status)
			}
			conn.Close()
		}
		select {
		case head := <-forwarded:
			t.Fatalf("connpolicy=%s: smuggling-shaped head reached the back end: %q", policy, head)
		default:
		}
	}
}

// TestPersistentKeepAliveE2E drives the whole P-HTTP stack end to end:
// the load generator's raw keep-alive client (bounded requests per
// connection) against a live front end in per-request re-handoff mode
// over real back ends — every response framed by the same httprelay code
// on both sides. Run under -race in CI.
func TestPersistentKeepAliveE2E(t *testing.T) {
	tr := smallTrace(t, 60, 600)
	perNodeCache := int64(20 * 4096)
	mc := startCluster(t, 3, "lard", tr, perNodeCache, func(c *Config) {
		c.ConnPolicy = lard.ConnPerRequest
	})

	st, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL:     "http://" + mc.feAddr,
		Trace:       tr,
		Clients:     4,
		KeepAlive:   true,
		ReqsPerConn: 8,
		ConnDist:    loadgen.ConnDistGeometric,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors > 0 {
		t.Fatalf("loadgen errors: %d of %d", st.Errors, st.Requests+st.Errors)
	}
	if st.Requests != uint64(tr.Len()) {
		t.Fatalf("served %d of %d requests", st.Requests, tr.Len())
	}
	var reqs uint64
	for _, be := range mc.backends {
		s := be.Stats()
		reqs += s.Requests
		if s.Requests == 0 {
			t.Fatal("a back end saw no traffic: re-handoff not spreading")
		}
	}
	if reqs != uint64(tr.Len()) {
		t.Fatalf("back ends served %d of %d", reqs, tr.Len())
	}
	fst := mc.fe.Stats()
	// Bounded connections: far fewer accepts than requests; re-handoffs
	// must have occurred for mixed targets on one connection.
	if fst.Accepted >= uint64(tr.Len())/2 {
		t.Fatalf("Accepted = %d for %d requests: keep-alive not reusing connections", fst.Accepted, tr.Len())
	}
	if fst.Rehandoffs == 0 {
		t.Fatal("no re-handoffs across a keep-alive run")
	}
}

// TestIdleConnectionTimeoutClosesQuietly pins the end-of-life
// classification: a connection that idles past headerTimeout without
// sending a byte is closed silently — no 400, no error count — in both
// dispatch modes. (A connection that dies *mid-head* is still a framing
// error.)
func TestIdleConnectionTimeoutClosesQuietly(t *testing.T) {
	addr := startRawBackend(t, func(conn net.Conn) { conn.Close() })
	for _, policy := range []string{lard.ConnPin, lard.ConnPerRequest} {
		fe, feAddr := startRelayFrontend(t, []string{addr}, func(c *Config) {
			c.ConnPolicy = policy
			c.headerTimeout = 150 * time.Millisecond
		})
		conn, err := net.Dial("tcp", feAddr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 64)
		n, rerr := conn.Read(buf)
		if n != 0 || rerr != io.EOF {
			t.Fatalf("connpolicy=%s: idle timeout produced %d bytes (%q), err %v; want silent EOF",
				policy, n, buf[:n], rerr)
		}
		conn.Close()
		if got := fe.Stats().Errors; got != 0 {
			t.Fatalf("connpolicy=%s: idle timeout counted %d errors", policy, got)
		}
	}
}

// TestAddBackendProbedAfterMarkDown is the health-slice regression: a
// node added via AddBackend after construction must be counted by the
// mark-down accounting and revived by the prober, exactly like a
// configured node.
func TestAddBackendProbedAfterMarkDown(t *testing.T) {
	tr := smallTrace(t, 10, 20)
	mc := startCluster(t, 1, "wrr", tr, 1<<20, func(c *Config) {
		c.probeInterval = 50 * time.Millisecond
		c.dialFailuresBeforeDown = 1
		c.dialTimeout = 500 * time.Millisecond
	})

	// Reserve an address with nothing behind it, then join it.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	joinAddr := dead.Addr().String()
	dead.Close()
	node := mc.fe.AddBackend(joinAddr)

	// Drive fresh connections until the added node attracts a dial and
	// gets marked down.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	deadline := time.Now().Add(10 * time.Second)
	for mc.fe.Stats().MarkedDown == 0 {
		if time.Now().After(deadline) {
			t.Fatal("added node never marked down")
		}
		resp, err := client.Get("http://" + mc.feAddr + tr.At(0).Target)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}

	// Bring a real back end up on the joined address; the prober must
	// restore the node without operator intervention.
	ln, err := handoff.Listen("tcp", joinAddr)
	if err != nil {
		t.Skipf("could not rebind reserved address %s: %v", joinAddr, err)
	}
	be := backend.New(backend.Config{Store: backend.NewDocStore(tr.Targets), CacheBytes: 1 << 20})
	srv := &http.Server{Handler: be.Handler()}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); ln.Close() })

	for mc.fe.Stats().ProbeRecoveries == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("probe never restored added node %d (stats %+v, nodes %+v)",
				node, mc.fe.Stats(), mc.fe.Nodes())
		}
		time.Sleep(10 * time.Millisecond)
	}
	states := mc.fe.Dispatcher().NodeStates()
	if states[node].Down {
		t.Fatalf("node %d still down after probe recovery", node)
	}
}

// TestDispatcherAddedNodeMarkedDownAtOnce: a node the dispatcher gained
// without AddBackend has no record, so no address to dial. Its first dial
// marks it down, below the consecutive-failure threshold, and the request
// is redispatched to the configured node; the admin view, the prober and
// the latency accounting pass over the node without a record.
func TestDispatcherAddedNodeMarkedDownAtOnce(t *testing.T) {
	tr := smallTrace(t, 10, 20)
	mc := startCluster(t, 1, "wrr", tr, 1<<20, func(c *Config) {
		c.probeInterval = -1
	})
	fe := mc.fe
	node := fe.Dispatcher().AddNode()

	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for i := 0; fe.Stats().Redispatches == 0; i++ {
		if i == 4 {
			t.Fatalf("wrr never chose node %d in %d requests: %+v", node, i, fe.Stats())
		}
		resp, err := client.Get("http://" + mc.feAddr + tr.At(i).Target)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	if st := fe.Stats(); st.MarkedDown != 1 || st.Redispatches != 1 || st.Errors != 0 {
		t.Fatalf("marked down %d, redispatches %d, errors %d; want 1, 1, 0", st.MarkedDown, st.Redispatches, st.Errors)
	}
	nodes := fe.Nodes()
	if len(nodes) != 2 || !nodes[node].State.Down || nodes[node].Addr != "" || nodes[node].DialFails != 0 {
		t.Fatalf("nodes = %+v, want node %d down with no address", nodes, node)
	}
	fe.probeOnce()
	fe.observeRequest(node, time.Millisecond)
	if st := fe.Stats(); st.Probes != 0 || st.Served == 0 {
		t.Fatalf("probes %d, served %d: want no probe of a node with no address", st.Probes, st.Served)
	}
}

// TestAddBackendUnderReaders: AddBackend grows the record table while the
// relay's latency accounting and the admin view read it from other
// goroutines; every joined node ends with its own address and histogram.
func TestAddBackendUnderReaders(t *testing.T) {
	fe, err := New(Config{Backends: []string{"127.0.0.1:1"}, probeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	const joins = 16
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, n := range fe.Nodes() {
					fe.observeRequest(n.Node, time.Millisecond)
				}
			}
		}()
	}
	for i := 1; i <= joins; i++ {
		if node := fe.AddBackend(fmt.Sprintf("127.0.0.1:%d", i+1)); node != i {
			t.Fatalf("join %d got node %d", i, node)
		}
	}
	close(stop)
	wg.Wait()
	nodes := fe.Nodes()
	if len(nodes) != joins+1 {
		t.Fatalf("%d nodes, want %d", len(nodes), joins+1)
	}
	series := scrape(t, fe)
	for i, n := range nodes {
		if want := fmt.Sprintf("127.0.0.1:%d", i+1); n.Addr != want {
			t.Fatalf("node %d addr %q, want %q", i, n.Addr, want)
		}
		if _, ok := series[fmt.Sprintf(`lard_fe_node_request_seconds_count{node="%d"}`, i)]; !ok {
			t.Fatalf("node %d has no latency series", i)
		}
	}
}

// TestBackendHangupAnswers502: a back end that accepts the handoff, takes
// the whole request, and hangs up without a response byte must cost the
// client a clean 502, never a bare close — on a fresh dial (no stale
// retry applies) and for a non-idempotent method (no replay allowed).
func TestBackendHangupAnswers502(t *testing.T) {
	addr := startRawBackend(t, func(c net.Conn) {
		if req, err := http.ReadRequest(bufio.NewReader(c)); err == nil {
			io.Copy(io.Discard, req.Body)
		}
		c.Close() // mid-session: the listener tears the transport down
	})
	fe, feAddr := startRelayFrontend(t, []string{addr})
	for _, req := range []string{
		"GET /x HTTP/1.1\r\nHost: t\r\n\r\n",
		"POST /x HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\nhi",
	} {
		method := req[:strings.IndexByte(req, ' ')]
		conn, err := net.Dial("tcp", feAddr)
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		io.WriteString(conn, req)
		h, err := httprelay.ReadResponseHead(bufio.NewReader(conn), 1<<16)
		conn.Close()
		if err != nil {
			t.Fatalf("%s: no response, want 502: %v", method, err)
		}
		if h.Status != http.StatusBadGateway {
			t.Fatalf("%s: status %d, want 502", method, h.Status)
		}
	}
	if st := fe.Stats(); st.Errors != 2 || st.StaleRetries != 0 || st.Served != 0 {
		t.Fatalf("errors=%d staleRetries=%d served=%d, want 2/0/0", st.Errors, st.StaleRetries, st.Served)
	}
}

// TestBackendDiesMidSmallBody: a back end that sends a complete head and
// dies before a window-sized body is complete must never cost the client
// a truncated 200. The relay holds a response that fits its window until
// it is whole, so nothing has reached the client when the back end dies:
// a fresh dial and a non-idempotent method get a clean 502, and an
// idempotent request on a pooled transport takes the transparent stale
// retry and is served whole.
func TestBackendDiesMidSmallBody(t *testing.T) {
	const bodyLen = 8 << 10
	body := strings.Repeat("d", bodyLen)
	var diedOnce atomic.Bool
	addr := startRawBackend(t, func(c net.Conn) {
		defer c.Close()
		req, err := http.ReadRequest(bufio.NewReader(c))
		if err != nil {
			return
		}
		io.Copy(io.Discard, req.Body)
		fmt.Fprintf(c, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", bodyLen)
		if req.URL.Path == "/die" || req.URL.Path == "/die-once" && !diedOnce.Swap(true) {
			io.WriteString(c, body[:bodyLen/2])
			return // mid-session close: the listener tears the transport down
		}
		io.WriteString(c, body)
		io.Copy(io.Discard, c) // to the end-of-session record: the transport survives
	})

	// roundTrip sends one request on its own connection and returns the
	// status once the whole response has arrived; a 200 must be complete.
	roundTrip := func(t *testing.T, feAddr, req string) int {
		t.Helper()
		conn, err := net.Dial("tcp", feAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		io.WriteString(conn, req)
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("no response: %v", err)
		}
		got, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode == http.StatusOK && string(got) != body {
			t.Fatalf("status %d with %d body bytes (%v): a truncated response reached the client", resp.StatusCode, len(got), err)
		}
		return resp.StatusCode
	}
	const post = "POST /die HTTP/1.1\r\nHost: t\r\nContent-Length: 2\r\n\r\nhi"

	t.Run("GET on a fresh dial", func(t *testing.T) {
		fe, feAddr := startRelayFrontend(t, []string{addr})
		if st := roundTrip(t, feAddr, "GET /die HTTP/1.1\r\nHost: t\r\n\r\n"); st != http.StatusBadGateway {
			t.Fatalf("status %d, want 502", st)
		}
		if st := fe.Stats(); st.Errors != 1 || st.StaleRetries != 0 || st.Served != 0 {
			t.Fatalf("errors=%d staleRetries=%d served=%d, want 1/0/0", st.Errors, st.StaleRetries, st.Served)
		}
	})
	t.Run("GET on a pooled transport", func(t *testing.T) {
		fe, feAddr := startRelayFrontend(t, []string{addr})
		if st := rawKeepAliveGet(t, fe, feAddr, "/ok"); st != http.StatusOK {
			t.Fatalf("pool fill: status %d", st)
		}
		if st := roundTrip(t, feAddr, "GET /die-once HTTP/1.1\r\nHost: t\r\n\r\n"); st != http.StatusOK {
			t.Fatalf("status %d, want the stale retry's 200", st)
		}
		if st := fe.Stats(); st.PoolHits != 1 || st.StaleRetries != 1 || st.Errors != 0 {
			t.Fatalf("poolHits=%d staleRetries=%d errors=%d, want 1/1/0", st.PoolHits, st.StaleRetries, st.Errors)
		}
	})
	t.Run("POST", func(t *testing.T) {
		fe, feAddr := startRelayFrontend(t, []string{addr})
		if st := rawKeepAliveGet(t, fe, feAddr, "/ok"); st != http.StatusOK {
			t.Fatalf("pool fill: status %d", st)
		}
		if st := roundTrip(t, feAddr, post); st != http.StatusBadGateway {
			t.Fatalf("status %d, want 502: a POST is not replayed", st)
		}
		if st := fe.Stats(); st.PoolHits != 1 || st.StaleRetries != 0 || st.Errors != 1 {
			t.Fatalf("poolHits=%d staleRetries=%d errors=%d, want 1/0/1", st.PoolHits, st.StaleRetries, st.Errors)
		}
	})
}
