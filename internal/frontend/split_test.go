//go:build linux

package frontend

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"lard/internal/backend"
	"lard/internal/breaker"
	"lard/internal/handoff"
	"lard/internal/trace"
)

// startPassNodes starts n back ends as lardbe runs them, on one catalog.
func startPassNodes(t *testing.T, tr *trace.Trace, n int) ([]*passNode, []string) {
	t.Helper()
	store := backend.NewDocStore(tr.Targets)
	var nodes []*passNode
	var addrs []string
	for i := 0; i < n; i++ {
		node := startPassNode(t, store)
		nodes, addrs = append(nodes, node), append(addrs, node.addr)
	}
	return nodes, addrs
}

// readAll reads what the client is sent until the front end closes the
// connection.
func readAll(t *testing.T, conn net.Conn) []byte {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("reading to the connection's end: %v (after %q)", err, got)
	}
	return got
}

// dateField is every response's Date, the one thing two runs a second
// apart may answer differently.
var dateField = regexp.MustCompile(`Date: [^\r]*\r\n`)

// TestSplitMatchesRelay: the same request sequences, one client connection
// each and in the same order, through a front end whose back ends answer
// split sessions directly and through one that relays every response (the
// back ends addressed by another spelling) reach the client as the same
// bytes, and leave the back ends with the same counters. The sequences
// cover GET, HEAD, a 404, a 405, a request body, Expect: 100-continue,
// HTTP/1.0, Connection: close, a pipelined pair, and requests that move
// between the two nodes and back (perreq over wrr), resuming the sessions
// they parked.
func TestSplitMatchesRelay(t *testing.T) {
	tr := smallTrace(t, 6, 6)
	doc := func(i int) string { return tr.Targets[i].Name }
	get := func(i int, fields string) string {
		return fmt.Sprintf("GET %s HTTP/1.1\r\nHost: t\r\n%s\r\n", doc(i), fields)
	}
	const closing = "Connection: close\r\n"
	sequences := [][]string{
		{get(0, ""), fmt.Sprintf("HEAD %s HTTP/1.1\r\nHost: t\r\n\r\n", doc(1)), "GET /missing HTTP/1.1\r\nHost: t\r\n\r\n", get(2, closing)},
		{fmt.Sprintf("DELETE %s HTTP/1.1\r\nHost: t\r\n\r\n", doc(0)), get(1, closing)},
		{get(3, ""), fmt.Sprintf("POST %s HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\n\r\nhello", doc(0))},
		{get(4, ""), fmt.Sprintf("PUT %s HTTP/1.1\r\nHost: t\r\nContent-Length: 5\r\nExpect: 100-continue\r\n\r\n", doc(1))},
		{get(5, ""), fmt.Sprintf("GET %s HTTP/1.0\r\n\r\n", doc(2))},
		{get(0, "") + get(1, closing)},
		{get(0, ""), get(1, ""), get(2, ""), get(3, ""), get(4, closing)},
	}
	run := func(mod ...func(*Config)) ([]string, func() []backend.Stats, Stats) {
		nodes, addrs := startPassNodes(t, tr, 2)
		fe, feAddr := startRelayFrontend(t, addrs, mod...)
		var streams []string
		for _, seq := range sequences {
			conn, err := net.Dial("tcp", feAddr)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range seq {
				io.WriteString(conn, w)
			}
			streams = append(streams, dateField.ReplaceAllString(string(readAll(t, conn)), "Date: -\r\n"))
			conn.Close()
			waitFor(t, 5*time.Second, "the session to retire", retired(fe))
		}
		backEnds := func() []backend.Stats {
			var st []backend.Stats
			for _, n := range nodes {
				st = append(st, n.be.Stats())
			}
			return st
		}
		return streams, backEnds, fe.Stats()
	}
	split, splitBE, splitFE := run()
	relayed, relayedBE, relayedFE := run(relayOnly)
	for i := range sequences {
		if split[i] != relayed[i] {
			t.Errorf("sequence %d:\nsplit:   %q\nrelayed: %q", i, split[i], relayed[i])
		}
	}
	// A relayed response can reach the client before its back end has
	// counted it; a split one's done record is sent after the count.
	deadline := time.Now().Add(5 * time.Second)
	for !reflect.DeepEqual(splitBE(), relayedBE()) && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !reflect.DeepEqual(splitBE(), relayedBE()) {
		t.Errorf("back ends after the split run %+v, after the relayed run %+v", splitBE(), relayedBE())
	}
	if splitFE.Direct == 0 || relayedFE.Direct != 0 || splitFE.Rehandoffs == 0 || splitFE.SessionResumes == 0 {
		t.Errorf("direct %d (relayed %d), rehandoffs %d, resumes %d: the runs did not take the paths compared",
			splitFE.Direct, relayedFE.Direct, splitFE.Rehandoffs, splitFE.SessionResumes)
	}
}

// sndbufListener sets SO_SNDBUF, where sndbuf is set, on the client
// connections it accepts, and keeps the last of them.
type sndbufListener struct {
	net.Listener
	sndbuf int
	last   atomic.Pointer[net.TCPConn]
}

func (l *sndbufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		if l.sndbuf > 0 {
			tc.SetWriteBuffer(l.sndbuf)
		}
		l.last.Store(tc)
	}
	return c, err
}

// written is what has been written to the last connection accepted
// (socketWritten), if there is one.
func (l *sndbufListener) written() (int64, bool) {
	tc := l.last.Load()
	if tc == nil {
		return 0, false
	}
	rc, _ := clientSocket(tc)
	return socketWritten(rc)
}

// TestSplitLargeResponsesToASlowClient: responses of 1 MiB and more, to a
// client that reads them a few KB at a time through a small receive buffer,
// so that the back end's writes to the client's socket wait for room, reach
// the client as the same bytes as through the relay, leave the back ends
// with the same counters, and are credited whole from the done records. The
// split run leaves no descriptor open. The back end sends each response in
// one writev, its first iovec the head and a 32 KB period of the body, the
// rest that period repeated, until the socket is full, and the rest through
// the socket's os.File. How much the socket takes first is the front end's
// send buffer's to say, so a row sets it: as the kernel sizes it, small
// enough that the socket fills inside the first iovec, and large enough that
// it fills inside a repeat. Before the client reads, the socket's own count
// of the bytes written to it says where it filled.
func TestSplitLargeResponsesToASlowClient(t *testing.T) {
	targets := []trace.Target{{Name: "/big/a", Size: 3 << 19}, {Name: "/big/b", Size: 1<<20 + 4321}}
	requests := getHead(targets[0].Name) + getHead(targets[1].Name) +
		fmt.Sprintf("GET %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n", targets[0].Name)
	smallWindow := net.Dialer{Control: func(_, _ string, rc syscall.RawConn) error {
		var err error
		rc.Control(func(fd uintptr) { err = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4096) })
		return err
	}}
	// The first iovec is the head and the period behind it, in whole 64-byte
	// blocks: 32 KB less at most 63 bytes.
	const firstIovec = 32<<10 - 63
	for _, row := range []struct {
		name   string
		sndbuf int
		full   func(at int64) bool // where the first response finds the socket full
	}{
		{"the kernel's send buffer", 0, nil},
		{"full inside the first iovec", 4 << 10, func(at int64) bool { return at < firstIovec }},
		{"full inside a repeat", 128 << 10, func(at int64) bool { return at > 32<<10 && at < targets[0].Size }},
	} {
		t.Run(row.name, func(t *testing.T) {
			// run returns what the client read, and where the socket was full.
			run := func(mod ...func(*Config)) (string, int64, Stats, func() []backend.Stats) {
				store := backend.NewDocStore(targets)
				nodes := []*passNode{startPassNode(t, store), startPassNode(t, store)}
				raw, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				ln := &sndbufListener{Listener: raw, sndbuf: row.sndbuf}
				fe := startRelayFrontendOn(t, ln, []string{nodes[0].addr, nodes[1].addr}, mod...)
				conn, err := smallWindow.Dial("tcp", raw.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				io.WriteString(conn, requests)
				// The socket is full once what was written to it stops growing.
				full, still := int64(-1), 0
				for deadline := time.Now().Add(5 * time.Second); still < 10 && time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
					if at, ok := ln.written(); ok && at > 0 && at == full {
						still++
					} else {
						full, still = at, 0
					}
				}
				var got []byte
				buf := make([]byte, 16<<10)
				conn.SetReadDeadline(time.Now().Add(20 * time.Second))
				for {
					n, err := conn.Read(buf)
					got = append(got, buf[:n]...)
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatalf("after %d bytes: %v", len(got), err)
					}
					time.Sleep(100 * time.Microsecond)
				}
				waitFor(t, 5*time.Second, "the session to retire", retired(fe))
				st := fe.Stats()
				fe.Close()
				for _, n := range nodes {
					n.stop()
				}
				return string(got), full, st, func() []backend.Stats {
					return []backend.Stats{nodes[0].be.Stats(), nodes[1].be.Stats()}
				}
			}
			if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
				ln.Close() // the runtime's poller is open before the count
			}
			before := openFDs(t)
			split, full, splitFE, splitBE := run()
			deadline := time.Now().Add(5 * time.Second)
			for openFDs(t) > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if after := openFDs(t); after > before {
				t.Errorf("%d descriptors open before the split run, %d after", before, after)
			}
			if row.full != nil && !row.full(full) {
				t.Errorf("the socket was full %d bytes into the first response: not where the row needs it", full)
			}
			relayed, _, _, relayedBE := run(relayOnly)

			undated := func(s string) string { return dateField.ReplaceAllString(s, "Date: -\r\n") }
			if undated(split) != undated(relayed) {
				t.Errorf("split and relayed streams differ: %d and %d bytes", len(split), len(relayed))
			}
			if want := 2*targets[0].Size + targets[1].Size; int64(len(split)) < want {
				t.Fatalf("the client read %d bytes, less than the %d of the documents", len(split), want)
			}
			if splitFE.Direct != 3 || splitFE.BackendToClient != int64(len(split)) {
				t.Errorf("direct %d, back end to client %d; want 3, the %d bytes the client read",
					splitFE.Direct, splitFE.BackendToClient, len(split))
			}
			deadline = time.Now().Add(5 * time.Second)
			for !reflect.DeepEqual(splitBE(), relayedBE()) && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if !reflect.DeepEqual(splitBE(), relayedBE()) {
				t.Errorf("back ends after the split run %+v, after the relayed run %+v", splitBE(), relayedBE())
			}
		})
	}
}

// parkedSplit reports whether a transport to node waits in the pool with
// a split session parked on it: its back end holds a copy of the client's
// socket.
func parkedSplit(fe *Server, node int) bool {
	fe.pool.mu.Lock()
	defer fe.pool.mu.Unlock()
	for _, b := range fe.pool.idle[node] {
		if b.owner != nil && b.split {
			return true
		}
	}
	return false
}

// TestSplitConnectionEndsWithTheClients: a back end holds a copy of the
// client's socket for as long as its split session is parked, but the
// connection still ends when the front end ends it — after a request that
// said close, or when the client idles past headerTimeout — because the
// front end shuts the socket down rather than only closing its copy.
func TestSplitConnectionEndsWithTheClients(t *testing.T) {
	tr := smallTrace(t, 6, 6)
	for _, tc := range []struct {
		name    string
		last    string // a final request, if any
		timeout time.Duration
	}{
		{name: "a closing request", last: fmt.Sprintf("GET %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n", tr.At(2).Target)},
		{name: "a header timeout", timeout: 200 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, addrs := startPassNodes(t, tr, 3) // wrr: one request per node
			fe, feAddr := startRelayFrontend(t, addrs, func(c *Config) {
				c.poolIdle = time.Hour // no sweep ends the parked session
				c.headerTimeout = tc.timeout
			})
			c := dialKept(t, feAddr)
			c.get(t, tr.At(0))
			c.get(t, tr.At(1)) // the next node; the first one's session parks
			if !parkedSplit(fe, 0) {
				t.Fatal("no split session parked on the first node")
			}
			if tc.last != "" {
				c.send(t, tc.last)
				c.expect(t, tr.At(2))
			}
			start := time.Now()
			c.ended(t, tc.name)
			if waited := time.Since(start); waited > tc.timeout+2*time.Second {
				t.Fatalf("the connection ended %v later", waited)
			}
			if !parkedSplit(fe, 0) {
				t.Fatal("the parked session was ended: the test proves nothing")
			}
		})
	}
}

// openFDs counts this process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestSplitSessionsLeaveNoDescriptors: clients that move between two back
// ends, closing and idling, and then a front end and back ends that shut
// down leave as many descriptors open as there were before: every copy of
// a client's socket a back end was sent is closed, at its session's end or
// with its transport.
func TestSplitSessionsLeaveNoDescriptors(t *testing.T) {
	tr := smallTrace(t, 6, 6)
	if ln, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		ln.Close() // the runtime's poller is open before the count
	}
	before := openFDs(t)
	func() {
		nodes, addrs := startPassNodes(t, tr, 2)
		fe, feAddr := startRelayFrontend(t, addrs)
		for i := 0; i < 4; i++ {
			c := dialKept(t, feAddr)
			for k := 0; k <= i; k++ {
				c.get(t, tr.At((i+k)%tr.Len()))
			}
			c.conn.Close()
		}
		waitFor(t, 5*time.Second, "the sessions to retire", retired(fe))
		if fe.Stats().Direct == 0 {
			t.Fatal("no response went direct")
		}
		fe.Close()
		for _, n := range nodes {
			n.stop()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for openFDs(t) > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := openFDs(t); after > before {
		t.Fatalf("%d descriptors open before, %d after", before, after)
	}
}

// startDyingNode runs a back end that answers split sessions directly,
// "ok" to every request, but fails on purpose: on /die it closes before
// writing a byte, on /half after writing part of a response, and on /flaky
// it dies the first time only. Each failure ends the session without a
// done record, and so the transport.
func startDyingNode(t *testing.T) string {
	t.Helper()
	ln, err := handoff.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var flaked atomic.Bool
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				d := conn.(interface {
					Direct()
					Answered(bool) error
				})
				d.Direct()
				br := bufio.NewReader(conn)
				for {
					r, err := http.ReadRequest(br)
					if err == io.EOF && conn.(interface{ NextSession() error }).NextSession() == nil {
						br.Reset(conn)
						continue
					}
					if err != nil {
						return
					}
					switch {
					case r.URL.Path == "/die", r.URL.Path == "/flaky" && !flaked.Swap(true):
						return
					case r.URL.Path == "/half":
						io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhel")
						return
					}
					io.WriteString(conn, "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
					if d.Answered(true) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestSplitFailureSemantics: a transport that ends without the done record
// is retried only where no byte can have reached the client, by the
// socket's own count, and otherwise ends the client's connection: a 502
// never follows response bytes, and no request is answered twice.
func TestSplitFailureSemantics(t *testing.T) {
	const ok = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
	for _, tc := range []struct {
		name, path string
		warm       bool   // a request first, so the failing one rides a pooled transport
		want       string // everything the client reads
		retries    uint64
	}{
		{name: "nothing written, fresh transport: 502", path: "/die", want: "HTTP/1.1 502 Bad Gateway"},
		{name: "part of a response written: the connection ends", path: "/half", want: "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nhel"},
		{name: "nothing written, pooled transport: retried", path: "/flaky", warm: true, want: ok, retries: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fe, feAddr := startRelayFrontend(t, []string{startDyingNode(t)})
			if tc.warm {
				closingExchange(t, fe, feAddr, "GET /warm HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
			}
			conn, err := net.Dial("tcp", feAddr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n", tc.path)
			got := string(readAll(t, conn))
			if !bytes.HasPrefix([]byte(got), []byte(tc.want)) || tc.want != "HTTP/1.1 502 Bad Gateway" && got != tc.want {
				t.Fatalf("the client read %q, want %q", got, tc.want)
			}
			if st := fe.Stats(); st.StaleRetries != tc.retries {
				t.Fatalf("stale retries %d, want %d", st.StaleRetries, tc.retries)
			}
		})
	}
}

// TestDrainMovesSplitSession: under pin with a quota configured, no
// connection is passed whole, and its session is split instead; a drain
// then moves it on its next request, as Config.ConnPolicy promises, and the
// responses on both nodes go to the client directly.
func TestDrainMovesSplitSession(t *testing.T) {
	tr := smallTrace(t, 6, 6)
	nodes, addrs := startPassNodes(t, tr, 2)
	fe, feAddr := startPassFrontend(t, addrs, func(c *Config) {
		c.Strategy = "lard"
		c.QuotaRate = 1e6
	})
	c := dialKept(t, feAddr)
	c.get(t, tr.At(0))
	first := 0
	if nodes[1].be.Stats().Requests > 0 {
		first = 1
	}
	fe.DrainBackend(first)
	c.get(t, tr.At(1))
	c.get(t, tr.At(2))
	if got := nodes[1-first].be.Stats().Requests; got != 2 {
		t.Fatalf("the other node served %d of the 2 requests after the drain", got)
	}
	// The client has its response before the front end has its done record.
	waitFor(t, 5*time.Second, "the last done record", func() bool { return fe.Stats().Served == 3 })
	if st := fe.Stats(); st.Passed != 0 || st.Rehandoffs != 1 || st.Direct != 3 || st.Dispatches != 3 {
		t.Fatalf("passed %d, rehandoffs %d, direct %d, dispatches %d; want 0, 1, 3, 3",
			st.Passed, st.Rehandoffs, st.Direct, st.Dispatches)
	}
}

// TestOneBreakerAdmissionPerHandoff: a handoff attempt costs its node one
// breaker admission however it goes. In HalfOpen a pinned connection's
// pass that finds its pooled transport stale and goes over a fresh one
// spends one probe of the budget, not two; in Recovering a denied request
// counts one denial, not one for the pass and one for the handoff after
// it.
func TestOneBreakerAdmissionPerHandoff(t *testing.T) {
	tr := smallTrace(t, 6, 6)
	_, addrs := startPassNodes(t, tr, 1)
	const openFor = 200 * time.Millisecond
	fe, feAddr := startPassFrontend(t, addrs, func(c *Config) {
		c.Breaker = &breaker.Config{HalfOpenProbes: 3, OpenBase: openFor, Ramp: []int{25}, RampStep: time.Hour}
	})
	b := fe.Breakers()
	for i := 0; i < 5; i++ {
		b.Failure(0, fe.now())
	}
	time.Sleep(openFor + 50*time.Millisecond) // Open, then HalfOpen at the next look

	// One probe leaves a pass transport in the pool; its next write fails,
	// as a stale one's does.
	closingExchange(t, fe, feAddr, fmt.Sprintf("GET %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n", tr.At(0).Target))
	fe.pool.mu.Lock()
	if len(fe.pool.idle[0]) != 1 {
		fe.pool.mu.Unlock()
		t.Fatalf("%d pooled transports, want 1", len(fe.pool.idle[0]))
	}
	fe.pool.idle[0][0].c.SetWriteDeadline(time.Unix(1, 0))
	fe.pool.mu.Unlock()

	c := dialKept(t, feAddr)
	c.get(t, tr.At(1))
	if st := fe.Stats(); st.Passed != 1 || st.StaleRetries != 1 || st.BreakerDenials != 0 {
		t.Fatalf("passed %d, stale retries %d, denials %d; want 1, 1, 0", st.Passed, st.StaleRetries, st.BreakerDenials)
	}
	if state := b.State(0, fe.now()); state != breaker.HalfOpen || !b.Healthy(0, fe.now()) {
		t.Fatalf("breaker %v, healthy %t after two requests: want HalfOpen with a probe left", state, b.Healthy(0, fe.now()))
	}
	c.conn.Close()
	waitFor(t, 5*time.Second, "the passed session to retire", retired(fe))

	// Recovering at 25%: one admission in four.
	b.Success(0, fe.now())
	if state := b.State(0, fe.now()); state != breaker.Recovering {
		t.Fatalf("breaker %v, want Recovering", state)
	}
	for i, admitted := range []bool{true, false, false, false, true} {
		denials := fe.Stats().BreakerDenials
		c := dialKept(t, feAddr)
		c.send(t, getHead(tr.At(i).Target))
		c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		h, _ := readOneResponse(t, c.br, "GET")
		want, wantDenials := 200, denials
		if !admitted {
			want, wantDenials = http.StatusServiceUnavailable, denials+1
		}
		if got := fe.Stats().BreakerDenials; h.Status != want || got != wantDenials {
			t.Fatalf("request %d: status %d, denials %d; want %d, %d", i, h.Status, got, want, wantDenials)
		}
		c.conn.Close()
		waitFor(t, 5*time.Second, "the session to retire", retired(fe))
	}
}

// TestSocketWrittenCountsEveryByte: the count reached reads off a socket is
// every byte written to it, sent or still queued.
func TestSocketWrittenCountsEveryByte(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	tc := c.(*net.TCPConn)
	rc, _ := clientSocket(tc)
	var want int64
	for _, n := range []int{0, 100, 8 << 10, 1 << 20} {
		if n > 0 {
			go io.CopyN(io.Discard, peer, int64(n))
			if _, err := tc.Write(make([]byte, n)); err != nil {
				t.Fatal(err)
			}
		}
		want += int64(n)
		if got, ok := socketWritten(rc); !ok || got != want {
			t.Fatalf("after %d bytes: %d, %t", want, got, ok)
		}
	}
	if _, ok := socketWritten(nil); ok {
		t.Fatal("a count for no socket")
	}
}
