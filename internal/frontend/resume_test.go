package frontend

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"lard/internal/handoff"
	"lard/pkg/lard"
)

// echoBackend is a handoff-listening net/http back end that answers
// "<method> <path> <body length>" and remembers, per request, the path
// and the remote address the handler saw.
type echoBackend struct {
	ln *handoff.Listener

	mu      sync.Mutex
	paths   []string
	remotes map[string]bool
}

func startEchoBackend(t *testing.T, idleTimeout time.Duration) *echoBackend {
	t.Helper()
	ln, err := handoff.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	be := &echoBackend{ln: ln, remotes: map[string]bool{}}
	srv := &http.Server{
		IdleTimeout: idleTimeout,
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, _ := io.ReadAll(r.Body)
			be.mu.Lock()
			be.paths = append(be.paths, r.URL.Path)
			be.remotes[r.RemoteAddr] = true
			be.mu.Unlock()
			fmt.Fprintf(w, "%s %s %d", r.Method, r.URL.Path, len(body))
		}),
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); ln.Close() })
	return be
}

func (be *echoBackend) seen() (paths []string, remotes int) {
	be.mu.Lock()
	defer be.mu.Unlock()
	return append([]string(nil), be.paths...), len(be.remotes)
}

// targetsByNode returns, per node, request paths the "lb" strategy maps
// there on a healthy cluster of that many nodes, so a test can walk a
// client connection across back ends in an order of its choosing.
func targetsByNode(t *testing.T, nodes, each int) [][]string {
	t.Helper()
	d, err := lard.New("lb", lard.WithNodes(nodes))
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]string, nodes)
	for i, short := 0, nodes; short > 0; i++ {
		target := fmt.Sprintf("/doc%03d", i)
		node, done, err := d.Dispatch(0, lard.Request{Target: target})
		if err != nil {
			t.Fatal(err)
		}
		done()
		if len(out[node]) < each {
			if out[node] = append(out[node], target); len(out[node]) == each {
				short--
			}
		}
	}
	return out
}

// writeLog is a transport that classifies each Write made on it: one that
// carries a handoff header (with or without an end-of-session record in
// front), or a bare data frame.
type writeLog struct {
	net.Conn
	mu     sync.Mutex
	writes []string
}

func (c *writeLog) Write(p []byte) (int, error) {
	kind := "data"
	if bytes.Contains(p, []byte("LARD")) {
		kind = "handoff"
	}
	c.mu.Lock()
	c.writes = append(c.writes, kind)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *writeLog) log() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprint(c.writes)
}

// exchange sends one request on a kept-alive client connection and
// requires the back end's complete answer.
func exchange(t *testing.T, conn net.Conn, br *bufio.Reader, method, path string) {
	t.Helper()
	body := ""
	if method == "POST" {
		body = "hello"
	}
	fmt.Fprintf(conn, "%s %s HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\n\r\n%s", method, path, len(body), body)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	h, got := readOneResponse(t, br, method)
	if want := fmt.Sprintf("%s %s %d", method, path, len(body)); h.Status != 200 || got != want {
		t.Fatalf("%s %s: status %d, body %q; want 200, %q", method, path, h.Status, got, want)
	}
}

// TestReturningConnectionResumesSession: a keep-alive connection
// re-dispatched per request that walks A, B, A, B, A pays one handoff
// header per node. Each return finds the transport it parked, its session
// still open, and is one data-frame Write — the same bytes a request that
// stays sends — so each back end sees one session, one remote address and
// an ordinary keep-alive connection.
func TestReturningConnectionResumesSession(t *testing.T) {
	bes := []*echoBackend{startEchoBackend(t, 0), startEchoBackend(t, 0)}
	fe, feAddr := startPooledFrontend(t, []string{bes[0].ln.Addr().String(), bes[1].ln.Addr().String()},
		func(c *Config) { c.Strategy = "lb" })
	// Pre-dialed transports in the pool, so every write can be watched.
	var transports []*writeLog
	for node, be := range bes {
		raw, err := net.Dial("tcp", be.ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		tr := &writeLog{Conn: raw}
		transports = append(transports, tr)
		fe.pool.put(newBackendConn(node, tr))
	}

	targets := targetsByNode(t, 2, 3)
	walk := []string{targets[0][0], targets[1][0], targets[0][1], targets[1][1], targets[0][2]}
	conn, err := net.Dial("tcp", feAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for _, path := range walk {
		exchange(t, conn, br, "GET", path)
	}

	for node, want := range [][]string{{walk[0], walk[2], walk[4]}, {walk[1], walk[3]}} {
		paths, remotes := bes[node].seen()
		if fmt.Sprint(paths) != fmt.Sprint(want) {
			t.Fatalf("node %d served %v, want %v", node, paths, want)
		}
		if remotes != 1 {
			t.Fatalf("node %d's handler saw %d remote addresses over one client connection", node, remotes)
		}
		if got := bes[node].ln.Sessions(); got != 1 {
			t.Fatalf("node %d saw %d sessions, want 1: every return resumes the one it has", node, got)
		}
	}
	if got, want := transports[0].log(), "[handoff data data]"; got != want {
		t.Fatalf("writes on node 0's transport: %s, want %s", got, want)
	}
	if got, want := transports[1].log(), "[handoff data]"; got != want {
		t.Fatalf("writes on node 1's transport: %s, want %s", got, want)
	}
	st := fe.Stats()
	if st.Handoffs != 2 || st.Rehandoffs != 4 || st.SessionResumes != 3 || st.PoolHits != 2 || st.PoolMisses != 0 ||
		st.SessionEndsWithHeader != 0 || st.StaleRetries != 0 || st.Errors != 0 {
		t.Fatalf("handoffs %d, re-handoffs %d, resumes %d, pool hits %d, misses %d, ends with header %d, stale retries %d, errors %d; want 2, 4, 3, 2, 0, 0, 0, 0",
			st.Handoffs, st.Rehandoffs, st.SessionResumes, st.PoolHits, st.PoolMisses, st.SessionEndsWithHeader, st.StaleRetries, st.Errors)
	}
	if _, idle := fe.pool.idleCount(1); idle != 1 {
		t.Fatalf("node 1 holds %d idle transports, want the one parked", idle)
	}
}

// TestResumeFallsBackWhenSessionGone: a connection walks A, B and heads
// back to A, but the session it parked on A is no longer there to resume:
// the sweep ended it, a second client took the transport, the back end's
// idle timeout closed it, or A was drained. Each costs what it would have
// cost before there was anything to resume — a handoff on a pooled
// transport, a dial, or no move at all — and never a client-visible
// error, for a POST (which cannot be replayed) as for a GET.
func TestResumeFallsBackWhenSessionGone(t *testing.T) {
	const every = 30 * time.Millisecond
	targets := targetsByNode(t, 2, 2)
	cases := []struct {
		name      string
		aIdle     time.Duration // node A's http.Server.IdleTimeout
		sweep     bool          // run the pool's sweep at `every`
		gone      func(t *testing.T, fe *Server, feAddr string)
		aSessions uint64 // sessions A has seen once the connection is back
		misses    uint64 // dials in all; the walk's first two requests are two
	}{
		{
			name: "swept", sweep: true, aSessions: 2, misses: 2,
			gone: func(t *testing.T, fe *Server, _ string) {
				waitFor(t, 5*time.Second, "the sweep to end the parked session", func() bool {
					return fe.Stats().SessionEndsSwept == 1
				})
				waitFor(t, 5*time.Second, "the swept transport to be back in the pool", func() bool {
					_, idle := fe.pool.idleCount(0)
					return idle == 1
				})
			},
		},
		{
			name: "stolen", aSessions: 3, misses: 3,
			gone: func(t *testing.T, fe *Server, feAddr string) {
				thief, err := net.Dial("tcp", feAddr)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { thief.Close() })
				// The thief stays connected, on the transport it took.
				exchange(t, thief, bufio.NewReader(thief), "GET", targets[0][0])
				if st := fe.Stats(); st.SessionEndsWithHeader != 1 || st.PoolMisses != 2 {
					t.Fatalf("the second client: %d ends with header, %d dials; want the parked transport taken: 1, 2", st.SessionEndsWithHeader, st.PoolMisses)
				}
			},
		},
		{
			name: "idle-closed", aIdle: 20 * time.Millisecond, aSessions: 2, misses: 3,
			gone: func(t *testing.T, fe *Server, _ string) {
				waitFor(t, 5*time.Second, "the back end to close the parked transport", func() bool {
					fe.pool.mu.Lock()
					defer fe.pool.mu.Unlock()
					return len(fe.pool.idle[0]) == 1 && !fe.pool.idle[0][0].silent()
				})
			},
		},
		{
			name: "drained", aSessions: 1, misses: 2,
			gone: func(t *testing.T, fe *Server, _ string) {
				fe.DrainBackend(0)
				if _, idle := fe.pool.idleCount(0); idle != 0 {
					t.Fatalf("the drained node still holds %d parked transports", idle)
				}
			},
		},
	}
	for _, tc := range cases {
		for _, method := range []string{"GET", "POST"} {
			t.Run(tc.name+"/"+method, func(t *testing.T) {
				a, b := startEchoBackend(t, tc.aIdle), startEchoBackend(t, 0)
				fe, err := New(Config{
					Backends:      []string{a.ln.Addr().String(), b.ln.Addr().String()},
					Strategy:      "lb",
					ConnPolicy:    "perreq",
					probeInterval: -1,
					poolIdle:      -1,
				})
				if err != nil {
					t.Fatal(err)
				}
				if tc.sweep {
					fe.pool.every = every // before Serve starts the janitor
				}
				feLn, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				go fe.Serve(feLn)
				t.Cleanup(func() { fe.Close() })

				conn, err := net.Dial("tcp", feLn.Addr().String())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				br := bufio.NewReader(conn)
				exchange(t, conn, br, "GET", targets[0][0])
				exchange(t, conn, br, "GET", targets[1][0])
				tc.gone(t, fe, feLn.Addr().String())
				exchange(t, conn, br, method, targets[0][1])

				st := fe.Stats()
				if st.SessionResumes != 0 || st.StaleRetries != 0 || st.Errors != 0 || st.PoolMisses != tc.misses {
					t.Fatalf("resumes %d, stale retries %d, errors %d, dials %d; want 0, 0, 0, %d",
						st.SessionResumes, st.StaleRetries, st.Errors, st.PoolMisses, tc.misses)
				}
				if got := a.ln.Sessions(); got != tc.aSessions {
					t.Fatalf("node A saw %d sessions, want %d", got, tc.aSessions)
				}
			})
		}
	}
}
