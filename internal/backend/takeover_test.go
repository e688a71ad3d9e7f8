package backend

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"lard/internal/handoff"
	"lard/internal/trace"
)

// reply is what of a response has to be the same from both writers.
type reply struct {
	status int
	fields [4]string // Content-Length, Content-Type, X-Cache, Allow
	body   string
	closes bool
}

// replies reads one response per method from the session.
func (s *session) replies(t *testing.T, methods []string) []reply {
	t.Helper()
	var out []reply
	s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i, m := range methods {
		resp, err := http.ReadResponse(s.br, &http.Request{Method: m})
		if err != nil {
			t.Fatalf("response %d of %d: %v", i+1, len(methods), err)
		}
		r := reply{status: resp.StatusCode, closes: resp.Close}
		if r.status != http.StatusBadRequest { // net/http's 400 is close-delimited and its own
			for j, f := range []string{"Content-Length", "Content-Type", "X-Cache", "Allow"} {
				r.fields[j] = resp.Header.Get(f)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatalf("response %d of %d: body: %v", i+1, len(methods), err)
			}
			r.body = string(body)
			if resp.Header.Get("Date") == "" {
				t.Errorf("response %d of %d has no Date", i+1, len(methods))
			}
		}
		out = append(out, r)
	}
	return out
}

// A frame that is one of these is a session boundary: the replies to the
// session so far are read, and the frame behind it begins the transport's
// next session, for the next client.
const (
	next = "\x00next" // the end-of-session record rides the next header, as under load
	end  = "\x00end"  // the record is sent now and alone, as the pool's sweep sends it
)

// TestTakeoverMatchesNetHTTP sends the same frames to two nodes, one that
// takes its transport over and one whose handler is left net/http's writer,
// each behind a real handoff.Listener, and holds every response, the
// counters and the listeners' session counts to be the same, but for Writes:
// the loop writes a document's response in one write, net/http's writer in
// one Write per 32 KB period of its body. A row's first
// request is the one net/http reads on both nodes; on the first node it is
// the only one, whatever sessions follow on the transport, and the conn its
// server accepted is in turn each session's client's; a first request that
// asks for a close is taken over too, and its answer is the transport's
// last. methods has a "|" for every boundary in frames. end "close" marks a
// row whose last request the loop answers with Connection: close, which
// net/http, reading bodies and speaking 1.0, need not.
func TestTakeoverMatchesNetHTTP(t *testing.T) {
	const get, host = "GET /a.html HTTP/1.1\r\n", "Host: t\r\n\r\n"
	const getB, headB = "GET /b.html HTTP/1.1\r\n" + host, "HEAD /b.html HTTP/1.1\r\n" + host
	sixteen := make([]string, 16, 20)
	for i := range sixteen {
		sixteen[i] = get + host
	}
	for _, row := range []struct {
		name    string
		frames  []string
		methods string // of the requests in frames, in order
		end     string // "": the session goes on; "close": the loop closes behind the last response
		before  int    // sessions that are net/http's on both nodes: no request in them the loop frames
	}{
		{"miss then hit", []string{get + host, get + host}, "GET GET", "", 0},
		{"head first", []string{headB, getB}, "HEAD GET", "", 0},
		{"head in the loop", []string{get + host, headB, getB}, "GET HEAD GET", "", 0},
		{"404", []string{"GET /nope HTTP/1.1\r\n" + host, "GET /nope HTTP/1.1\r\n" + host, "HEAD /nope HTTP/1.1\r\n" + host}, "GET GET HEAD", "", 0},
		{"405 and on", []string{get + host, "DELETE /a.html HTTP/1.1\r\n" + host, get + host}, "GET DELETE GET", "", 0},
		{"405 with a body", []string{get + host, "POST /a.html HTTP/1.1\r\nContent-Length: 5\r\n" + host + "hello"}, "GET POST", "close", 0},
		{"query string", []string{"GET /a.html?x=1 HTTP/1.1\r\n" + host, "GET /a.html?y=/b.html HTTP/1.1\r\n" + host}, "GET GET", "", 0},
		{"percent-encoded", []string{get + host, "GET /%61.html HTTP/1.1\r\n" + host, "GET /a%2ehtml%3Fx HTTP/1.1\r\n" + host}, "GET GET GET", "", 0},
		{"absolute form", []string{get + host, "GET http://t/b.html HTTP/1.1\r\n" + host, "GET http://t HTTP/1.1\r\n" + host}, "GET GET GET", "", 0},
		{"HTTP/1.0", []string{get + host, "GET /a.html HTTP/1.0\r\n\r\n"}, "GET GET", "close", 0},
		{"HTTP/1.0 keep-alive", []string{get + host, "GET /a.html HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"}, "GET GET", "close", 0},
		{"Connection: close", []string{get + host, get + "Connection: close\r\n" + host}, "GET GET", "close", 0},
		{"Connection: close first", []string{get + "Connection: close\r\n" + host}, "GET", "close", 0},
		{"HEAD with Connection: close first", []string{"HEAD /b.html HTTP/1.1\r\nConnection: close\r\n" + host}, "HEAD", "close", 0},
		{"GET with a body", []string{get + host, get + "Content-Length: 5\r\n" + host + "hello"}, "GET GET", "close", 0},
		{"Expect: 100-continue", []string{get + host, get + "Expect: 100-continue\r\n" + host}, "GET GET", "close", 0},
		{"pipelined", []string{get + host, getB + "HEAD /a.html HTTP/1.1\r\n" + host}, "GET GET HEAD", "", 0},
		{"pipelined behind the first", []string{get + host + getB}, "GET GET", "", 0},
		{"split head", []string{get + host, "GET /b.ht", "ml HTTP/1.1\r\nHo", "st: t\r\n\r\n"}, "GET GET", "", 0},
		{"malformed head", []string{get + host, "GET /a.html HTTP/1.1\r\nNo colon\r\n\r\n"}, "GET GET", "close", 0},
		{"target with a space", []string{get + host, "GET /a b HTTP/1.1\r\n" + host}, "GET GET", "close", 0},
		{"stats mid-session", []string{get + host, "GET /_lard/stats HTTP/1.1\r\n" + host, get + host}, "GET GET GET", "", 0},
		{"stats first", []string{"GET /_lard/stats HTTP/1.1\r\n" + host, get + host}, "GET GET", "", 0},
		{"close consumed by the front end", []string{get + "Connection:      \r\n" + host}, "GET", "", 0},
		{"more behind a consumed close", []string{get + "Connection:      \r\n" + host, get + host, get + host}, "GET GET GET", "", 0},
		{"longer than the buffer", []string{get + host, "GET /big.bin HTTP/1.1\r\n" + host, "GET /big.bin HTTP/1.1\r\n" + host}, "GET GET GET", "", 0},

		{"three sessions of one request", []string{get + "Connection:      \r\n" + host, next, getB, next, get + host}, "GET | GET | GET", "", 0},
		{"sessions ended by the sweep", []string{get + host, end, getB, end, get + host}, "GET | GET | GET", "", 0},
		{"sixteen requests, then two sessions of one", append(sixteen, next, getB, next, get+host), strings.Repeat("GET ", 16) + "| GET | GET", "", 0},
		{"a session of HEADs", []string{get + host, next, headB, "HEAD /a.html HTTP/1.1\r\n" + host, next, getB, "GET /big.bin HTTP/1.1\r\n" + host}, "GET | HEAD HEAD | GET GET", "", 0},
		{"a later session's request closes", []string{get + host, next, getB, get + "Connection: close\r\n" + host}, "GET | GET GET", "close", 0},
		{"a later session begins HTTP/1.0", []string{get + host, next, "GET /a.html HTTP/1.0\r\n\r\n"}, "GET | GET", "close", 0},
		{"stats in a later session", []string{get + host, next, "GET /_lard/stats HTTP/1.1\r\n" + host, get + host}, "GET | GET GET", "", 0},
		{"a first session that is net/http's", []string{"POST /a.html HTTP/1.1\r\nContent-Length: 5\r\n" + host + "hello", next, get + host, next, getB}, "POST | GET | GET", "", 1},
	} {
		t.Run(row.name, func(t *testing.T) {
			var sessions [][]string // their methods
			for _, m := range strings.Split(row.methods, "|") {
				sessions = append(sessions, strings.Fields(m))
			}
			var got [2][]reply
			var stats [2]Stats
			var accepted [2]uint64
			for i, wrap := range []func(http.Handler) http.Handler{nil, onlyNetHTTP} {
				be := New(Config{Store: testStore()})
				srv := be.HTTPServer()
				if wrap != nil {
					srv.Handler = wrap(srv.Handler)
				}
				var hijacked atomic.Int32
				srv.ConnState = func(_ net.Conn, s http.ConnState) {
					if s == http.StateHijacked {
						hijacked.Add(1)
					}
				}
				n := startNode(t, srv)
				s := n.open(t)
				// finish reads session k's replies; the conn the server was
				// last given is then k's client's: a new one, or on the first
				// node, from the takeover on, the one there is.
				k, begin := 0, true
				finish := func() {
					t.Helper()
					got[i] = append(got[i], s.replies(t, sessions[k])...)
					conns, wantConns := 0, k+1
					if i == 0 {
						wantConns = min(k, row.before) + 1
					}
					var conn net.Conn
					if conns, conn = n.conns(); conns != wantConns || conn.RemoteAddr().String() != clientOf(k) {
						t.Errorf("node %d, session %d: %d conns accepted, the last one's RemoteAddr %v; want %d and %s", i, k, conns, conn.RemoteAddr(), wantConns, clientOf(k))
					}
					k, begin = k+1, true
				}
				for _, f := range row.frames {
					switch {
					case f == next:
						finish()
					case f == end:
						finish()
						if err := s.sw.End(); err != nil {
							t.Fatal(err)
						}
					case begin:
						s.handoff(t, clientOf(k), f)
						begin = false
					default:
						s.send(t, f)
					}
				}
				finish()
				// The handler counts a body's bytes once its last write returns.
				want, writes, j := int64(0), int64(0), 0
				for k, methods := range sessions {
					for _, m := range methods {
						if r := got[i][j]; r.status == http.StatusOK && r.fields[2] != "" && m != "HEAD" {
							want += int64(len(r.body))
							if i == 0 && k >= row.before {
								writes++
							} else {
								writes += (int64(len(r.body)) + copyBufLen - 1) / copyBufLen
							}
						}
						j++
					}
				}
				for deadline := time.Now().Add(2 * time.Second); be.Stats().BytesSent != want && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				stats[i], accepted[i] = be.Stats(), n.hl.Sessions()
				// One takeover a transport, and every session from it on the
				// loop's; the scrape says what ConnState saw.
				takeovers, loop := uint64(1-i), uint64(1-i)*uint64(len(sessions)-row.before)
				if h := uint64(hijacked.Load()); h != takeovers || stats[i].Takeovers != takeovers || stats[i].LoopSessions != loop {
					t.Errorf("node %d: %d connections hijacked, Stats %+v; want %d takeovers and %d sessions begun in the loop", i, h, stats[i], takeovers, loop)
				}
				if stats[i].Writes != writes {
					t.Errorf("node %d: Writes %d, want %d", i, stats[i].Writes, writes)
				}
				stats[i].Takeovers, stats[i].LoopSessions, stats[i].Writes = 0, 0, 0
			}
			last := len(got[0]) - 1
			if got[0][last].closes != (row.end == "close") {
				t.Errorf("the loop's last response: Connection: close is %t, want end %q", got[0][last].closes, row.end)
			}
			got[0][last].closes, got[1][last].closes = false, false
			for j := range got[0] {
				if a, b := withoutLoopCounts(t, got[0][j]), withoutLoopCounts(t, got[1][j]); a != b {
					t.Errorf("response %d:\n  taken over: %+v\n  net/http:   %+v", j+1, brief(a), brief(b))
				}
			}
			if stats[0] != stats[1] {
				t.Errorf("stats:\n  taken over: %+v\n  net/http:   %+v", stats[0], stats[1])
			}
			if accepted[0] != accepted[1] || accepted[0] != uint64(len(sessions)) {
				t.Errorf("Listener.Sessions(): %d taken over, %d under net/http, want %d on both", accepted[0], accepted[1], len(sessions))
			}
		})
	}
}

// clientOf is the address session k of a transport is handed off for.
func clientOf(k int) string { return "192.0.2.1:" + strconv.Itoa(4000+k) }

// withoutLoopCounts is r with the two counters out of a /_lard/stats body
// that the nodes compared differ by on purpose.
func withoutLoopCounts(t *testing.T, r reply) reply {
	t.Helper()
	if r.fields[1] == "application/json" && r.body != "" {
		var st Stats
		if err := json.Unmarshal([]byte(r.body), &st); err != nil {
			t.Fatalf("stats body %q: %v", r.body, err)
		}
		st.Takeovers, st.LoopSessions = 0, 0
		r.body = fmt.Sprintf("%+v", st)
	}
	return r
}

// brief is a reply with its body cut to what an error message can carry.
func brief(r reply) reply {
	if len(r.body) > 80 {
		r.body = r.body[:80] + "..."
	}
	return r
}

// settle waits for the goroutine count to come down to want.
func settle(t *testing.T, want int, what string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s: %d goroutines, want %d\n%s", what, runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestTakenOverSessionCostsOneConnection: a transport the node has taken over
// is a goroutine of net/http's that http.Server.Close no longer reaches, so
// whatever its peer does has to end it, and only it. Among idle sessions
// that must go on being served, a peer half-closes inside a head, resets
// inside a long body, stops reading, and resets inside one 1 MiB writev;
// then, on transports whose second session the loop kept for itself, the
// peer goes or goes wrong where the loop waits for the next handoff header,
// right behind one, and in a request the loop cannot frame. Each costs its
// own connection, the goroutines come back (and with them the buffers: a
// response's pooled 32 KB buffer, whatever its length, is held only inside
// answerConn's frame), and the listener's counters say what happened:
// every session begun, a header that was none rejected once, a transport
// that closed or idled out between sessions not at all. Listener.Close then
// ends every session there is, and the loop that waits for one.
func TestTakenOverSessionCostsOneConnection(t *testing.T) {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections() // other tests' clients
	time.Sleep(10 * time.Millisecond)
	atStart := runtime.NumGoroutine()

	const head, big = "GET /a.html HTTP/1.1\r\nHost: t\r\n\r\n", "GET /big HTTP/1.1\r\nHost: t\r\n\r\n"
	const short = 200 * time.Millisecond // every timeout a fault below runs into
	const mib = 1<<20 - headRoom         // a document that leaves in one writev
	be := New(Config{Store: NewDocStore([]trace.Target{{Name: "/a.html", Size: 1000}, {Name: "/big", Size: 512 << 10}, {Name: "/mib", Size: mib}})})
	srv := be.HTTPServer()
	srv.ReadHeaderTimeout = short
	n := startNode(t, srv, func(n *node) { n.hl.HandshakeTimeout = short })
	// A second listener, for the one fault that needs its idle transports
	// timed: the first one's must outlast the test.
	forgetful := startNode(t, srv, func(n *node) { n.hl.SessionIdleTimeout = short })
	// A third, whose sockets hold less than one large response, for the fault
	// that needs a Write to be in progress when it strikes.
	tight := startNode(t, srv, func(n *node) { n.ln.sndbuf = 64 << 10 })
	opened, rejected := uint64(0), uint64(0)
	open := func() *session {
		s := n.open(t)
		opened++
		s.request(t, head) // net/http's, and the takeover
		s.request(t, head) // the loop's
		return s
	}
	// kept is a transport in its second session, the loop's from its header on.
	kept := func() *session {
		s := open()
		s.handoff(t, clientOf(1), head)
		opened++
		s.response(t)
		return s
	}
	// gone waits for the node to close s's transport, having sent nothing more.
	gone := func(s *session, what string) {
		t.Helper()
		s.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if b, err := s.br.ReadByte(); err != io.EOF {
			t.Fatalf("%s: read %q, %v; want the transport closed and nothing said", what, b, err)
		}
	}
	var idle []*session
	for i := 0; i < 4; i++ {
		idle = append(idle, open())
	}
	base := runtime.NumGoroutine()
	served := func(what string) {
		t.Helper()
		settle(t, base, what)
		fresh := open()
		for _, s := range append(idle, fresh) {
			if got := s.request(t, head); got < 1000 {
				t.Fatalf("%s: a bystander got a %d-byte response", what, got)
			}
		}
		fresh.conn.Close()
		settle(t, base, what+", and a fresh session closed")
		if got, bad := n.hl.Sessions(), n.hl.Rejected(); got != opened || bad != rejected {
			t.Fatalf("%s: %d sessions accepted and %d rejected, want %d and %d", what, got, bad, opened, rejected)
		}
	}

	// (a) Half a head, then the peer's FIN: the loop answers 400 to whoever
	// still listens, and goes.
	s := open()
	s.send(t, "GET /a.html HTTP/1.1\r\nHo")
	s.conn.(*net.TCPConn).CloseWrite()
	if got := s.replies(t, []string{"GET"}); got[0].status != http.StatusBadRequest {
		t.Fatalf("half a head and a FIN: status %d, want 400", got[0].status)
	}
	if _, err := io.Copy(io.Discard, s.br); err != nil {
		t.Fatalf("after the 400: %v, want the transport closed", err)
	}
	served("a peer that half-closed inside a head")

	// (b) A reset inside a long body.
	s = open()
	s.send(t, big)
	if _, err := io.CopyN(io.Discard, s.br, 64<<10); err != nil {
		t.Fatal(err)
	}
	s.conn.(*net.TCPConn).SetLinger(0)
	s.conn.Close()
	served("a peer that reset inside a body")

	// (c) A peer that stops reading: more pipelined long documents than the
	// sockets between them hold. The loop is stuck in a writev, holding its
	// one 32 KB buffer, which costs the others nothing, until the peer goes.
	s = open()
	s.send(t, strings.Repeat(big, 64))
	sent := be.Stats().BytesSent
	for still := 0; still < 5; still++ { // no document finished in 100 ms
		time.Sleep(20 * time.Millisecond)
		if now := be.Stats().BytesSent; now != sent {
			sent, still = now, 0
		}
	}
	if sent >= 64*(512<<10) {
		t.Fatalf("the loop wrote all %d bytes to a peer that reads nothing", sent)
	}
	for _, o := range idle {
		o.request(t, head)
	}
	s.conn.Close()
	served("a peer that stopped reading")

	// A reset in the middle of one 1 MiB writev: tight's sockets hold a
	// fraction of the response, so the writev is still going when the peer
	// has read its first bytes and resets. The writev fails, the loop closes,
	// and BytesSent counts less than the document.
	s = tight.open(t)
	s.request(t, head) // net/http's, and the takeover
	sent = be.Stats().BytesSent
	s.send(t, "GET /mib HTTP/1.1\r\nHost: t\r\n\r\n")
	if _, err := io.CopyN(io.Discard, s.br, 64<<10); err != nil {
		t.Fatal(err)
	}
	s.conn.(*net.TCPConn).SetLinger(0)
	s.conn.Close()
	settle(t, base, "a peer that reset inside one write")
	if got := be.Stats().BytesSent - sent; got >= mib {
		t.Fatalf("a peer that reset inside one write: BytesSent grew by %d, want less than the %d-byte document", got, mib)
	}
	served("a peer that reset inside one write")

	// (d) Between sessions the loop waits where the listener's own loop
	// would, and by its clocks. A front end that vanishes without a FIN is
	// given SessionIdleTimeout; one that closes a transport it has no more
	// use for (the pool's eviction) is no fault of anyone's.
	s = forgetful.open(t)
	s.request(t, head)
	s.handoff(t, clientOf(1), head)
	s.response(t)
	if err := s.sw.End(); err != nil {
		t.Fatal(err)
	}
	gone(s, "a front end silent between sessions")
	if got, bad := forgetful.hl.Sessions(), forgetful.hl.Rejected(); got != 2 || bad != 0 {
		t.Fatalf("a front end silent between sessions: %d sessions accepted and %d rejected, want 2 and 0", got, bad)
	}
	served("a front end silent between sessions")

	s = kept()
	if err := s.sw.End(); err != nil {
		t.Fatal(err)
	}
	s.conn.Close()
	served("a FIN right behind an end-of-session record")

	// (e) What arrives where a handoff header should and is none: half of
	// one (HandshakeTimeout), a request with no header before it, a header
	// that promises more initial data than there may be. One rejection each.
	for _, bad := range []struct{ what, bytes string }{
		{"half a handoff header", "LARD\x01"},
		{"bytes that are no header", head},
		{"a header with oversize initial data", "LARD\x01\x02\x00\x01x\xff\xff\xff\xff"},
	} {
		s = kept()
		if err := s.sw.End(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.conn.Write([]byte(bad.bytes)); err != nil {
			t.Fatal(err)
		}
		rejected++
		gone(s, bad.what)
		served(bad.what)
	}

	// (f) A good header and half a request head behind it: the session is
	// one, and the server's ReadHeaderTimeout times its head.
	s = kept()
	s.handoff(t, clientOf(2), "GET /a.html HTTP/1.1\r\nHo")
	opened++
	gone(s, "half a request head behind a header")
	served("half a request head behind a header")

	// (g) A session the loop kept begins with a request it cannot frame: it
	// is answered with Connection: close, and the transport goes with it.
	s = kept()
	s.handoff(t, clientOf(2), "GET /a.html HTTP/1.0\r\n\r\n")
	opened++
	if got := s.replies(t, []string{"GET"}); got[0].status != http.StatusOK || !got[0].closes {
		t.Fatalf("an HTTP/1.0 request first in a kept session: %+v, want a 200 that closes", brief(got[0]))
	}
	gone(s, "a request the loop cannot frame")
	served("a request the loop cannot frame")

	// (h) The listener closes: that ends the transports, a session ends with
	// its transport, and so does the wait for the next one.
	waiting := kept()
	if err := waiting.sw.End(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // the loop reads the record and waits
	n.hl.Close()
	forgetful.hl.Close()
	srv.Close()
	settle(t, atStart, "Listener.Close")
	for _, o := range append(idle, waiting) {
		o.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := o.br.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("a session after Listener.Close: %v, want its transport closed", err)
		}
	}
	if got, bad := n.hl.Sessions(), n.hl.Rejected(); got != opened || bad != rejected {
		t.Fatalf("after Listener.Close: %d sessions accepted and %d rejected, want %d and %d", got, bad, opened, rejected)
	}
}

// TestResponseLayout: a response longer than the buffer is its head and the
// body's first period, the room left in whole 64-byte blocks, and then that
// period again and again. For heads up to headRoom and bodies about one and
// two periods, past 1 MiB and past IOV_MAX periods, the iovecs concatenate
// to the head and the document's content, none is empty, there are
// ⌈size ÷ period⌉ of them, and every one lies in the buffer.
func TestResponseLayout(t *testing.T) {
	const iovMax = 1024
	want := make([]byte, copyBufLen)
	for _, head := range []int{0, 1, 63, 64, 65, 167, headRoom - 1, headRoom} {
		period := int64(copyBufLen-head) / 64 * 64
		for _, size := range []int64{period - 64, period, period + 64, 2*period - 1, 2*period + 1, 1<<20 + 1, 3 << 20, iovMax*period + 4321} {
			buf := make([]byte, copyBufLen)
			b := buf[:head]
			for i := range b {
				b[i] = byte('A' + i%26)
			}
			iov := (&document{size: size, block: contentBlock("/t")}).layout(nil, b)
			if n := (size + period - 1) / period; int64(len(iov)) != n {
				t.Fatalf("head %d, size %d: %d iovecs, want %d", head, size, len(iov), n)
			}
			content := ContentReader("/t", size)
			for i, p := range iov {
				if len(p) == 0 || !within(p, buf) {
					t.Fatalf("head %d, size %d: iovec %d is %d bytes, in the buffer %t", head, size, i, len(p), within(p, buf))
				}
				if i == 0 {
					if string(p[:head]) != string(b) {
						t.Fatalf("head %d, size %d: the first iovec begins %q", head, size, p[:head])
					}
					p = p[head:]
				}
				if _, err := io.ReadFull(content, want[:len(p)]); err != nil || !bytes.Equal(p, want[:len(p)]) {
					t.Fatalf("head %d, size %d: iovec %d is not the content it stands for (%v)", head, size, i, err)
				}
			}
			if n, _ := content.Read(want); n != 0 {
				t.Fatalf("head %d, size %d: the iovecs end short of the document", head, size)
			}
		}
	}
}

// within reports whether p lies in buf's backing array.
func within(p, buf []byte) bool {
	lo, at := uintptr(unsafe.Pointer(unsafe.SliceData(buf))), uintptr(unsafe.Pointer(unsafe.SliceData(p)))
	return at >= lo && at+uintptr(len(p)) <= lo+uintptr(cap(buf))
}

// recorder is a vectored writer that keeps what it is given.
type recorder struct {
	calls int
	iov   [][]byte
}

func (r *recorder) Write(p []byte) (int, error) {
	r.calls++
	r.iov = append(r.iov, p)
	return len(p), nil
}

func (r *recorder) WriteBuffers(v *net.Buffers) (int64, error) {
	r.calls++
	var n int64
	for _, p := range *v {
		r.iov, n = append(r.iov, p), n+int64(len(p))
	}
	*v = nil
	return n, nil
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// client is one client connection to a node as the client sees it: send
// sends request bytes, and the responses are read from conn through br, in
// counting them. Where the node answers on the client's own socket, tr is
// the pass transport it reports there on, read through done.
type client struct {
	session
	in   *countingReader
	send func(tb testing.TB, data string)
	tr   net.Conn
	done *bufio.Reader
}

// transportClient is the client of s's sessions.
func transportClient(s *session) *client {
	c := &client{session: *s, in: &countingReader{r: s.conn}, send: s.send}
	c.br = bufio.NewReader(c.in)
	return c
}

// directClient opens a client connection that n answers on the client's own
// socket, handed over as a front end on its host hands it: its first request
// rides the header of a split session and its later ones go as frames, or,
// with pass, the connection is passed whole and its later requests are its
// own. It skips where n has no pass address.
func directClient(t *testing.T, n *node, pass bool) *client {
	t.Helper()
	tr, err := handoff.DialPass(n.Addr().String())
	if err != nil {
		t.Skipf("no pass address: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fe, err := ln.Accept() // the front end's copy of the client's socket
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close(); fe.Close(); tr.Close() })
	rc, err := fe.(*net.TCPConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	c := &client{session: session{conn: conn}, in: &countingReader{r: conn}, tr: tr, done: bufio.NewReader(tr)}
	c.br = bufio.NewReader(c.in)
	sw, first := handoff.NewTransportWriter(tr), true
	c.send = func(tb testing.TB, data string) {
		tb.Helper()
		var err error
		switch {
		case first && pass:
			if err = sw.Pass(rc, conn.LocalAddr().String(), []byte(data), time.Minute); err == nil {
				err = fe.Close()
			}
		case first:
			err = sw.Split(rc, conn.LocalAddr().String(), []byte(data), 0)
		case pass:
			_, err = io.WriteString(conn, data)
		default:
			_, err = sw.Write([]byte(data))
		}
		if first = false; err != nil {
			tb.Fatal(err)
		}
	}
	return c
}

// reported reads the next done record and requires it to report bytes
// written to the client in responses.
func (c *client) reported(t *testing.T, bytes int64, responses uint32) {
	t.Helper()
	c.tr.SetReadDeadline(time.Now().Add(5 * time.Second))
	if d, ok, err := handoff.ReadDone(c.done); err != nil || !ok || d.Written != bytes || d.Responses != responses {
		t.Errorf("done record %+v (%t, %v), want %d bytes in %d responses", d, ok, err, bytes, responses)
	}
}

// TestLargeResponseWrites holds the node to one response, one write, at any
// size, on every way a response leaves it: a real handoff.Listener's TCP
// transport, and where there is a pass address a split session and a
// connection passed whole, both answered on the client's own socket. From
// the loop a document's response leaves in one write whatever its size, a
// writev of the body's period for one longer than the buffer, and Writes
// counts it: one write on the transport, and on the client's socket every
// byte of it in the done record, a split session's for each response, a
// passed connection's for all of them when it closes. Behind onlyNetHTTP the
// handler makes a Write per 32 KB period, ⌈size ÷ 32 KB⌉, and the transport
// carries one more: net/http's 4 KB buffer sends the head with the body's
// first bytes on its own. A HEAD is one write and no Writes on either. Every
// body is the document's, and BytesSent counts it. First, the memory bound:
// however long, a response leaves from the one 32 KB buffer.
func TestLargeResponseWrites(t *testing.T) {
	const mib = 1 << 20
	r, rec := responsePool.Get().(*response), &recorder{}
	if _, writes, err := (&document{size: 3 * mib, block: contentBlock("/3m")}).send(rec, r, append(r.buf[:0], "head"...)); err != nil || writes != 1 || rec.calls != 1 {
		t.Fatalf("a 3 MiB response: %d writes counted, %d made (%v), want 1", writes, rec.calls, err)
	}
	for i, p := range rec.iov {
		if !within(p, r.buf[:]) {
			t.Fatalf("a 3 MiB response's iovec %d of %d is outside its 32 KB buffer", i, len(rec.iov))
		}
	}
	responsePool.Put(r)

	const probe = mib - 200 // as many digits as the documents at 1 MiB
	get := func(method, target string) string { return method + " " + target + " HTTP/1.1\r\nHost: t\r\n\r\n" }
	for _, way := range []string{"transport", "net/http", "split", "passed"} {
		t.Run(way, func(t *testing.T) {
			store := NewDocStore([]trace.Target{{Name: "/probe", Size: probe}})
			be := New(Config{Store: store})
			srv := be.HTTPServer()
			if way == "net/http" {
				srv.Handler = onlyNetHTTP(srv.Handler)
			}
			n := startNode(t, srv)
			c := transportClient(n.open(t))
			if way == "split" || way == "passed" {
				c = directClient(t, n, way == "passed")
			}
			// sent is what BytesSent is to reach: the handler counts a body once
			// its last write has returned, which its reader does not wait for.
			var sent int64
			counted := func() Stats {
				st := be.Stats()
				for deadline := time.Now().Add(2 * time.Second); st.BytesSent != sent && time.Now().Before(deadline); st = be.Stats() {
					time.Sleep(time.Millisecond)
				}
				return st
			}
			// exchange sends a request and reads its response as the client
			// does, and the done record a split session sends behind it.
			var total int64
			var responses uint32
			exchange := func(method, target string) (reply, int64) {
				t.Helper()
				before := c.in.n
				c.send(t, get(method, target))
				got := c.replies(t, []string{method})[0]
				read := c.in.n - before
				if total, responses = total+read, responses+1; way == "split" {
					c.reported(t, read, 1)
				}
				return got, read
			}
			exchange("GET", "/probe")
			_, n2 := exchange("GET", "/probe")
			head := n2 - probe // a hit's
			if longest := head + 1 + int64(len("Connection: close\r\n")) + 19 - 7; longest > headRoom {
				t.Fatalf("a document's head can be %d bytes, more than headRoom", longest)
			}
			sent += 2 * probe
			edge := copyBufLen - (head - 7 + 5) // with its 5-digit length's head, fills the buffer
			rows := []struct {
				target string
				size   int64
				method string
			}{
				{"/edge", edge, "GET"}, {"/over", edge + 1, "GET"}, {"/40k", 40 << 10, "GET"}, {"/512k", 512 << 10, "GET"},
				{"/over1m", mib + 1, "GET"}, {"/3m", 3 * mib, "GET"}, {"/3m", 3 * mib, "HEAD"},
			}
			for _, r := range rows {
				store.Add(r.target, r.size)
				exchange("GET", r.target) // the miss
				sent += r.size
			}
			for _, r := range rows {
				calls, writes := int64(1), int64(1) // the handler's Writes, and the transport's
				if way == "net/http" {
					calls = (r.size + copyBufLen - 1) / copyBufLen
					writes = calls + 1
				}
				bytes := r.size
				if r.method == "HEAD" {
					calls, writes, bytes = 0, 1, 0
				}
				st, before := counted(), n.ln.writes.Load()
				got, _ := exchange(r.method, r.target)
				if want := ContentBytes(r.target, bytes); got.status != http.StatusOK || got.body != string(want) {
					t.Errorf("%s %s: status %d and a %d-byte body, want 200 and the document's %d", r.method, r.target, got.status, len(got.body), len(want))
				}
				sent += bytes
				now := counted()
				w := n.ln.writes.Load() - before
				if c.tr != nil {
					w = writes // on the client's socket: the done records count
				}
				if w != writes || now.BytesSent-st.BytesSent != bytes || now.Writes-st.Writes != calls {
					t.Errorf("%s %s: %d transport writes, BytesSent +%d, Writes +%d; want %d, +%d, +%d",
						r.method, r.target, w, now.BytesSent-st.BytesSent, now.Writes-st.Writes, writes, bytes, calls)
				}
			}
			if way == "passed" {
				c.conn.Close()
				c.reported(t, total, responses)
			}
		})
	}
}

// TestRequestPath holds the loop's document key to net/http's: r.URL.Path.
func TestRequestPath(t *testing.T) {
	for _, target := range []string{"/", "/a.html", "/a.html?x=1", "/a?", "/%61", "/a%2fb", "/a%", "/a%zz", "//h/p", "/a;b#c", "/\xc3\xa9",
		"http://h/p?q", "http://h", "https://h:1/%41", "*", "a/b", "a:b", "", "/a b", "/a\tb", "/a\x7f", "/a\x00", "?x", "http://[::1/p"} {
		req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader([]byte("GET " + target + " HTTP/1.1\r\nHost: h\r\n\r\n"))))
		path, ok := requestPath(target)
		if ok != (err == nil) || ok && path != req.URL.Path {
			t.Errorf("target %q: the loop's path %q, %t; net/http's %v, %v", target, path, ok, req, err)
		}
	}
}
