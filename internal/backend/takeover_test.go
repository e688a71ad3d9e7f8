package backend

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// TestTakeoverMatchesNetHTTP sends the same frames to two nodes, one that
// takes its connection over and one whose handler is left net/http's
// writer, and holds every response and the counters to be the same. A
// row's first request is the one net/http reads on both nodes; end "close"
// marks a row whose last request the loop answers with Connection: close,
// which net/http, reading bodies and speaking 1.0, need not.
func TestTakeoverMatchesNetHTTP(t *testing.T) {
	const get, host = "GET /a.html HTTP/1.1\r\n", "Host: t\r\n\r\n"
	for _, row := range []struct {
		name    string
		frames  []string
		methods string // of the requests in frames, in order
		end     string // "": the session goes on; "close": the loop closes behind the last response; "stays": no takeover
	}{
		{"miss then hit", []string{get + host, get + host}, "GET GET", ""},
		{"head first", []string{"HEAD /b.html HTTP/1.1\r\n" + host, "GET /b.html HTTP/1.1\r\n" + host}, "HEAD GET", ""},
		{"head in the loop", []string{get + host, "HEAD /b.html HTTP/1.1\r\n" + host, "GET /b.html HTTP/1.1\r\n" + host}, "GET HEAD GET", ""},
		{"404", []string{"GET /nope HTTP/1.1\r\n" + host, "GET /nope HTTP/1.1\r\n" + host, "HEAD /nope HTTP/1.1\r\n" + host}, "GET GET HEAD", ""},
		{"405 and on", []string{get + host, "DELETE /a.html HTTP/1.1\r\n" + host, get + host}, "GET DELETE GET", ""},
		{"405 with a body", []string{get + host, "POST /a.html HTTP/1.1\r\nContent-Length: 5\r\n" + host + "hello"}, "GET POST", "close"},
		{"query string", []string{"GET /a.html?x=1 HTTP/1.1\r\n" + host, "GET /a.html?y=/b.html HTTP/1.1\r\n" + host}, "GET GET", ""},
		{"percent-encoded", []string{get + host, "GET /%61.html HTTP/1.1\r\n" + host, "GET /a%2ehtml%3Fx HTTP/1.1\r\n" + host}, "GET GET GET", ""},
		{"absolute form", []string{get + host, "GET http://t/b.html HTTP/1.1\r\n" + host, "GET http://t HTTP/1.1\r\n" + host}, "GET GET GET", ""},
		{"HTTP/1.0", []string{get + host, "GET /a.html HTTP/1.0\r\n\r\n"}, "GET GET", "close"},
		{"HTTP/1.0 keep-alive", []string{get + host, "GET /a.html HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"}, "GET GET", "close"},
		{"Connection: close", []string{get + host, get + "Connection: close\r\n" + host}, "GET GET", "close"},
		{"GET with a body", []string{get + host, get + "Content-Length: 5\r\n" + host + "hello"}, "GET GET", "close"},
		{"Expect: 100-continue", []string{get + host, get + "Expect: 100-continue\r\n" + host}, "GET GET", "close"},
		{"pipelined", []string{get + host, "GET /b.html HTTP/1.1\r\n" + host + "HEAD /a.html HTTP/1.1\r\n" + host}, "GET GET HEAD", ""},
		{"pipelined behind the first", []string{get + host + "GET /b.html HTTP/1.1\r\n" + host}, "GET GET", ""},
		{"split head", []string{get + host, "GET /b.ht", "ml HTTP/1.1\r\nHo", "st: t\r\n\r\n"}, "GET GET", ""},
		{"malformed head", []string{get + host, "GET /a.html HTTP/1.1\r\nNo colon\r\n\r\n"}, "GET GET", "close"},
		{"target with a space", []string{get + host, "GET /a b HTTP/1.1\r\n" + host}, "GET GET", "close"},
		{"stats mid-session", []string{get + host, "GET /_lard/stats HTTP/1.1\r\n" + host, get + host}, "GET GET GET", ""},
		{"stats first", []string{"GET /_lard/stats HTTP/1.1\r\n" + host, get + host}, "GET GET", ""},
		{"close consumed by the front end", []string{get + "Connection:      \r\n" + host}, "GET", "stays"},
		{"more behind a consumed close", []string{get + "Connection:      \r\n" + host, get + host, get + host}, "GET GET GET", ""},
		{"longer than the buffer", []string{get + host, "GET /big.bin HTTP/1.1\r\n" + host, "GET /big.bin HTTP/1.1\r\n" + host}, "GET GET GET", ""},
	} {
		t.Run(row.name, func(t *testing.T) {
			methods := strings.Fields(row.methods)
			var got [2][]reply
			var stats [2]Stats
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
				s := startSession(t, srv)
				for _, f := range row.frames {
					s.send(t, f)
				}
				got[i] = s.replies(t, methods)
				// The handler counts a body's bytes once its last write returns.
				want := int64(0)
				for j, r := range got[i] {
					if r.status == http.StatusOK && r.fields[2] != "" && methods[j] != "HEAD" {
						want += int64(len(r.body))
					}
				}
				for deadline := time.Now().Add(2 * time.Second); be.Stats().BytesSent != want && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				stats[i] = be.Stats()
				takeovers := int32(1 - i)
				if row.end == "stays" {
					takeovers = 0
				}
				if n := hijacked.Load(); n != takeovers {
					t.Errorf("node %d: %d connections taken over, want %d", i, n, takeovers)
				}
			}
			last := len(methods) - 1
			if got[0][last].closes != (row.end == "close") {
				t.Errorf("the loop's last response: Connection: close is %t, want end %q", got[0][last].closes, row.end)
			}
			got[0][last].closes, got[1][last].closes = false, false
			for j := range methods {
				if got[0][j] != got[1][j] {
					t.Errorf("response %d (%s):\n  taken over: %+v\n  net/http:   %+v", j+1, methods[j], brief(got[0][j]), brief(got[1][j]))
				}
			}
			if stats[0] != stats[1] {
				t.Errorf("stats:\n  taken over: %+v\n  net/http:   %+v", stats[0], stats[1])
			}
		})
	}
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

// TestTakenOverSessionCostsOneConnection: a session the node has taken over
// is a goroutine of net/http's that http.Server.Close no longer reaches, so
// whatever its peer does has to end it, and only it. Among idle sessions
// that must go on being served, a peer half-closes inside a head, resets
// inside a long body, and stops reading; each costs its own connection, the
// goroutines come back (and with them the buffers: a response's pooled
// buffer is held only inside answerConn's frame), and the listener's
// counters say what happened. Listener.Close then ends every session there
// is.
func TestTakenOverSessionCostsOneConnection(t *testing.T) {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections() // other tests' clients
	time.Sleep(10 * time.Millisecond)
	atStart := runtime.NumGoroutine()

	const head, big = "GET /a.html HTTP/1.1\r\nHost: t\r\n\r\n", "GET /big HTTP/1.1\r\nHost: t\r\n\r\n"
	be := New(Config{Store: NewDocStore([]trace.Target{{Name: "/a.html", Size: 1000}, {Name: "/big", Size: 512 << 10}})})
	srv := be.HTTPServer()
	n := startNode(t, srv)
	opened := uint64(0)
	open := func() *session {
		s := n.open(t)
		opened++
		s.request(t, head) // net/http's, and the takeover
		s.request(t, head) // the loop's
		return s
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
		if got := n.hl.Sessions(); got != opened || n.hl.Rejected() != 0 {
			t.Fatalf("%s: %d sessions accepted and %d rejected, want %d and 0", what, got, n.hl.Rejected(), opened)
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
	// sockets between them hold. The loop is stuck in a Write, which costs
	// the others nothing, until the peer goes.
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

	// (d) The listener closes: that ends the transports, and a session ends
	// with its transport.
	n.hl.Close()
	srv.Close()
	settle(t, atStart, "Listener.Close")
	for _, o := range idle {
		o.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := o.br.ReadByte(); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("an idle session after Listener.Close: %v, want its transport closed", err)
		}
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
