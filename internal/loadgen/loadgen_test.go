package loadgen

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lard/internal/trace"
)

func genTrace() *trace.Trace {
	return &trace.Trace{
		Name: "lg",
		Targets: []trace.Target{
			{Name: "/a", Size: 100},
			{Name: "/b", Size: 200},
		},
		Requests: []int32{0, 1, 0, 0, 1, 0, 1, 1, 0, 0},
	}
}

func TestRunIssuesAllRequests(t *testing.T) {
	var served atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Write([]byte(strings.Repeat("x", 50)))
	}))
	defer ts.Close()

	st, err := Run(context.Background(), Config{
		BaseURL: ts.URL,
		Trace:   genTrace(),
		Clients: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 10 || st.Errors != 0 {
		t.Fatalf("stats %+v", st)
	}
	if served.Load() != 10 {
		t.Fatalf("server saw %d requests", served.Load())
	}
	if st.BytesRead != 500 {
		t.Fatalf("BytesRead = %d", st.BytesRead)
	}
	if st.Throughput <= 0 {
		t.Fatalf("Throughput = %v", st.Throughput)
	}
	if st.LatencyP50 <= 0 || st.LatencyMax < st.LatencyP95 || st.LatencyP95 < st.LatencyP50 {
		t.Fatalf("latency ordering: %+v", st)
	}
	if st.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestRunCountsErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/b" {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer ts.Close()
	st, err := Run(context.Background(), Config{BaseURL: ts.URL, Trace: genTrace(), Clients: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 4 { // four /b requests in the trace
		t.Fatalf("Errors = %d, want 4", st.Errors)
	}
	if st.Requests != 6 {
		t.Fatalf("Requests = %d, want 6", st.Requests)
	}
}

func TestRunRequestBudgetWrapsTrace(t *testing.T) {
	var served atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Write([]byte("ok"))
	}))
	defer ts.Close()
	st, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Trace:    genTrace(),
		Clients:  2,
		Requests: 25, // wraps the 10-entry trace
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 25 || served.Load() != 25 {
		t.Fatalf("requests %d served %d", st.Requests, served.Load())
	}
}

func TestRunContextCancellation(t *testing.T) {
	block := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-block
	}))
	defer ts.Close()
	defer close(block)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	st, err := Run(ctx, Config{BaseURL: ts.URL, Trace: genTrace(), Clients: 2, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancellation did not stop the run promptly")
	}
	if st.Requests != 0 {
		t.Fatalf("blocked server produced %d successes", st.Requests)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Run(context.Background(), Config{BaseURL: "http://x"}); err == nil {
		t.Fatal("nil trace accepted")
	}
}

func TestSummarizeLatenciesEmpty(t *testing.T) {
	var st Stats
	summarizeLatencies(&st, nil)
	if st.LatencyAvg != 0 {
		t.Fatal("empty latencies produced averages")
	}
}

// modes are the client's three connection lifetimes: one request, the
// whole run, and a bounded number of requests.
var modes = []struct {
	name        string
	keepAlive   bool
	reqsPerConn int
}{
	{"close", false, 0},
	{"keepalive", true, 0},
	{"reqsperconn", true, 5},
}

// countingServer is a test server that counts the connections it accepts
// and records each request's Connection header.
type countingServer struct {
	*httptest.Server
	conns atomic.Int64
	mu    sync.Mutex
	heads []string
}

func newCountingServer(t *testing.T, h http.HandlerFunc) *countingServer {
	cs := &countingServer{}
	cs.Server = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cs.mu.Lock()
		cs.heads = append(cs.heads, r.Header.Get("Connection"))
		cs.mu.Unlock()
		h(w, r)
	}))
	cs.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			cs.conns.Add(1)
		}
	}
	cs.Start()
	t.Cleanup(cs.Close)
	return cs
}

func TestKeepAliveMode(t *testing.T) {
	ok := func(w http.ResponseWriter, r *http.Request) { w.Write([]byte("ok")) }
	for _, tc := range []struct {
		name      string
		keepAlive bool
		clients   int
		requests  int
	}{
		{"one client keeps one connection", true, 1, 10},
		{"every client keeps one connection", true, 3, 30},
		{"every request closes its connection", false, 3, 10},
	} {
		cs := newCountingServer(t, ok)
		st, err := Run(context.Background(), Config{
			BaseURL:   cs.URL,
			Trace:     genTrace(),
			Clients:   tc.clients,
			Requests:  tc.requests,
			KeepAlive: tc.keepAlive,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Requests != uint64(tc.requests) || st.Errors != 0 {
			t.Fatalf("%s: stats %+v", tc.name, st)
		}
		conns := cs.conns.Load()
		cs.mu.Lock()
		heads := append([]string(nil), cs.heads...)
		cs.mu.Unlock()
		if len(heads) != tc.requests {
			t.Fatalf("%s: server saw %d requests, want %d", tc.name, len(heads), tc.requests)
		}
		want := "close"
		if tc.keepAlive {
			want = ""
		}
		for i, h := range heads {
			if h != want {
				t.Fatalf("%s: request %d carries Connection: %q, want %q", tc.name, i, h, want)
			}
		}
		if tc.keepAlive && (conns < 1 || conns > int64(tc.clients)) {
			t.Fatalf("%s: connections = %d, want 1..%d (one per client at most)", tc.name, conns, tc.clients)
		}
		if !tc.keepAlive && conns != int64(tc.requests) {
			t.Fatalf("%s: connections = %d, want one per request (%d)", tc.name, conns, tc.requests)
		}
	}
}

func TestRatePacesOfferedLoad(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	// 20 requests at 200 req/s must take ~100ms; the closed loop against
	// a local echo server would finish in a few milliseconds.
	start := time.Now()
	st, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Trace:    genTrace(),
		Clients:  4,
		Requests: 20,
		Rate:     200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 20 || st.Errors != 0 {
		t.Fatalf("stats %+v", st)
	}
	if got := time.Since(start); got < 80*time.Millisecond {
		t.Fatalf("paced run finished in %v, want >= ~95ms (rate not applied)", got)
	}
}

func TestDurationEndsTimedRun(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	start := time.Now()
	st, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Trace:    genTrace(),
		Clients:  2,
		Rate:     100,
		Duration: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got > 2*time.Second {
		t.Fatalf("timed run took %v", got)
	}
	// No request budget was set: the clock ended the run, having looped
	// the 10-entry trace as needed, without counting the cutoff as errors.
	if st.Requests == 0 {
		t.Fatal("timed run issued no requests")
	}
	if st.Errors != 0 {
		t.Fatalf("deadline cutoff counted as %d errors", st.Errors)
	}
	if st.LatencyP99 < st.LatencyP95 || st.LatencyMax < st.LatencyP99 {
		t.Fatalf("latency ordering: %+v", st)
	}
}

func TestBacklogSurfacesInLatency(t *testing.T) {
	// The coordinated-omission regression: offer far more load than the
	// server can absorb and the schedule backlog MUST appear in the
	// latency percentiles — open-loop latency is measured from each
	// request's scheduled send time, not from when a free client finally
	// got around to it. Two clients against a 5ms server cap service at
	// ~400 req/s; offering 4000 req/s for 40 requests puts the tail of
	// the schedule ~90ms behind, dwarfing the 5ms service time.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	st, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Trace:    genTrace(),
		Clients:  2,
		Requests: 40,
		Rate:     4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 40 || st.Errors != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.LatencyP99 < 30*time.Millisecond {
		t.Fatalf("p99 = %v under 10x overload; backlog hidden (coordinated omission)", st.LatencyP99)
	}
}

func TestRatePacesPHTTPMode(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	start := time.Now()
	st, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Trace:       genTrace(),
		Clients:     2,
		Requests:    20,
		Rate:        200,
		KeepAlive:   true,
		ReqsPerConn: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 20 || st.Errors != 0 {
		t.Fatalf("stats %+v", st)
	}
	if got := time.Since(start); got < 80*time.Millisecond {
		t.Fatalf("paced P-HTTP run finished in %v, want >= ~95ms", got)
	}
}

func TestSourceAddrsBindClientIdentities(t *testing.T) {
	// Each simulated client must present its assigned loopback source IP,
	// whether it closes every connection or keeps each for a few requests. The clients share one
	// budget of requests, so the handler answers nobody until both have
	// shown up: otherwise one client can drain the budget before the
	// other has connected.
	seen := make(map[string]bool)
	var both chan struct{}
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		host, _, _ := net.SplitHostPort(r.RemoteAddr)
		mu.Lock()
		if seen[host] = true; len(seen) == 2 {
			select {
			case <-both:
			default:
				close(both)
			}
		}
		wait := both
		mu.Unlock()
		select {
		case <-wait:
		case <-time.After(5 * time.Second): // fail below, not hang
		}
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	for _, phttp := range []bool{false, true} {
		mu.Lock()
		clear(seen)
		both = make(chan struct{})
		mu.Unlock()
		cfg := Config{
			BaseURL:     ts.URL,
			Trace:       genTrace(),
			Clients:     2,
			Requests:    10,
			SourceAddrs: []string{"127.0.0.2", "127.0.0.3"},
		}
		if phttp {
			cfg.KeepAlive = true
			cfg.ReqsPerConn = 3
		}
		st, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.Requests != 10 || st.Errors != 0 {
			t.Fatalf("phttp=%v stats %+v", phttp, st)
		}
		mu.Lock()
		ok := seen["127.0.0.2"] && seen["127.0.0.3"] && !seen["127.0.0.1"]
		got := fmt.Sprint(seen)
		mu.Unlock()
		if !ok {
			t.Fatalf("phttp=%v source identities seen: %v", phttp, got)
		}
	}
}

func TestSourceAddrsValidated(t *testing.T) {
	_, err := Run(context.Background(), Config{
		BaseURL:     "http://127.0.0.1:1",
		Trace:       genTrace(),
		SourceAddrs: []string{"not-an-ip"},
	})
	if err == nil {
		t.Fatal("bad SourceAddrs accepted")
	}
}

func TestShedsCountedSeparately(t *testing.T) {
	// A server that sheds every other request with 429 + Retry-After:
	// sheds must land in Sheds/RetryAfterSheds, not Errors or Requests.
	var n atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%2 == 0 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "shed", http.StatusTooManyRequests)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer ts.Close()

	// A server that sheds at accept, as the front end's quota does: it
	// writes a closing 429 before reading a byte, so the response races
	// the connection's first request, then drains what the client sent
	// so its close does not reset the 429 away.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.WriteString(c, "HTTP/1.1 429 Too Many Requests\r\nContent-Length: 5\r\nRetry-After: 1\r\nConnection: close\r\n\r\nshed\n")
				c.SetReadDeadline(time.Now().Add(time.Second))
				io.CopyN(io.Discard, c, 8<<10)
			}()
		}
	}()

	for _, m := range modes {
		cfg := Config{
			BaseURL:     ts.URL,
			Trace:       genTrace(),
			Clients:     1,
			Requests:    10,
			KeepAlive:   m.keepAlive,
			ReqsPerConn: m.reqsPerConn,
		}
		st, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.Requests != 5 || st.Sheds != 5 || st.Errors != 0 {
			t.Fatalf("%s: stats %+v, want 5 served / 5 shed / 0 errors", m.name, st)
		}
		if st.RetryAfterSheds != 5 {
			t.Fatalf("%s: RetryAfterSheds = %d, want 5", m.name, st.RetryAfterSheds)
		}

		cfg.BaseURL = "http://" + ln.Addr().String()
		if st, err = Run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		if st.Sheds != 10 || st.RetryAfterSheds != 10 || st.Errors != 0 || st.Requests != 0 {
			t.Fatalf("%s: accept-time sheds: stats %+v, want 10 shed with Retry-After / 0 errors", m.name, st)
		}
	}
}
