package loadgen

import (
	"context"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

func TestConnLenDraw(t *testing.T) {
	rng := rand.New(rand.NewSource(7))

	fixed, err := connLenDraw(ConnDistFixed, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if k := fixed(); k != 5 {
			t.Fatalf("fixed draw = %d", k)
		}
	}

	geo, err := connLenDraw(ConnDistGeometric, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	sum, n := 0, 20000
	for i := 0; i < n; i++ {
		k := geo()
		if k < 1 {
			t.Fatalf("geometric draw %d < 1", k)
		}
		sum += k
	}
	mean := float64(sum) / float64(n)
	if mean < 7 || mean > 9 {
		t.Fatalf("geometric mean = %.2f, want ≈8", mean)
	}

	if _, err := connLenDraw("weibull", 4, rng); err == nil {
		t.Fatal("unknown distribution accepted")
	}
	// mean 0 clamps to 1 rather than dividing by zero.
	one, err := connLenDraw(ConnDistGeometric, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	if k := one(); k < 1 {
		t.Fatalf("clamped draw = %d", k)
	}
}

func TestPHTTPModeBoundsRequestsPerConnection(t *testing.T) {
	var conns, served atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Write([]byte("ok"))
	}))
	ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()

	st, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Trace:       genTrace(),
		Clients:     1,
		Requests:    20,
		KeepAlive:   true,
		ReqsPerConn: 5,
		ConnDist:    ConnDistFixed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 20 || st.Errors != 0 {
		t.Fatalf("stats %+v", st)
	}
	if served.Load() != 20 {
		t.Fatalf("server saw %d requests", served.Load())
	}
	// 20 requests at exactly 5 per connection = 4 connections.
	if got := conns.Load(); got != 4 {
		t.Fatalf("connections = %d, want 4", got)
	}
	if st.LatencyP50 <= 0 || st.BytesRead == 0 {
		t.Fatalf("latency/bytes not recorded: %+v", st)
	}
}

func TestPHTTPModeCountsServerErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/b" {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Write([]byte("ok"))
	}))
	defer ts.Close()
	st, err := Run(context.Background(), Config{
		BaseURL:     ts.URL,
		Trace:       genTrace(),
		Clients:     2,
		KeepAlive:   true,
		ReqsPerConn: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 4 || st.Requests != 6 {
		t.Fatalf("stats %+v, want 6 ok / 4 errors", st)
	}
}

func TestPHTTPModeRejectsBadConfig(t *testing.T) {
	if _, err := Run(context.Background(), Config{
		BaseURL: "http://127.0.0.1:0", Trace: genTrace(),
		KeepAlive: true, ReqsPerConn: 2, ConnDist: "nope",
	}); err == nil {
		t.Fatal("bad ConnDist accepted")
	}
	if _, err := Run(context.Background(), Config{
		BaseURL: "ftp://x", Trace: genTrace(),
		KeepAlive: true, ReqsPerConn: 2,
	}); err == nil {
		t.Fatal("non-http BaseURL accepted")
	}
}
