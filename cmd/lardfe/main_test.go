package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"lard/internal/core"
	"lard/internal/frontend"
	"lard/pkg/lard"
)

// frontEndOptions is a command line over two back ends that nothing dials.
func frontEndOptions(strategy string, shards int) options {
	return options{
		backends:   "127.0.0.1:1,127.0.0.1:2",
		strategy:   strategy,
		shards:     shards,
		params:     core.DefaultParams(),
		cacheBytes: lard.DefaultCacheBytes,
	}
}

// TestStrategyByName: every registry name and alias, in any case, builds
// the front end's dispatcher over the back ends, and -shards reaches it.
func TestStrategyByName(t *testing.T) {
	for _, name := range append(lard.Strategies(), "lardr", "LARD/R") {
		fe, err := newFrontEnd(frontEndOptions(name, 1))
		if err != nil {
			t.Fatalf("-strategy %s: %v", name, err)
		}
		if d := fe.Dispatcher(); d.NodeCount() != 2 || d.Shards() != 1 {
			t.Fatalf("-strategy %s: %d nodes, %d shards", name, d.NodeCount(), d.Shards())
		}
	}
	fe, err := newFrontEnd(frontEndOptions("lard/r", 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := fe.Dispatcher().Shards(); got != 4 {
		t.Fatalf("-shards 4: Shards() = %d", got)
	}
}

// TestRunRejectsBadDispatch: an unknown strategy and a shard count below
// one fail before the front end listens.
func TestRunRejectsBadDispatch(t *testing.T) {
	for _, tc := range []struct {
		o    options
		want string
	}{
		{frontEndOptions("nope", 1), `unknown strategy "nope"`},
		{frontEndOptions("pod", 1), `unknown strategy "pod"`},
		{frontEndOptions("lard/r", 0), "-shards"},
		{frontEndOptions("lard/r", -1), "-shards"},
	} {
		err := run(tc.o)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("run(-strategy %s -shards %d): err = %v, want %q", tc.o.strategy, tc.o.shards, err, tc.want)
		}
	}
}

func TestParseWeights(t *testing.T) {
	profiles, err := parseWeights(" 0.5, 1 ,2", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 3 || profiles[0].Weight != 0.5 || profiles[2].Weight != 2 {
		t.Fatalf("parseWeights = %+v", profiles)
	}
	if got, _ := parseWeights("", 3); got != nil {
		t.Fatal("empty -weights should yield no profiles")
	}
	for _, bad := range []string{"1,2", "1,2,3,4", "1,x,3", "1,-2,3", "1,0,3", "NaN,1,3", "1,Inf,3", "1,2,+Inf"} {
		if _, err := parseWeights(bad, 3); err == nil {
			t.Fatalf("parseWeights(%q) accepted", bad)
		}
	}

	// The weights reach the dispatcher: a half node's thresholds scale.
	o := frontEndOptions("wlard", 1)
	o.weights = "0.5,2"
	fe, err := newFrontEnd(o)
	if err != nil {
		t.Fatal(err)
	}
	got := fe.Dispatcher().Profiles()
	if got[0].THigh != 33 || got[1].THigh != 130 {
		t.Fatalf("profiles = %+v, want T_high 33 and 130", got)
	}
}

func TestAdminMux(t *testing.T) {
	fe, err := frontend.New(frontend.Config{
		Backends: []string{"127.0.0.1:1", "127.0.0.1:2"},
		Strategy: "lard",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(adminMux(fe))
	defer srv.Close()

	post := func(path string) int {
		resp, err := http.Post(srv.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("/admin/drain?node=1"); code != 200 {
		t.Fatalf("drain: %d", code)
	}
	if st := fe.Dispatcher().NodeStates(); !st[1].Draining {
		t.Fatal("node 1 not draining")
	}
	if code := post("/admin/undrain?node=1"); code != 200 {
		t.Fatalf("undrain: %d", code)
	}
	if code := post("/admin/drain?node=9"); code != http.StatusBadRequest {
		t.Fatalf("out-of-range drain: %d", code)
	}
	if code := post("/admin/remove?node=1"); code != 200 {
		t.Fatalf("remove: %d", code)
	}
	// Ops on a removed node must not claim success.
	if code := post("/admin/drain?node=1"); code != http.StatusConflict {
		t.Fatalf("drain removed: %d", code)
	}
	if code := post("/admin/remove?node=1"); code != http.StatusConflict {
		t.Fatalf("remove twice: %d", code)
	}
	// Malformed addresses must be rejected before an irreversible join.
	if code := post("/admin/add?addr=notanaddress"); code != http.StatusBadRequest {
		t.Fatalf("add bad addr: %d", code)
	}
	if code := post("/admin/add"); code != http.StatusBadRequest {
		t.Fatalf("add no addr: %d", code)
	}
	if code := post("/admin/add?addr=127.0.0.1:9005"); code != 200 {
		t.Fatalf("add: %d", code)
	}
	if n := fe.Dispatcher().NodeCount(); n != 3 {
		t.Fatalf("NodeCount = %d after add", n)
	}
	resp, err := http.Get(srv.URL + "/admin/nodes")
	if err != nil {
		t.Fatal(err)
	}
	var nodes []frontend.NodeInfo
	if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(nodes) != 3 || nodes[2].Addr != "127.0.0.1:9005" || nodes[1].State.Member {
		t.Fatalf("nodes snapshot: %+v", nodes)
	}

	resp, err = http.Get(srv.URL + "/admin/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st frontend.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.ActivePerNode) != 3 {
		t.Fatalf("stats ActivePerNode = %v, want 3 nodes", st.ActivePerNode)
	}
	if _, ok := st.SessionsByPolicy["pin"]; !ok {
		t.Fatalf("stats missing per-policy session counts: %+v", st.SessionsByPolicy)
	}

	// Live profile retune: node 0 drops to half weight, visible in the
	// nodes snapshot; bad nodes and empty retunes are rejected.
	if code := post("/admin/profile?node=0&weight=0.5"); code != 200 {
		t.Fatalf("profile retune: %d", code)
	}
	if code := post("/admin/profile?node=1&weight=2"); code != http.StatusBadRequest {
		t.Fatalf("profile retune removed node: %d", code)
	}
	if code := post("/admin/profile?node=0"); code != http.StatusBadRequest {
		t.Fatalf("profile retune without fields: %d", code)
	}
	for _, w := range []string{"x", "NaN", "Inf", "-Inf"} {
		if code := post("/admin/profile?node=0&weight=" + w); code != http.StatusBadRequest {
			t.Fatalf("profile retune weight=%s: %d", w, code)
		}
	}
	resp, err = http.Get(srv.URL + "/admin/nodes")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&nodes); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if p := nodes[0].Profile; p.Weight != 0.5 || p.TLow != 13 || p.THigh != 33 {
		t.Fatalf("node 0 profile after retune = %+v", p)
	}

	resp, err = http.Get(srv.URL + "/admin/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE lard_fe_requests_total counter",
		`lard_fe_sheds_total{reason="quota"} 0`,
		`lard_fe_request_seconds_bucket{policy="pin",le="+Inf"} 0`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics output missing %q:\n%s", want, body)
		}
	}
}

// TestAdminHalfHeadIsTimedOut: a peer that sends half a request head to the
// admin server loses its connection when the head's time runs out, instead
// of holding a goroutine for ever.
func TestAdminHalfHeadIsTimedOut(t *testing.T) {
	fe, err := frontend.New(frontend.Config{
		Backends: []string{"127.0.0.1:1"},
		Strategy: "lard",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := adminServer("127.0.0.1:0", fe)
	if srv.ReadHeaderTimeout != adminHeaderTimeout || adminHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, want %v", srv.ReadHeaderTimeout, adminHeaderTimeout)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond // the same clock, sooner
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := io.WriteString(c, "GET /admin/stats HTTP/1.1\r\nHo"); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if reply, err := io.ReadAll(c); err != nil {
		t.Fatalf("half a request head: %q, then %v; want the connection closed", reply, err)
	}
}

// TestAdminServesHeapProfile: the admin server answers a heap profile of
// the live front end, through the mux it builds and not through
// http.DefaultServeMux, which it never serves.
func TestAdminServesHeapProfile(t *testing.T) {
	fe, err := frontend.New(frontend.Config{
		Backends: []string{"127.0.0.1:1"},
		Strategy: "lard",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := adminServer("127.0.0.1:0", fe)
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "heap profile:") {
		t.Fatalf("GET /debug/pprof/heap?debug=1: %d, %.80q, %v", resp.StatusCode, body, err)
	}
}

// TestAdminTurnsOnMutexProfile: with the admin server on, the runtime
// samples mutex contention, so /debug/pprof/mutex has something to show.
func TestAdminTurnsOnMutexProfile(t *testing.T) {
	defer runtime.SetMutexProfileFraction(runtime.SetMutexProfileFraction(0))
	fe, err := newFrontEnd(frontEndOptions("lard", 1))
	if err != nil {
		t.Fatal(err)
	}
	adminServer("127.0.0.1:0", fe)
	if got := runtime.SetMutexProfileFraction(-1); got != mutexProfileRate || got <= 0 {
		t.Fatalf("mutex profile fraction %d, want %d", got, mutexProfileRate)
	}
}

func TestSplitAddrs(t *testing.T) {
	got := splitAddrs(" a:1, b:2 ,,c:3 ")
	if len(got) != 3 || got[0] != "a:1" || got[1] != "b:2" || got[2] != "c:3" {
		t.Fatalf("splitAddrs = %v", got)
	}
	if splitAddrs("") != nil {
		t.Fatal("empty input should yield no addrs")
	}
}
