package frontend

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"lard/internal/backend"
	"lard/internal/core"
	"lard/internal/handoff"
	"lard/internal/loadgen"
	"lard/internal/trace"
	"lard/pkg/lard"
)

// miniCluster is a live prototype cluster on loopback: n back ends behind
// one front end.
type miniCluster struct {
	fe       *Server
	feAddr   string
	backends []*backend.Server
}

// startCluster builds and starts a cluster with the given policy and
// back-end count. The store serves the catalog of tr. Optional mod funcs
// adjust the front-end Config before it is built.
func startCluster(t *testing.T, n int, strategy string, tr *trace.Trace, cacheBytes int64, mod ...func(*Config)) *miniCluster {
	t.Helper()
	mc := &miniCluster{}
	store := backend.NewDocStore(tr.Targets)
	var addrs []string
	for i := 0; i < n; i++ {
		be := backend.New(backend.Config{
			Store:         store,
			CacheBytes:    cacheBytes,
			DiskTimeScale: 0.001, // 28µs "seeks": fast tests, real ordering
		})
		ln, err := handoff.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: be.Handler()}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close(); ln.Close() })
		mc.backends = append(mc.backends, be)
		addrs = append(addrs, ln.Addr().String())
	}
	cfg := Config{Backends: addrs, Strategy: strategy}
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
	mc.fe = fe
	mc.feAddr = ln.Addr().String()
	return mc
}

// respelled is addr, an IPv4 "host:port", spelled as the IPv4-mapped IPv6
// address it also is: the same socket, dialed the same way, but a name no
// pass address answers to, so a front end configured with it relays.
func respelled(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		panic(err)
	}
	return net.JoinHostPort("::ffff:"+host, port)
}

// relayOnly is a Config mod that keeps every connection on the relay path
// (pass.go): the back ends addressed as respelled.
func relayOnly(c *Config) {
	for i, addr := range c.Backends {
		c.Backends[i] = respelled(addr)
	}
}

func smallTrace(t *testing.T, files, requests int) *trace.Trace {
	t.Helper()
	cfg := trace.SyntheticConfig{
		Name:         "live",
		Targets:      files,
		Requests:     requests,
		DataSetBytes: int64(files) * 4096,
		ZipfAlpha:    0.9,
		SizeSigma:    0.4,
		MinFileBytes: 512,
	}
	return trace.MustGenerate(cfg, 99)
}

func TestEndToEndSingleRequest(t *testing.T) {
	tr := smallTrace(t, 20, 100)
	mc := startCluster(t, 2, "wrr", tr, 1<<20)
	target := tr.At(0).Target
	resp, err := http.Get("http://" + mc.feAddr + target)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want := backend.ContentBytes(target, tr.At(0).Size)
	if !bytes.Equal(body, want) {
		t.Fatalf("content corrupted through handoff: %d vs %d bytes", len(body), len(want))
	}
	st := mc.fe.Stats()
	if st.Handoffs != 1 || st.Accepted != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLARDBeatsWRRHitRatioLive(t *testing.T) {
	// The paper's prototype result (Figure 18's mechanism): with per-node
	// caches that cannot hold the working set, LARD's partitioning yields
	// far better cluster-wide hit ratios than WRR on real HTTP traffic.
	tr := smallTrace(t, 60, 600)
	perNodeCache := int64(20 * 4096) // each node caches ~1/3 of the catalog

	hitRatio := func(strategy string) float64 {
		mc := startCluster(t, 3, strategy, tr, perNodeCache)
		st, err := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL: "http://" + mc.feAddr,
			Trace:   tr,
			Clients: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Errors > 0 {
			t.Fatalf("loadgen errors: %d", st.Errors)
		}
		var hits, reqs uint64
		for _, be := range mc.backends {
			s := be.Stats()
			hits += s.Hits
			reqs += s.Requests
		}
		if reqs == 0 {
			t.Fatal("no requests reached back ends")
		}
		return float64(hits) / float64(reqs)
	}

	wrr := hitRatio("wrr")
	lard := hitRatio("lard")
	if lard <= wrr+0.1 {
		t.Fatalf("live LARD hit ratio %.3f not well above WRR %.3f", lard, wrr)
	}
}

func TestPersistentConnectionsSingleBackend(t *testing.T) {
	// Default mode: one handoff serves many requests on a keep-alive
	// connection.
	tr := smallTrace(t, 10, 50)
	mc := startCluster(t, 2, "lard/r", tr, 1<<20)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	for i := 0; i < 10; i++ {
		r := tr.At(i)
		resp, err := client.Get("http://" + mc.feAddr + r.Target)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	client.CloseIdleConnections()
	st := mc.fe.Stats()
	if st.Accepted != 1 {
		t.Fatalf("Accepted = %d, want 1 (keep-alive)", st.Accepted)
	}
	if st.Handoffs != 1 {
		t.Fatalf("Handoffs = %d, want 1 in whole-connection mode", st.Handoffs)
	}
}

func TestPerRequestRehandoffMode(t *testing.T) {
	// Re-handoff mode: requests on one connection may be served by
	// different back ends; content must survive the relay.
	tr := smallTrace(t, 30, 100)
	store := backend.NewDocStore(tr.Targets)
	var addrs []string
	var bes []*backend.Server
	for i := 0; i < 2; i++ {
		be := backend.New(backend.Config{Store: store, CacheBytes: 1 << 20})
		ln, err := handoff.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &http.Server{Handler: be.Handler()}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close(); ln.Close() })
		addrs = append(addrs, ln.Addr().String())
		bes = append(bes, be)
	}
	fe, err := New(Config{
		Backends:   addrs,
		Strategy:   "lb", // deterministic target→backend spread
		ConnPolicy: lard.ConnPerRequest,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fe.Serve(ln)
	t.Cleanup(func() { fe.Close() })

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	for i := 0; i < 30; i++ {
		r := tr.At(i)
		resp, err := client.Get("http://" + ln.Addr().String() + r.Target)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Equal(body, backend.ContentBytes(r.Target, r.Size)) {
			t.Fatalf("request %d: corrupted body (%d bytes)", i, len(body))
		}
	}
	client.CloseIdleConnections()
	// With LB over 2 back ends and 30 distinct-ish targets, both back
	// ends must have seen traffic through one client connection.
	if bes[0].Stats().Requests == 0 || bes[1].Stats().Requests == 0 {
		t.Fatalf("rehandoff did not spread: %d vs %d",
			bes[0].Stats().Requests, bes[1].Stats().Requests)
	}
	st := fe.Stats()
	if st.Rehandoffs == 0 {
		t.Fatal("no re-handoffs recorded")
	}
}

func TestBackendFailureReturns502AndMarksDown(t *testing.T) {
	tr := smallTrace(t, 10, 10)
	// Probing off: this test marks a perfectly healthy back end down and
	// expects it to stay down; the prober would (correctly) restore it.
	mc := startCluster(t, 2, "lard", tr, 1<<20,
		func(c *Config) { c.probeInterval = -1 })
	// Fresh connections each time: a kept-alive connection is already
	// handed off and correctly bypasses the dispatcher.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	// Point backend 0 at a dead address by marking it down directly.
	mc.fe.SetBackendDown(0, true)
	for i := 0; i < 5; i++ {
		resp, err := client.Get("http://" + mc.feAddr + tr.At(i).Target)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d with one live backend", i, resp.StatusCode)
		}
	}
	if got := mc.backends[0].Stats().Requests; got != 0 {
		t.Fatalf("downed backend served %d requests", got)
	}
	// All backends down → 503 on a fresh connection.
	mc.fe.SetBackendDown(1, true)
	resp, err := client.Get("http://" + mc.feAddr + tr.At(0).Target)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if mc.fe.Stats().Rejected == 0 {
		t.Fatal("rejection not counted")
	}
}

func TestDialFailureMarksNodeDown(t *testing.T) {
	// A front end configured with one dead address and one live back end
	// must converge onto the live one after the first dial failure.
	tr := smallTrace(t, 5, 5)
	store := backend.NewDocStore(tr.Targets)
	be := backend.New(backend.Config{Store: store, CacheBytes: 1 << 20})
	ln, err := handoff.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: be.Handler()}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close(); ln.Close() })

	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close() // nothing listens here any more

	fe, err := New(Config{
		Backends:               []string{deadAddr, ln.Addr().String()},
		Strategy:               "wrr",
		dialTimeout:            500 * time.Millisecond,
		dialFailuresBeforeDown: 1, // seed one-strike behavior
		probeInterval:          -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	feLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fe.Serve(feLn)
	t.Cleanup(func() { fe.Close() })

	ok := 0
	for i := 0; i < 6; i++ {
		resp, err := http.Get("http://" + feLn.Addr().String() + tr.At(0).Target)
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == 200 {
			ok++
		}
	}
	// At most the first request can fail (502); after NodeDown everything
	// lands on the live back end.
	if ok < 5 {
		t.Fatalf("only %d of 6 requests succeeded after dial failure", ok)
	}
}

func TestConnPolicyConfigAndSessionStats(t *testing.T) {
	// Every policy name must build; the session counters must reflect the
	// traffic. On the relay path: a passed connection's requests after its
	// first never reach the front end to be counted.
	tr := smallTrace(t, 10, 30)
	for _, policy := range []string{lard.ConnPin, lard.ConnPerRequest, lard.ConnCostAware} {
		mc := startCluster(t, 2, "lard", tr, 1<<20, relayOnly, func(c *Config) { c.ConnPolicy = policy })
		if got := mc.fe.ConnPolicy().Name(); got != policy {
			t.Fatalf("ConnPolicy() = %q, want %q", got, policy)
		}
		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
		for i := 0; i < 6; i++ {
			resp, err := client.Get("http://" + mc.feAddr + tr.At(i).Target)
			if err != nil {
				t.Fatalf("%s: %v", policy, err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		client.CloseIdleConnections()
		st := mc.fe.Stats()
		if st.Dispatches != 6 {
			t.Fatalf("%s: Dispatches = %d, want 6", policy, st.Dispatches)
		}
		if st.SessionsByPolicy[policy] == 0 {
			t.Fatalf("%s: no sessions counted: %+v", policy, st.SessionsByPolicy)
		}
	}
	if _, err := New(Config{Backends: []string{"127.0.0.1:1"}, ConnPolicy: "bogus"}); err == nil {
		t.Fatal("unknown ConnPolicy accepted")
	}
}

func TestPinnedSessionMovesWhenBackendDrains(t *testing.T) {
	// The membership semantics the unified session loop buys: a
	// keep-alive connection pinned to a draining back end moves on its
	// next request instead of sticking forever. That is the relay path's:
	// a connection passed to its back end stays there
	// (TestPassedConnectionStaysThroughDrain).
	tr := smallTrace(t, 12, 40)
	mc := startCluster(t, 2, "lard", tr, 1<<20, relayOnly,
		func(c *Config) { c.ConnPolicy = lard.ConnPin; c.probeInterval = -1 })
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	get := func(i int) {
		t.Helper()
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
	get(0)
	first := -1
	for node := range mc.backends {
		if mc.backends[node].Stats().Requests > 0 {
			first = node
		}
	}
	if first < 0 {
		t.Fatal("no backend served the first request")
	}
	mc.fe.DrainBackend(first)
	for i := 1; i < 6; i++ {
		get(i)
	}
	client.CloseIdleConnections()
	other := 1 - first
	if mc.backends[other].Stats().Requests == 0 {
		t.Fatalf("drained backend %d kept the pinned connection (stats %+v)", first, mc.fe.Stats())
	}
	if mc.fe.Stats().Rehandoffs == 0 {
		t.Fatal("forced move not counted as a re-handoff")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no backends accepted")
	}
	if _, err := New(Config{
		Backends: []string{"127.0.0.1:1"},
		Strategy: "no-such-policy",
	}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := New(Config{
		Backends: []string{"127.0.0.1:1"},
		Strategy: "lard",
		Profiles: []core.Profile{{Weight: -1}},
	}); err == nil {
		t.Fatal("invalid profile accepted")
	}
}

// TestResolvedDefaults pins what a front end built from Backends alone runs
// with, for each value Config no longer exports: every one equals the
// default the field it replaced had.
func TestResolvedDefaults(t *testing.T) {
	build := func(quotaRate float64) *Server {
		fe, err := New(Config{Backends: []string{"127.0.0.1:1"}, QuotaRate: quotaRate})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fe.Close() })
		return fe
	}
	fe := build(0)
	for _, tc := range []struct {
		name      string
		got, want any
	}{
		{"pool size", fe.pool.size, 8},
		{"pool idle", fe.pool.ttl, 30 * time.Second},
		{"header timeout", fe.cfg.headerTimeout, 30 * time.Second},
		{"maximum head", maxHeadBytes, 64 << 10},
		{"dial timeout", fe.cfg.dialTimeout, 5 * time.Second},
		{"probe interval", fe.cfg.probeInterval, time.Second},
		{"dial failures before down", fe.cfg.dialFailuresBeforeDown, 3},
		{"quota burst at rate 0.5", build(0.5).ov.quota.Config().Burst, 1.0},
		{"quota burst at rate 10", build(10).ov.quota.Config().Burst, 10.0},
		{"quota clients", build(10).ov.quota.Config().MaxClients, 4096},
	} {
		if tc.got != tc.want {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

// Config.Profiles reaches the dispatcher, and SetProfile retunes it live
// with the resolved thresholds visible through Nodes().
func TestConfigProfilesAndSetProfile(t *testing.T) {
	fe, err := New(Config{
		Backends:      []string{"127.0.0.1:1", "127.0.0.1:2"},
		Strategy:      "wlard",
		Profiles:      []core.Profile{{Weight: 0.5}},
		probeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes := fe.Nodes()
	if p := nodes[0].Profile; p.Weight != 0.5 || p.THigh != 33 {
		t.Fatalf("node 0 profile = %+v, want weight 0.5 T_high 33", p)
	}
	if p := nodes[1].Profile; p.Weight != 1 || p.THigh != 65 {
		t.Fatalf("node 1 profile = %+v, want fleet default", p)
	}
	if err := fe.SetProfile(0, core.Profile{Weight: 2}); err != nil {
		t.Fatal(err)
	}
	if p := fe.Nodes()[0].Profile; p.Weight != 2 || p.THigh != 130 {
		t.Fatalf("node 0 profile after retune = %+v", p)
	}
	if err := fe.SetProfile(9, core.Profile{Weight: 1}); err == nil {
		t.Fatal("retune of unknown node accepted")
	}
}

func TestStatsSnapshot(t *testing.T) {
	tr := smallTrace(t, 5, 5)
	// Relayed: a passed connection's bytes are counted when it closes, and
	// the default client keeps it open.
	mc := startCluster(t, 2, "wrr", tr, 1<<20, relayOnly)
	resp, err := http.Get("http://" + mc.feAddr + tr.At(0).Target)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// The client can finish reading the body before the relay loop has
	// returned from its last write and accounted the bytes.
	waitFor(t, 5*time.Second, "forwarded bytes to be recorded", func() bool {
		return mc.fe.Stats().BackendToClient > 0
	})
	st := mc.fe.Stats()
	if len(st.ActivePerNode) != 2 {
		t.Fatalf("ActivePerNode = %v", st.ActivePerNode)
	}
	if fmt.Sprint(st) == "" {
		t.Fatal("unprintable stats")
	}
}
