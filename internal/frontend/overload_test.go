package frontend

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"lard/internal/backend"
	"lard/internal/breaker"
	"lard/internal/handoff"
)

// rawGet issues one GET on a fresh raw connection and returns the parsed
// response. The accept-time quota shed answers before reading the
// request — legal HTTP/1.1 (a server may respond early), but net/http's
// transport races its background read against the request write and
// reports "unsolicited response" instead of returning the 429; a plain
// connection just reads whatever comes back.
func rawGet(t *testing.T, addr, target string) *http.Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: lard\r\nConnection: close\r\n\r\n", target)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp
}

func TestQuotaSheds429WithRetryAfter(t *testing.T) {
	tr := smallTrace(t, 10, 10)
	mc := startCluster(t, 2, "wrr", tr, 1<<20, func(c *Config) {
		c.QuotaRate = 1
		c.quotaBurst = 2
	})
	// Fresh connections: every loopback request shares one quota bucket
	// (keyed by client IP), and the burst of 2 runs out on the third.
	var shed *http.Response
	ok := 0
	for i := 0; i < 6; i++ {
		resp := rawGet(t, mc.feAddr, tr.At(0).Target)
		switch resp.StatusCode {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			if shed == nil {
				shed = resp
			}
		default:
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	if ok == 0 || shed == nil {
		t.Fatalf("ok=%d shed=%v: want some served within burst and some shed", ok, shed)
	}
	if ra := shed.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 missing Retry-After")
	}
	st := mc.fe.Stats()
	if st.QuotaSheds == 0 {
		t.Fatalf("stats: QuotaSheds = 0 after shedding, %+v", st)
	}
	if st.QuotaClients == 0 {
		t.Fatal("stats: no quota clients tracked")
	}
	var buf bytes.Buffer
	if err := mc.fe.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `lard_fe_sheds_total{reason="quota"}`) {
		t.Fatalf("metrics missing quota shed series:\n%s", buf.String())
	}
}

func TestOverload503CarriesRetryAfter(t *testing.T) {
	tr := smallTrace(t, 5, 5)
	mc := startCluster(t, 1, "wrr", tr, 1<<20,
		func(c *Config) { c.probeInterval = -1 })
	mc.fe.SetBackendDown(0, true)
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get("http://" + mc.feAddr + tr.At(0).Target)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}
}

// TestBreakerTripsOnDeadBackend exercises the breaker layer end to end:
// a dead back end's dial failures trip its breaker well before the
// (deliberately high) mark-down threshold, the node gate detours traffic
// to the live back end, and the trip is visible in Stats and metrics.
func TestBreakerTripsOnDeadBackend(t *testing.T) {
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
	dead.Close()

	fe, err := New(Config{
		Backends:               []string{deadAddr, ln.Addr().String()},
		Strategy:               "wrr",
		dialTimeout:            500 * time.Millisecond,
		dialFailuresBeforeDown: 100, // mark-down effectively off: the breaker acts first
		probeInterval:          -1,
		Breaker: &breaker.Config{
			FailureThreshold: 2,
			OpenBase:         time.Minute, // stays open for the whole test
		},
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

	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for i := 0; i < 8; i++ {
		resp, err := client.Get("http://" + feLn.Addr().String() + tr.At(0).Target)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		// Every request must succeed: failed dials redispatch to the live
		// node inside the same request.
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	st := fe.Stats()
	if st.BreakerTrips == 0 {
		t.Fatalf("breaker never tripped: %+v", st)
	}
	if len(st.BreakerStates) < 1 || st.BreakerStates[0] != "open" {
		t.Fatalf("breaker states = %v, want node 0 open", st.BreakerStates)
	}
	// The gate keeps further traffic off the dead node: dial failures must
	// stop accumulating once open.
	fails := fe.Nodes()[0].DialFails
	for i := 0; i < 4; i++ {
		resp, err := client.Get("http://" + feLn.Addr().String() + tr.At(0).Target)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if got := fe.Nodes()[0].DialFails; got != fails {
		t.Fatalf("gated node still being dialed: failures %d -> %d", fails, got)
	}
	var buf bytes.Buffer
	if err := fe.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `lard_fe_breaker_transitions_total{node="0",to="open"}`) {
		t.Fatalf("metrics missing breaker transition series:\n%s", buf.String())
	}
}

// TestPooledHandoffsCloseHalfOpenRound: every breaker admission reports
// its outcome, pooled or dialed. A recovered node in HalfOpen whose three
// probes are one dial and two pool hits closes its round and moves to
// Recovering; counting dials alone left it HalfOpen with its budget spent
// and the node unhealthy, to re-open and evict its pool after the backoff.
func TestPooledHandoffsCloseHalfOpenRound(t *testing.T) {
	tr := smallTrace(t, 4, 4)
	const openFor = 200 * time.Millisecond
	mc := startCluster(t, 1, "wrr", tr, 1<<20, func(c *Config) {
		c.probeInterval = -1
		c.Breaker = &breaker.Config{HalfOpenProbes: 3, OpenBase: openFor}
	})
	fe, b := mc.fe, mc.fe.Breakers()
	for i := 0; i < 5; i++ {
		b.Failure(0, fe.now())
	}
	if state := b.State(0, fe.now()); state != breaker.Open {
		t.Fatalf("breaker %v after five failures, want Open", state)
	}
	time.Sleep(openFor + 50*time.Millisecond) // HalfOpen at the next look

	for i := 0; i < 3; i++ {
		closingExchange(t, fe, mc.feAddr, fmt.Sprintf("GET %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n", tr.At(i).Target))
	}
	if st := fe.Stats(); st.PoolMisses != 1 || st.PoolHits != 2 {
		t.Fatalf("pool misses %d, hits %d; want one dial, then two pool hits", st.PoolMisses, st.PoolHits)
	}
	if state := b.State(0, fe.now()); state != breaker.Recovering || !b.Healthy(0, fe.now()) {
		t.Fatalf("breaker %v, healthy %t after three probes that succeeded: want Recovering", state, b.Healthy(0, fe.now()))
	}
}

func TestMetricsSurfaceAfterTraffic(t *testing.T) {
	tr := smallTrace(t, 10, 20)
	mc := startCluster(t, 2, "lard", tr, 1<<20)
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for i := 0; i < 5; i++ {
		resp, err := client.Get("http://" + mc.feAddr + tr.At(i).Target)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// The client can finish reading a body before the relay loop has
	// returned from its last write and counted the response.
	waitFor(t, 5*time.Second, "all five responses to be counted", func() bool {
		return mc.fe.Stats().Served == 5
	})
	var buf bytes.Buffer
	if err := mc.fe.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"lard_fe_requests_total 5",
		"lard_fe_responses_total 5",
		`lard_fe_request_seconds_bucket{policy="pin",le="+Inf"} 5`,
		`lard_fe_node_request_seconds_bucket{node="0",le="+Inf"}`,
		`lard_fe_request_seconds_count{policy="pin"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, out)
		}
	}

	// A node joined at runtime exports its latency series once it has
	// served a request: with the configured nodes drained, it serves the
	// next one.
	_, _, addr := startBackendAt(t, "127.0.0.1:0", backend.NewDocStore(tr.Targets), 1<<20)
	node := mc.fe.AddBackend(addr)
	mc.fe.DrainBackend(0)
	mc.fe.DrainBackend(1)
	resp, err := client.Get("http://" + mc.feAddr + tr.At(5).Target)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("request to the joined node: status %d", resp.StatusCode)
	}
	waitFor(t, 5*time.Second, "the sixth response to be counted", func() bool {
		return mc.fe.Stats().Served == 6
	})
	want := fmt.Sprintf(`lard_fe_node_request_seconds_count{node="%d"} 1`, node)
	if got := scrape(t, mc.fe)[strings.TrimSuffix(want, " 1")]; got != 1 {
		t.Fatalf("%s: got %d", want, got)
	}
}

// TestStatsIsRegistryView: Stats holds no counters of its own. After a
// mixed run — two keep-alive connections re-dispatched per request whose
// last requests say close, one dial failure recovered by re-dispatch (and
// the mark-down it causes), one quota shed — every monotonic Stats field
// equals its lard_fe_* series in the Prometheus exposition, and the
// pool's checkouts balance. (Passed is 0 here, as the quota keeps every
// connection on the relay; TestPinnedConnectionIsPassed reads its series
// where it is not.)
func TestStatsIsRegistryView(t *testing.T) {
	tr := smallTrace(t, 12, 12)
	store := backend.NewDocStore(tr.Targets)
	var addrs []string
	for i := 0; i < 2; i++ {
		_, _, addr := startBackendAt(t, "127.0.0.1:0", store, 1<<20)
		addrs = append(addrs, addr)
	}
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead.Close() // refuses instantly
	const burst = 9
	fe, feAddr := startRelayFrontend(t, append(addrs, dead.Addr().String()), func(c *Config) {
		c.Strategy = "lb" // spreads targets over all three nodes
		c.dialFailuresBeforeDown = 1
		c.QuotaRate = 0.001
		c.quotaBurst = burst
	})

	// Two keep-alive connections in turn, each ending on a request that
	// says close. The first moves between the live nodes and back (re-
	// handoffs, and resumes of the sessions it parked); the second finds
	// the pool holding the first one's open sessions and pays their ends
	// with its handoff headers.
	next := 0
	for _, requests := range []int{6, burst - 6} {
		conn, err := net.Dial("tcp", feAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for i := 0; i < requests; i++ {
			closing := ""
			if i == requests-1 {
				closing = "Connection: close\r\n"
			}
			fmt.Fprintf(conn, "GET %s HTTP/1.1\r\nHost: t\r\n%s\r\n", tr.Targets[next].Name, closing)
			if h, _ := readOneResponse(t, br, "GET"); h.Status != 200 {
				t.Fatalf("request %d: status %d", next, h.Status)
			}
			next++
		}
		conn.Close()
		waitFor(t, 5*time.Second, "the session to retire", func() bool {
			return fe.Stats().ActiveSessions == 0
		})
	}
	if resp := rawGet(t, feAddr, tr.Targets[0].Name); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request past the burst: status %d, want 429", resp.StatusCode)
	}
	waitFor(t, 5*time.Second, "sessions to retire", func() bool {
		return fe.Stats().ActiveSessions == 0
	})

	st := fe.Stats()
	if st.Rehandoffs == 0 || st.Redispatches != 1 || st.MarkedDown != 1 || st.QuotaSheds != 1 || st.StaleRetries != 0 ||
		st.CloseConsumed != 2 || st.SessionEndsWithHeader == 0 || st.SessionResumes == 0 || st.PoolHits == 0 || st.Direct != st.Served {
		t.Fatalf("run did not exercise the mix it is meant to: %+v", st)
	}
	// Every handoff and the one refused dial went through the pool (and
	// every resume, which is counted as neither hit nor miss).
	if got, want := st.PoolHits+st.PoolMisses, st.Handoffs+st.Redispatches; got != want {
		t.Fatalf("pool hits %d + misses %d = %d, want %d checkouts", st.PoolHits, st.PoolMisses, got, want)
	}

	series := scrape(t, fe)
	var trips uint64
	for name, v := range series {
		if strings.HasPrefix(name, "lard_fe_breaker_transitions_total{") && strings.HasSuffix(name, `to="open"}`) {
			trips += v
		}
	}
	for name, want := range map[string]uint64{
		"lard_fe_accepted_total":                        st.Accepted,
		`lard_fe_sessions_total{policy="perreq"}`:       st.SessionsByPolicy["perreq"],
		"lard_fe_active_sessions":                       uint64(st.ActiveSessions),
		"lard_fe_dispatches_total":                      st.Dispatches,
		"lard_fe_responses_total":                       st.Served,
		"lard_fe_handoffs_total":                        st.Handoffs,
		"lard_fe_passed_total":                          st.Passed,
		"lard_fe_direct_total":                          st.Direct,
		"lard_fe_rehandoffs_total":                      st.Rehandoffs,
		"lard_fe_session_resumes_total":                 st.SessionResumes,
		"lard_fe_rehandoff_fails_total":                 st.RehandoffFails,
		"lard_fe_redispatches_total":                    st.Redispatches,
		"lard_fe_stale_retries_total":                   st.StaleRetries,
		"lard_fe_errors_total":                          st.Errors,
		`lard_fe_sheds_total{reason="quota"}`:           st.QuotaSheds,
		`lard_fe_sheds_total{reason="overload"}`:        st.Rejected,
		`lard_fe_sheds_total{reason="breaker"}`:         st.BreakerSheds,
		"lard_fe_breaker_denials_total":                 st.BreakerDenials,
		"lard_fe_markdowns_total":                       st.MarkedDown,
		"lard_fe_probes_total":                          st.Probes,
		"lard_fe_probe_recoveries_total":                st.ProbeRecoveries,
		`lard_fe_relay_bytes_total{dir="to_backend"}`:   uint64(st.ClientToBackend),
		`lard_fe_relay_bytes_total{dir="to_client"}`:    uint64(st.BackendToClient),
		`lard_fe_pool_checkouts_total{result="hit"}`:    st.PoolHits,
		`lard_fe_pool_checkouts_total{result="miss"}`:   st.PoolMisses,
		"lard_fe_pool_evictions_total":                  st.PoolEvictions,
		`lard_fe_session_ends_total{how="with_header"}`: st.SessionEndsWithHeader,
		`lard_fe_session_ends_total{how="swept"}`:       st.SessionEndsSwept,
		"lard_fe_close_consumed_total":                  st.CloseConsumed,
	} {
		got, ok := series[name]
		if !ok {
			t.Errorf("series %s missing from /admin/metrics", name)
		} else if got != want {
			t.Errorf("%s = %d, Stats says %d", name, got, want)
		}
	}
	if trips != st.BreakerTrips {
		t.Errorf(`lard_fe_breaker_transitions_total{to="open"} sums to %d, Stats.BreakerTrips = %d`, trips, st.BreakerTrips)
	}
}

// scrape reads the front end's Prometheus exposition into a map from
// series (name and labels) to its integer value.
func scrape(t *testing.T, fe *Server) map[string]uint64 {
	t.Helper()
	var buf bytes.Buffer
	if err := fe.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	series := map[string]uint64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseUint(val, 10, 64); err == nil {
			series[name] = v
		}
	}
	return series
}
