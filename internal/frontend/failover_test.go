package frontend

import (
	"io"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"lard/internal/backend"
	"lard/internal/handoff"
)

// startBackendAt starts a fresh back-end server on addr ("127.0.0.1:0"
// for an ephemeral port) and returns it with an idempotent stop func and
// the bound address. Binding retries briefly so a just-killed address can
// be reclaimed for a restart.
func startBackendAt(t *testing.T, addr string, store *backend.DocStore, cacheBytes int64) (*backend.Server, func(), string) {
	t.Helper()
	var ln *handoff.Listener
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		ln, err = handoff.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("binding backend at %s: %v", addr, err)
	}
	be := backend.New(backend.Config{Store: store, CacheBytes: cacheBytes})
	srv := &http.Server{Handler: be.Handler()}
	go srv.Serve(ln)
	var once sync.Once
	stop := func() { once.Do(func() { srv.Close(); ln.Close() }) }
	t.Cleanup(stop)
	return be, stop, ln.Addr().String()
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestEndToEndFailover is the headline membership test: a real front end
// over four real back ends on loopback, driven through real HTTP. One
// back end is killed mid-run; after the mark-down window requests must
// keep succeeding on the survivors with zero client-visible errors. The
// back end then restarts on the same address, the health prober restores
// it without any manual intervention, and it serves traffic again.
func TestEndToEndFailover(t *testing.T) {
	tr := smallTrace(t, 60, 600)
	store := backend.NewDocStore(tr.Targets)

	const nodes = 4
	var (
		backends []*backend.Server
		stops    []func()
		addrs    []string
	)
	for i := 0; i < nodes; i++ {
		be, stop, addr := startBackendAt(t, "127.0.0.1:0", store, 1<<20)
		backends = append(backends, be)
		stops = append(stops, stop)
		addrs = append(addrs, addr)
	}

	fe, err := New(Config{
		Backends:               addrs,
		Strategy:               "lard",
		dialTimeout:            250 * time.Millisecond,
		probeInterval:          25 * time.Millisecond,
		dialFailuresBeforeDown: 2,
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
	base := "http://" + feLn.Addr().String()

	// Fresh connection per request so every request passes through
	// dispatch (a kept-alive connection is already handed off).
	client := &http.Client{
		Transport: &http.Transport{DisableKeepAlives: true},
		Timeout:   5 * time.Second,
	}
	get := func(i int) int {
		resp, err := client.Get(base + tr.At(i%tr.Len()).Target)
		if err != nil {
			return -1
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Phase 1: a healthy warm-up pass must be error-free.
	for i := 0; i < 120; i++ {
		if code := get(i); code != 200 {
			t.Fatalf("warm-up request %d: status %d", i, code)
		}
	}

	// Phase 2: kill back end 1 and drive traffic until the front end
	// marks it down. The mark-down window no longer tolerates client-
	// visible errors: every dial the dead node refuses is re-dispatched
	// to a survivor, so the client sees 200s throughout while the
	// consecutive-failure count still converges on the mark-down.
	const victim = 1
	stops[victim]()
	windowErrors, cursor := 0, 200
	waitFor(t, 5*time.Second, "victim mark-down", func() bool {
		if get(cursor) != 200 {
			windowErrors++
		}
		cursor++
		return fe.Dispatcher().NodeStates()[victim].Down
	})
	if windowErrors != 0 {
		t.Fatalf("%d failed requests during the mark-down window, want 0 (dial failures must re-dispatch)",
			windowErrors)
	}
	if st := fe.Stats(); st.Redispatches == 0 {
		t.Fatalf("mark-down window produced no re-dispatches: %+v", st)
	}

	// Phase 3: with the victim down, every request must succeed on the
	// three survivors — zero client-visible errors — and none may reach
	// the dead node.
	victimServed := backends[victim].Stats().Requests
	for i := 0; i < 150; i++ {
		if code := get(300 + i); code != 200 {
			t.Fatalf("post-mark-down request %d: status %d", i, code)
		}
	}
	if got := backends[victim].Stats().Requests; got != victimServed {
		t.Fatalf("dead victim served %d more requests", got-victimServed)
	}

	// Phase 4: restart the victim cold on the same address; the prober
	// must restore it with no manual intervention.
	restarted, _, _ := startBackendAt(t, addrs[victim], store, 1<<20)
	waitFor(t, 5*time.Second, "prober to restore the victim", func() bool {
		return !fe.Dispatcher().NodeStates()[victim].Down
	})
	if st := fe.Stats(); st.ProbeRecoveries == 0 {
		t.Fatalf("node restored without a probe recovery: %+v", st)
	}

	// Phase 5: the restarted node must receive traffic again. Its load is
	// zero, so LARD's least-loaded first-time assignment and imbalance
	// moves steer targets back; every request must also keep succeeding.
	waitFor(t, 10*time.Second, "restarted node to serve traffic", func() bool {
		for i := 0; i < 60; i++ {
			if code := get(600 + i); code != 200 {
				t.Fatalf("post-recovery request %d: status %d", i, code)
			}
		}
		return restarted.Stats().Requests > 0
	})
}

// TestProberHealsOneStrikeOutage is the regression test for the seed's
// permanent-outage bug: internal/frontend marked a node down on a single
// refused dial and never restored it, so one transient error blackholed a
// back end forever. With the prober, the node must return to rotation by
// itself once it answers dials again.
func TestProberHealsOneStrikeOutage(t *testing.T) {
	tr := smallTrace(t, 8, 40)
	store := backend.NewDocStore(tr.Targets)
	_, stop, addr := startBackendAt(t, "127.0.0.1:0", store, 1<<20)

	fe, err := New(Config{
		Backends:               []string{addr},
		Strategy:               "wrr",
		dialTimeout:            250 * time.Millisecond,
		probeInterval:          20 * time.Millisecond,
		dialFailuresBeforeDown: 1, // the seed's one-strike policy
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

	client := &http.Client{
		Transport: &http.Transport{DisableKeepAlives: true},
		Timeout:   5 * time.Second,
	}
	get := func() int {
		resp, err := client.Get("http://" + feLn.Addr().String() + tr.At(0).Target)
		if err != nil {
			return -1
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get(); code != 200 {
		t.Fatalf("healthy request: status %d", code)
	}
	// Where the back end answers on a pass transport (a same-host node on
	// Linux), it writes the response to the client's socket itself. The
	// client can read it before the front end counts it, so the count is
	// read once the request's slot is released.
	settledDirect := func() uint64 {
		waitFor(t, 2*time.Second, "the slot released", func() bool {
			return fe.Stats().ActivePerNode[0] == 0
		})
		return fe.Stats().Direct
	}
	direct := settledDirect() > 0

	// One refused dial marks the only node down: total outage (503s).
	stop()
	waitFor(t, 5*time.Second, "one-strike mark-down", func() bool {
		get()
		return fe.Dispatcher().NodeStates()[0].Down
	})
	if code := get(); code != http.StatusServiceUnavailable {
		t.Fatalf("outage request: status %d, want 503", code)
	}

	// Back end returns: without any operator action the prober must lift
	// the mark-down and traffic must flow again. Before the prober
	// existed this state was permanent.
	startBackendAt(t, addr, store, 1<<20)
	waitFor(t, 5*time.Second, "prober recovery", func() bool {
		return !fe.Dispatcher().NodeStates()[0].Down
	})
	waitFor(t, 5*time.Second, "traffic after recovery", func() bool {
		return get() == 200
	})
	if st := fe.Stats(); st.ProbeRecoveries == 0 || st.MarkedDown == 0 {
		t.Fatalf("stats missing the down/up cycle: %+v", st)
	}
	if !direct {
		return
	}
	// The transport the prober dialed and pooled is the kind a dial after
	// a pool miss makes: every request after the recovery is answered
	// directly again, none relayed over a TCP transport.
	for i := 0; i < 5; i++ {
		before := settledDirect()
		if code := get(); code != 200 {
			t.Fatalf("request %d after recovery: status %d", i, code)
		}
		if got := settledDirect(); got != before+1 {
			t.Fatalf("request %d after recovery: Direct %d → %d, want one more", i, before, got)
		}
	}
}
