// Package loadgen is the reproduction of the paper's client software: "an
// event-driven program that simulates multiple HTTP clients", where "each
// simulated HTTP client makes HTTP requests as fast as the server cluster
// can handle them" — a closed-loop load generator.
//
// Every simulated client speaks raw HTTP/1.1 over its own TCP connection
// and frames every response through internal/httprelay, the same code the
// front end's relay uses. How many requests ride on one connection is the
// workload: one (the paper's HTTP/1.0 case), all of them, or a number drawn
// per connection (the paper's Section 5 persistent-connection workload).
package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lard/internal/httprelay"
	"lard/internal/trace"
)

// Config describes a load-generation run against a front end.
type Config struct {
	// BaseURL is the front end's root, e.g. "http://127.0.0.1:8080".
	BaseURL string

	// Trace supplies the request sequence; clients share one cursor, so
	// the cluster sees the trace order (approximately, under
	// concurrency).
	Trace *trace.Trace

	// Clients is the number of concurrent simulated clients (default 8).
	Clients int

	// Requests caps the total requests issued (default: one pass over
	// the trace).
	Requests int

	// KeepAlive reuses connections (HTTP/1.1 persistent connections):
	// each client keeps one connection for the whole run, or, with
	// ReqsPerConn, for a drawn number of requests. Without it every
	// request opens a fresh connection and announces Connection: close,
	// exercising one handoff per request as in the paper's HTTP/1.0
	// measurements.
	KeepAlive bool

	// ReqsPerConn, when > 0 together with KeepAlive, bounds how many
	// requests each connection carries — drawn from ConnDist with this
	// mean — before the client closes it and reconnects, the paper's
	// Section 5 persistent-connection workload. 0 keeps each client's
	// connection for the whole run.
	ReqsPerConn int

	// ConnDist is the requests-per-connection distribution:
	// ConnDistFixed (default) or ConnDistGeometric.
	ConnDist string

	// Seed drives the ConnDist draws (default 1).
	Seed int64

	// Timeout bounds each request (default 30s).
	Timeout time.Duration

	// Rate, when > 0, paces the offered load to this many requests per
	// second across all clients (open-loop-style pacing on a shared
	// schedule: request i is due at start + i/Rate, whichever client
	// claims it). 0 keeps the paper's closed loop — every client requests
	// as fast as the cluster answers. Note the generator still has only
	// Clients requests in flight: when the cluster falls behind the
	// schedule the backlog shows up as latency (see pacer.due).
	Rate float64

	// Duration, when > 0, ends the run after this much wall time (the
	// request budget still applies if Requests is set; otherwise the run
	// loops over the trace until the clock expires). Requests cut off by
	// the deadline are not counted as errors.
	Duration time.Duration

	// SourceAddrs, when non-empty, assigns each simulated client a local
	// source IP from this list (round-robin by client index) and binds
	// its connections to it. On loopback this gives the front end's
	// per-client-IP quota distinct identities to meter: 127.0.0.2,
	// 127.0.0.3, ... are bindable without privileges on Linux.
	SourceAddrs []string
}

// ConnDist names for Config.ConnDist, shared with the simulator so the
// phttp experiment's modelled workload matches the live one.
const (
	ConnDistFixed     = trace.ConnDistFixed
	ConnDistGeometric = trace.ConnDistGeometric
)

// Stats summarizes a run.
type Stats struct {
	Requests   uint64
	Errors     uint64
	BytesRead  int64
	Elapsed    time.Duration
	Throughput float64 // successful requests per second

	// Sheds counts 429 responses from the front end's per-client quota.
	// A shed is the overload-protection layer working as designed, so it
	// is not an error; it is not goodput either, so it joins neither
	// Requests nor the latency percentiles.
	Sheds uint64

	// RetryAfterSheds counts the sheds that carried a Retry-After header
	// (all of them, if the front end behaves).
	RetryAfterSheds uint64

	LatencyAvg time.Duration
	LatencyP50 time.Duration
	LatencyP95 time.Duration
	LatencyP99 time.Duration
	LatencyMax time.Duration
}

// String renders the stats in one line.
func (s Stats) String() string {
	return fmt.Sprintf("%d reqs (%d errors, %d shed) in %v: %.1f req/s, p50=%v p95=%v p99=%v max=%v",
		s.Requests, s.Errors, s.Sheds, s.Elapsed.Round(time.Millisecond), s.Throughput,
		s.LatencyP50.Round(time.Microsecond), s.LatencyP95.Round(time.Microsecond),
		s.LatencyP99.Round(time.Microsecond), s.LatencyMax.Round(time.Microsecond))
}

// run is the state every client of one Run shares.
type run struct {
	cfg     Config
	host    string // the front end's host:port
	prefix  string // BaseURL's path, prepended to every target
	timeout time.Duration
	pace    *pacer

	cursor  atomic.Int64 // next trace index to claim
	ok      atomic.Uint64
	errs    atomic.Uint64
	sheds   atomic.Uint64
	shedsRA atomic.Uint64
	bytes   atomic.Int64

	latMu sync.Mutex
	lats  []time.Duration
}

// Run drives the configured load until the request budget is exhausted or
// the context is cancelled, and returns aggregate statistics.
func Run(ctx context.Context, cfg Config) (Stats, error) {
	if cfg.BaseURL == "" {
		return Stats{}, fmt.Errorf("loadgen: BaseURL required")
	}
	if cfg.Trace == nil || cfg.Trace.Len() == 0 {
		return Stats{}, fmt.Errorf("loadgen: empty trace")
	}
	u, err := url.Parse(cfg.BaseURL)
	if err != nil {
		return Stats{}, fmt.Errorf("loadgen: bad BaseURL: %w", err)
	}
	if u.Scheme != "http" || u.Host == "" {
		return Stats{}, fmt.Errorf("loadgen: need an http://host:port BaseURL, got %q", cfg.BaseURL)
	}
	if _, err := connLenDraw(cfg.ConnDist, cfg.ReqsPerConn, nil); err != nil {
		return Stats{}, err
	}
	sources, err := sourceIPs(cfg.SourceAddrs)
	if err != nil {
		return Stats{}, err
	}
	clients := cfg.Clients
	if clients <= 0 {
		clients = 8
	}
	total := int64(cfg.Requests)
	if total <= 0 {
		total = int64(cfg.Trace.Len())
	}
	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
		if cfg.Requests <= 0 {
			// Timed run: loop over the trace until the clock expires.
			total = 1 << 52
		}
	}
	r := &run{
		cfg:     cfg,
		host:    u.Host,
		prefix:  strings.TrimSuffix(u.Path, "/"),
		timeout: cfg.Timeout,
		pace:    newPacer(cfg.Rate),
	}
	if r.timeout <= 0 {
		r.timeout = 30 * time.Second
	}

	started := time.Now()
	var wg sync.WaitGroup
	for id := 0; id < clients; id++ {
		c := &client{r: r}
		if len(sources) > 0 {
			c.local = &net.TCPAddr{IP: sources[id%len(sources)]}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(ctx, id, total)
		}()
	}
	wg.Wait()

	st := Stats{
		Requests:        r.ok.Load(),
		Errors:          r.errs.Load(),
		Sheds:           r.sheds.Load(),
		RetryAfterSheds: r.shedsRA.Load(),
		BytesRead:       r.bytes.Load(),
		Elapsed:         time.Since(started),
	}
	if st.Elapsed > 0 {
		st.Throughput = float64(st.Requests) / st.Elapsed.Seconds()
	}
	summarizeLatencies(&st, r.lats)
	return st, nil
}

// client is one simulated client: its source address, its connection
// (nil between connections) and the latencies it has measured.
type client struct {
	r     *run
	local *net.TCPAddr // nil: the OS picks the source address
	conn  net.Conn
	br    *bufio.Reader
	stop  func() bool // unhooks the conn from the run's cancellation
	lats  []time.Duration
}

// loop claims requests from the shared cursor until the budget or the
// context runs out. A connection that ends after a drawn number of
// requests claims them together; otherwise requests are claimed one at a
// time, so a failed dial costs one request, not the rest of the run.
func (c *client) loop(ctx context.Context, id int, total int64) {
	cfg := c.r.cfg
	draw := func() int { return 1 }
	bounded := cfg.KeepAlive && cfg.ReqsPerConn > 0
	if bounded {
		seed := cfg.Seed
		if seed == 0 {
			seed = 1
		}
		draw, _ = connLenDraw(cfg.ConnDist, cfg.ReqsPerConn, rand.New(rand.NewSource(seed+int64(id))))
	}
	// The connection closes after each claim unless it is kept for the run.
	closeAfter := !cfg.KeepAlive || bounded
	for ctx.Err() == nil {
		k := int64(draw())
		first := c.r.cursor.Add(k) - k
		if first >= total {
			break
		}
		k = min(k, total-first)
		c.claim(ctx, first, int(k), closeAfter)
	}
	if c.conn != nil {
		c.drop()
	}
	c.r.latMu.Lock()
	c.r.lats = append(c.r.lats, c.lats...)
	c.r.latMu.Unlock()
}

// claim issues requests [first, first+k) of the trace on the client's
// connection, dialing when it has none and reconnecting if the server
// closes early. With closeAfter the last of them announces the close, as
// a polite client does, and the connection ends with it.
func (c *client) claim(ctx context.Context, first int64, k int, closeAfter bool) {
	for j := 0; j < k; j++ {
		c.r.pace.wait(ctx, first+int64(j))
		if ctx.Err() != nil {
			return
		}
		if c.conn == nil {
			if err := c.dial(ctx); err != nil {
				if !cutOff(ctx) {
					c.r.errs.Add(uint64(k - j)) // the rest of this claim is lost
				}
				return
			}
		}
		c.request(ctx, first+int64(j), closeAfter && j == k-1)
	}
	if closeAfter && c.conn != nil {
		c.drop()
	}
}

func (c *client) dial(ctx context.Context) error {
	d := net.Dialer{Timeout: c.r.timeout, LocalAddr: c.local}
	conn, err := d.DialContext(ctx, "tcp", c.r.host)
	if err != nil {
		return err
	}
	c.conn = conn
	c.br = httprelay.GetReader(conn)
	// Cancelling the run unblocks a request in flight on this conn.
	c.stop = context.AfterFunc(ctx, func() { conn.SetDeadline(time.Now()) })
	return nil
}

// drop ends the current connection; its reader goes back to the pool
// (this goroutine is its only user).
func (c *client) drop() {
	c.stop()
	c.conn.Close()
	c.conn = nil
	httprelay.PutReader(c.br)
	c.br = nil
}

// request issues trace request i on the open connection and reads the
// whole response. A failure ends the connection; the next request dials.
func (c *client) request(ctx context.Context, i int64, last bool) {
	r := c.r
	target := r.cfg.Trace.At(int(i % int64(r.cfg.Trace.Len()))).Target
	t0 := time.Now()
	if sched, paced := r.pace.due(i); paced && sched.Before(t0) {
		t0 = sched
	}
	c.conn.SetDeadline(time.Now().Add(r.timeout))
	if ctx.Err() != nil {
		// Cancelled before the deadline above was set, which would
		// otherwise have replaced the cancellation's.
		return
	}
	connHdr := ""
	if last {
		connHdr = "Connection: close\r\n"
	}
	if _, err := fmt.Fprintf(c.conn, "GET %s HTTP/1.1\r\nHost: %s\r\n%s\r\n", r.prefix+target, r.host, connHdr); err != nil {
		c.fail(ctx)
		return
	}
	h, err := httprelay.ReadResponseHead(c.br, 64<<10)
	if err != nil {
		c.fail(ctx)
		return
	}
	// h.Raw is a view of br's window: read it before the body is.
	retryAfter := h.Status == 429 && bytes.Contains(bytes.ToLower(h.Raw), []byte("retry-after:"))
	n, reusable, err := httprelay.CopyResponseBody(io.Discard, c.br, h, "GET")
	r.bytes.Add(n)
	switch {
	case err == nil && h.Status == 429:
		// Quota shed: counted separately, neither goodput nor error.
		r.sheds.Add(1)
		if retryAfter {
			r.shedsRA.Add(1)
		}
	case err != nil || h.Status != 200:
		c.fail(ctx)
		return
	default:
		r.ok.Add(1)
		c.lats = append(c.lats, time.Since(t0))
	}
	if !reusable {
		c.drop()
	}
}

// fail counts a failed request, unless the run's end cut it off, and
// ends the connection.
func (c *client) fail(ctx context.Context) {
	if !cutOff(ctx) {
		c.r.errs.Add(1)
	}
	c.drop()
}

// cutOff reports whether the run has ended: its context is done, or its
// deadline has passed. A dial bounded by that deadline fails as soon as
// the clock passes it, which can be before the context says so.
func cutOff(ctx context.Context) bool {
	if ctx.Err() != nil {
		return true
	}
	d, ok := ctx.Deadline()
	return ok && !time.Now().Before(d)
}

// connLenDraw is trace.ConnLenDraw with loadgen-flavoured errors.
func connLenDraw(dist string, mean int, rng *rand.Rand) (func() int, error) {
	draw, err := trace.ConnLenDraw(dist, mean, rng)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	return draw, nil
}

// sourceIPs parses Config.SourceAddrs; every entry must be a bare IP.
func sourceIPs(addrs []string) ([]net.IP, error) {
	if len(addrs) == 0 {
		return nil, nil
	}
	ips := make([]net.IP, len(addrs))
	for i, a := range addrs {
		ip := net.ParseIP(a)
		if ip == nil {
			return nil, fmt.Errorf("loadgen: SourceAddrs[%d] = %q is not an IP address", i, a)
		}
		ips[i] = ip
	}
	return ips, nil
}

// summarizeLatencies fills the latency fields from raw samples.
func summarizeLatencies(st *Stats, lats []time.Duration) {
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, d := range lats {
		sum += d
	}
	st.LatencyAvg = sum / time.Duration(len(lats))
	st.LatencyP50 = lats[len(lats)/2]
	st.LatencyP95 = lats[len(lats)*95/100]
	st.LatencyP99 = lats[len(lats)*99/100]
	st.LatencyMax = lats[len(lats)-1]
}

// pacer spreads the run's requests over time: request i is due at
// start + i*interval. A zero pacer (interval 0) never waits — the
// closed loop.
type pacer struct {
	start    time.Time
	interval time.Duration
}

func newPacer(rate float64) *pacer {
	p := &pacer{start: time.Now()}
	if rate > 0 {
		p.interval = time.Duration(float64(time.Second) / rate)
	}
	return p
}

// due returns request i's scheduled send time, or false for the
// closed loop (no schedule). Paced latency is measured from this
// instant, not from the actual send: when the server falls behind the
// schedule, the backlog a real client would experience as queueing
// delay must show up in the percentiles, or saturation is invisible
// (the coordinated-omission trap; DESIGN.md "Paced load").
func (p *pacer) due(i int64) (time.Time, bool) {
	if p.interval <= 0 {
		return time.Time{}, false
	}
	return p.start.Add(time.Duration(i) * p.interval), true
}

// wait blocks until request i is due (or the context ends).
func (p *pacer) wait(ctx context.Context, i int64) {
	if p.interval <= 0 {
		return
	}
	d := time.Until(p.start.Add(time.Duration(i) * p.interval))
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
