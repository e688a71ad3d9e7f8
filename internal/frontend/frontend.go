// Package frontend implements the live prototype's front end (Section 6):
// it accepts client connections and runs each through a lard.Session over
// the public lard.Dispatcher (the same policy code the simulator runs).
// The session owns the paper's Section 5 pin/re-handoff decision through
// the configured connection policy: every request's head is parsed, the
// session decides whether the connection stays on its back end or is
// handed off again, and the message is relayed with full HTTP framing
// (internal/httprelay).
//
// The layering mirrors the paper's Figure 15: the *dispatcher* (policy +
// load accounting + admission + session affinity, pkg/lard) decides per
// request; the *handoff* module transfers the connection; the relay loop
// (rehandoff.go) is the data path.
package frontend

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lard/internal/breaker"
	"lard/internal/core"
	"lard/internal/handoff"
	"lard/internal/httprelay"
	"lard/internal/metrics"
	"lard/pkg/lard"
)

// Config describes a front end.
type Config struct {
	// Backends lists the back ends' handoff addresses ("host:port").
	Backends []string

	// Strategy is the name of the dispatch policy, one of
	// lard.Strategies() ("wrr", "lb", "lb/gc", "lard", "lard/r",
	// "wlard") or an alias lard.New accepts. Default "lard/r".
	Strategy string

	// Params are the LARD tuning parameters; zero fields fall back to
	// the paper's defaults (see lard.WithParams), so e.g. setting only
	// MappingCapacity keeps T_low/T_high/K. They also derive the front
	// end's admission bound S = (n−1)·T_high + T_low + 1 per dispatcher
	// shard.
	Params core.Params

	// Profiles optionally describes a heterogeneous fleet: Profiles[i]
	// is back end i's capacity profile (fewer entries than Backends
	// leaves the rest at the fleet default; zero fields fill as
	// lard.WithProfiles documents). The admission bound generalizes to
	// S = Σ T_high,i − max T_high,i + min T_low,i + 1, and profile-aware
	// strategies weight their placement accordingly.
	Profiles []core.Profile

	// Shards partitions the target space over this many independent
	// strategy instances so dispatch scales with cores; 0 or 1 keeps the
	// paper's single dispatch point.
	Shards int

	// CacheBytes is the per-node cache size assumed by cache-modelling
	// strategies such as "lb/gc" (0 = lard.DefaultCacheBytes).
	CacheBytes int64

	// ConnPolicy selects how each client connection's session trades
	// back-end affinity against locality, by lard.ConnPolicy name:
	// "pin" serves the whole connection where its first request landed,
	// "perreq" re-dispatches every request and always follows the
	// strategy, "costaware" re-dispatches every request but pays a
	// re-handoff only when the modelled locality gain beats the switch
	// cost. Empty selects "pin". Regardless of policy, a session whose
	// back end drains, fails, or is removed moves on its next request —
	// unless its connection was passed to that back end by descriptor
	// (pass.go: under "pin", same host): a passed connection is its back
	// end's until it closes, so a drain stops new passes and moves none,
	// and a back end that goes takes its passed clients with it.
	ConnPolicy string

	// Breaker, when non-nil, layers a per-back-end circuit breaker under
	// the mark-down/prober machinery (see overload.go): every handoff,
	// pooled or dialed, takes one admission and reports one outcome,
	// probe dials report theirs, an Open breaker gates its node out of
	// dispatch eligibility, and recovery ramps handoffs back gradually.
	// Zero fields in the config take internal/breaker defaults. Nil
	// disables the breaker layer.
	Breaker *breaker.Config

	// QuotaRate enables per-client token-bucket rate limiting when
	// positive: each client IP may issue this many requests per second
	// sustained (max(QuotaRate, 1) at once), enforced at connection
	// accept and per request; excess is shed with 429 + Retry-After. 0
	// disables. The bucket table keeps the 4096 most recent clients.
	QuotaRate float64

	// ErrorLog receives connection-level errors (default: discarded).
	ErrorLog *log.Logger

	// Test hooks: each zero value takes the constant a deployment runs
	// with, and only tests in this package set them to shape a scenario.

	// dialTimeout bounds back-end dials (0 = defaultDialTimeout).
	dialTimeout time.Duration

	// headerTimeout bounds how long a client may take to deliver a
	// request head (0 = defaultHeaderTimeout). A connection passed to its
	// back end by descriptor (pass.go) takes it along: the back end closes
	// it when no next request begins within headerTimeout.
	headerTimeout time.Duration

	// poolIdle is how long an idle pooled connection may wait for its
	// next session before being discarded (0 = DefaultPoolIdle; negative
	// = no expiry). The session a connection went idle with is ended
	// after half of it (of DefaultPoolIdle when negative), see
	// backendPool.sweep.
	poolIdle time.Duration

	// probeInterval is how often the health prober re-dials back ends
	// that are marked down (0 = DefaultProbeInterval; negative = no
	// prober, so a node marked down stays down).
	probeInterval time.Duration

	// dialFailuresBeforeDown is how many consecutive dials to a back end
	// must fail before it is marked down (0 =
	// DefaultDialFailuresBeforeDown).
	dialFailuresBeforeDown int

	// quotaBurst is the per-client bucket capacity (0 = one second of
	// QuotaRate, minimum 1).
	quotaBurst float64
}

// Values a front end runs with that Config does not export; tests shorten
// the two timeouts through their hooks.
const (
	// defaultDialTimeout bounds a back-end dial.
	defaultDialTimeout = 5 * time.Second

	// defaultHeaderTimeout is how long a client has to deliver a request
	// head.
	defaultHeaderTimeout = 30 * time.Second

	// maxHeadBytes bounds a request or response head the relay parses.
	maxHeadBytes = 64 << 10
)

// Stats is a snapshot of front-end activity.
type Stats struct {
	Accepted        uint64
	Dispatches      uint64 // session dispatch decisions taken (one per relayed request)
	Handoffs        uint64 // handoff headers delivered to a back end
	Passed          uint64 // of Handoffs, client connections passed by descriptor: the back end answers them directly
	Direct          uint64 // responses a back end wrote to the client's own socket (split sessions and passed connections)
	Rehandoffs      uint64 // completed back-end switches, by handoff or by resume (counted only after the replacement succeeds)
	SessionResumes  uint64 // switches back to a node whose parked session was resumed: no handoff header sent
	RehandoffFails  uint64 // moves the session decided on that no back end could be established for
	Redispatches    uint64 // dial failures recovered by re-dispatching the session to another node
	StaleRetries    uint64 // reused back-end transports (pooled checkouts or kept-alive session conns) found dead at first write/read, transparently retried fresh
	Errors          uint64
	Rejected        uint64 // requests refused because no back end was available
	MarkedDown      uint64 // nodes taken out of rotation after consecutive dial failures
	Probes          uint64 // health-probe dials issued to down nodes
	ProbeRecoveries uint64 // nodes restored by a successful probe
	ClientToBackend int64
	BackendToClient int64
	ActivePerNode   []int

	// Connection-pool counters: checkouts for a handoff served from the
	// per-node idle pool versus fresh dials (a resume is counted as
	// SessionResumes, not here), discards (capacity, TTL, death, node
	// eviction), and the idle population right now.
	PoolHits      uint64
	PoolMisses    uint64
	PoolEvictions uint64
	PoolIdle      int

	// End-of-session records by how they were paid: in the same write as
	// the next handoff's header, or by the pool's sweep for a transport
	// that stayed idle. CloseConsumed counts request heads whose
	// "Connection: close" ended at the front end.
	SessionEndsWithHeader uint64
	SessionEndsSwept      uint64
	CloseConsumed         uint64

	// SessionsByPolicy counts sessions opened per connection-policy name
	// (this front end runs one policy, so one key); ActiveSessions is
	// how many are currently open.
	SessionsByPolicy map[string]uint64
	ActiveSessions   int64

	// Overload-protection counters (overload.go). Served is goodput:
	// complete responses relayed. QuotaSheds counts 429s; BreakerSheds
	// counts 503s where breakers denied every candidate node;
	// BreakerDenials counts individual breaker refusals (most are
	// detoured to another node); BreakerTrips counts transitions to
	// Open. QuotaClients is the bucket-table population.
	Served         uint64
	QuotaSheds     uint64
	QuotaClients   int
	BreakerTrips   uint64
	BreakerDenials uint64
	BreakerSheds   uint64
	BreakerStates  []string
}

// Server is a running front end. Create with New; start with Serve or
// ListenAndServe.
type Server struct {
	cfg   Config
	start time.Time

	// d is the concurrency-safe dispatch layer: policy, per-node load
	// accounting, and admission control all live behind it. policy is
	// the connection policy every client session consults (shared state,
	// e.g. CostAware's recency table, lives inside it).
	d      lard.Dispatcher
	policy lard.ConnPolicy

	// passes is whether a connection may be passed to its back end by
	// descriptor at all: its policy pins and no per-client quota needs to
	// see its requests (pass.go).
	passes bool

	// nodes is the table of back-end records (health.go), indexed by
	// dispatcher node id; removed nodes keep theirs, and a node the
	// dispatcher has without AddBackend having added it has none (nil).
	// New fills it; AddBackend, the only code that grows it, stores a
	// longer copy under nodesMu, so readers take one atomic load.
	nodesMu sync.Mutex
	nodes   atomic.Pointer[[]*backendNode]

	// pool holds idle session-framed transports per node.
	pool *backendPool

	// reg is the metrics registry and m the event collectors created in
	// it (metrics.go): every event the front end counts is counted there
	// once, and Stats is a read-only view over them.
	reg *metrics.Registry
	m   feMetrics

	// ov is the overload-protection state: breakers and quota
	// (overload.go).
	ov overload

	lnMu     sync.Mutex
	ln       net.Listener
	closed   atomic.Bool
	stop     chan struct{}
	stopOnce sync.Once
	probeGo  sync.Once
}

// New builds a front end for the given configuration.
func New(cfg Config) (*Server, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("frontend: no back ends configured")
	}
	if cfg.dialTimeout <= 0 {
		cfg.dialTimeout = defaultDialTimeout
	}
	if cfg.headerTimeout <= 0 {
		cfg.headerTimeout = defaultHeaderTimeout
	}
	name := cfg.Strategy
	if name == "" {
		name = "lard/r"
	}
	opts := []lard.Option{
		lard.WithNodes(len(cfg.Backends)),
		lard.WithParams(cfg.Params),
		lard.WithShards(max(cfg.Shards, 1)),
	}
	if cfg.CacheBytes != 0 {
		opts = append(opts, lard.WithCacheBytes(cfg.CacheBytes))
	}
	if len(cfg.Profiles) > 0 {
		opts = append(opts, lard.WithProfiles(cfg.Profiles...))
	}
	d, err := lard.New(name, opts...)
	if err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	if cfg.probeInterval == 0 {
		cfg.probeInterval = DefaultProbeInterval
	}
	if cfg.dialFailuresBeforeDown <= 0 {
		cfg.dialFailuresBeforeDown = DefaultDialFailuresBeforeDown
	}
	// One shared resolution rule with the simulator: empty defaults to
	// pin.
	policyName, err := lard.ResolveConnPolicyName(cfg.ConnPolicy)
	if err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	policy, err := lard.NewConnPolicy(policyName)
	if err != nil {
		return nil, fmt.Errorf("frontend: %w", err)
	}
	if cfg.poolIdle == 0 {
		cfg.poolIdle = DefaultPoolIdle
	}
	reg := metrics.NewRegistry()
	srv := &Server{
		cfg:    cfg,
		start:  time.Now(),
		d:      d,
		policy: policy,
		pool:   newBackendPool(DefaultPoolSize, cfg.poolIdle, reg),
		reg:    reg,
		m:      newFEMetrics(reg, policyName),
		stop:   make(chan struct{}),
	}
	nodes := make([]*backendNode, len(cfg.Backends))
	for i, addr := range cfg.Backends {
		nodes[i] = newBackendNode(reg, i, addr)
	}
	srv.nodes.Store(&nodes)
	srv.initOverload()
	srv.passes = pins(policy) && !srv.ov.quota.Enabled()
	return srv, nil
}

// Dispatcher returns the dispatch layer the front end routes through, for
// diagnostics.
func (s *Server) Dispatcher() lard.Dispatcher { return s.d }

// ConnPolicy returns the connection policy client sessions run under.
func (s *Server) ConnPolicy() lard.ConnPolicy { return s.policy }

// Stats returns a snapshot of the front end's activity. Every event count
// is read from its collector in the metrics registry — the same number
// GET /admin/metrics serves — and the state fields (per-node load, idle
// pool, quota table, breaker states) from the component that owns them.
func (s *Server) Stats() Stats {
	m := &s.m
	st := Stats{
		Accepted:              m.accepted.Value(),
		Dispatches:            m.dispatches.Value(),
		SessionsByPolicy:      map[string]uint64{s.policy.Name(): m.sessions.Value()},
		ActiveSessions:        m.activeSessions.Value(),
		Handoffs:              m.handoffs.Value(),
		Passed:                m.passed.Value(),
		Direct:                m.direct.Value(),
		Rehandoffs:            m.rehandoffs.Value(),
		SessionResumes:        s.pool.resumes.Value(),
		RehandoffFails:        m.rehandoffFails.Value(),
		Redispatches:          m.redispatches.Value(),
		StaleRetries:          m.staleRetries.Value(),
		Errors:                m.errors.Value(),
		Rejected:              m.shedOverload.Value(),
		MarkedDown:            m.markdowns.Value(),
		Probes:                m.probes.Value(),
		ProbeRecoveries:       m.probeRecoveries.Value(),
		ClientToBackend:       int64(m.bytesToBackend.Value()),
		BackendToClient:       int64(m.bytesToClient.Value()),
		ActivePerNode:         s.d.Loads(),
		PoolHits:              s.pool.hits.Value(),
		PoolMisses:            s.pool.misses.Value(),
		PoolEvictions:         s.pool.evictions.Value(),
		SessionEndsWithHeader: m.endsWithHeader.Value(),
		SessionEndsSwept:      s.pool.swept.Value(),
		CloseConsumed:         m.closeConsumed.Value(),
		Served:                m.served.Value(),
		QuotaSheds:            m.shedQuota.Value(),
		BreakerDenials:        m.breakerDenials.Value(),
		BreakerSheds:          m.shedBreaker.Value(),
	}
	st.PoolIdle, _ = s.pool.idleCount(-1)
	if s.ov.quota.Enabled() {
		st.QuotaClients = s.ov.quota.Len()
	}
	if s.ov.breakers != nil {
		for _, b := range s.ov.breakers.Snapshot(s.now()) {
			st.BreakerStates = append(st.BreakerStates, b.State.String())
			st.BreakerTrips += s.breakerTransitions(b.Node, breaker.Open).Value()
		}
	}
	return st
}

// SetProfile retunes a back end's capacity profile at runtime: the
// dispatcher recomputes the admission bound from the new fleet shape and
// profile-aware strategies pick up the node's thresholds and weight on
// their next decision. Zero profile fields fill like lard.WithProfiles.
func (s *Server) SetProfile(node int, p core.Profile) error {
	return s.d.SetProfile(node, p)
}

// SetBackendDown marks a back end failed or restored, when the strategy
// supports it (Section 2.6 recovery). Marking a node down also evicts
// its pooled connections.
func (s *Server) SetBackendDown(node int, down bool) {
	s.d.SetNodeDown(node, down)
	if down {
		s.pool.evictNode(node)
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts client connections on ln until Close, and returns nil
// then. On Linux a *net.TCPListener's connections are accepted with raw
// calls on a copy of its socket (handoff.ListenRaw), which Close closes
// with ln: close the Server, not ln, to stop it. A temporary accept error,
// such as running out of descriptors, is retried after a pause that
// doubles from 5 ms to 1 s, as net/http's Serve does; any other ends
// Serve. The health prober starts with the first Serve call (unless
// probing is disabled).
func (s *Server) Serve(ln net.Listener) error {
	ln = handoff.ListenRaw(ln)
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	if s.closed.Load() {
		// Close came first, and may have found no listener to close.
		ln.Close()
		return nil
	}
	s.probeGo.Do(func() {
		if s.cfg.probeInterval > 0 {
			go s.probeLoop(s.cfg.probeInterval)
		}
		go s.pool.janitor(s.stop)
	})
	var pause time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			if te, ok := err.(interface{ Temporary() bool }); !ok || !te.Temporary() {
				return err
			}
			pause = min(max(2*pause, 5*time.Millisecond), time.Second)
			s.logf("frontend: %v; retrying in %v", err, pause)
			select {
			case <-time.After(pause):
			case <-s.stop:
			}
			continue
		}
		pause = 0
		s.m.accepted.Inc()
		go s.handleConn(conn)
	}
}

// Addr returns the serving address once Serve has been called.
func (s *Server) Addr() net.Addr {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting connections, stops the health prober, and
// discards the pooled back-end connections.
func (s *Server) Close() error {
	s.closed.Store(true)
	s.stopOnce.Do(func() { close(s.stop) })
	s.pool.closeAll()
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln != nil {
		return s.ln.Close()
	}
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.ErrorLog != nil {
		s.cfg.ErrorLog.Printf(format, args...)
	}
}

// headReadFailed classifies a ReadRequestHead failure: a clean close or
// an idle connection hitting the header timeout without sending a byte
// is the connection's normal end of life (silent); anything else counts
// as an error, and malformed — smuggling-shaped or otherwise
// unframeable — heads are answered with 400, never forwarded. A head cut
// short by a close, a reset or the timeout (httprelay.TruncatedError) is
// answered with nothing, as net/http answers a common network read error.
func (s *Server) headReadFailed(client net.Conn, err error, doing string) {
	var truncated *httprelay.TruncatedError
	if !errors.As(err, &truncated) && (err == io.EOF || errors.Is(err, os.ErrDeadlineExceeded)) {
		return
	}
	s.m.errors.Inc()
	s.logf("frontend: %s from %v: %v", doing, client.RemoteAddr(), err)
	var malformed *httprelay.MalformedError
	if errors.As(err, &malformed) {
		writeBadRequest(client)
	}
}

// overloadRetryAfter is the Retry-After hint on overload 503s. The
// admission bound recovers as fast as in-flight requests complete —
// milliseconds on a healthy cluster — so one second is the smallest
// honest whole-second hint.
const overloadRetryAfter = 1

func writeServiceUnavailable(c net.Conn) {
	const body = "no back-end node available\n"
	fmt.Fprintf(c, "HTTP/1.1 503 Service Unavailable\r\nContent-Length: %d\r\nRetry-After: %d\r\nConnection: close\r\n\r\n%s", len(body), overloadRetryAfter, body)
}

func writeBadGateway(c net.Conn) {
	const body = "back-end handoff failed\n"
	fmt.Fprintf(c, "HTTP/1.1 502 Bad Gateway\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s", len(body), body)
}

func writeBadRequest(c net.Conn) {
	const body = "malformed request\n"
	fmt.Fprintf(c, "HTTP/1.1 400 Bad Request\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s", len(body), body)
}
