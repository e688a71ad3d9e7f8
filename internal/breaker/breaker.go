// Package breaker implements per-back-end circuit breakers for the
// front end's overload-protection layer.
//
// A breaker watches the stream of connection outcomes for one back-end
// node and decides whether new traffic should be offered to it at all.
// It is deliberately layered *under* the front end's mark-down/prober
// machinery. The front end feeds the breaker the outcome of every
// handoff it admits (a transport with the request on it, from the pool
// or a dial, or none) and of every probe dial, and nothing else.
// Mark-down counts dials alone and turns a run of dial failures into an
// oracle-like "the node is gone" verdict; the breaker also trips on a windowed failure *rate* and, more
// importantly, controls how traffic is re-admitted after recovery,
// ramping the node back up instead of slamming it with its full LARD
// target set the instant one probe succeeds.
//
// The state machine:
//
//	Closed ──(consecutive failures ≥ K, or windowed failure rate ≥ R)──▶ Open
//	Open ──(backoff elapses; backoff doubles per trip, capped)──▶ HalfOpen
//	HalfOpen ──(probe budget succeeds)──▶ Recovering ──(ramp holds)──▶ Closed
//	HalfOpen/Recovering ──(any failure)──▶ Open (backoff doubled)
//
// In HalfOpen exactly Config.HalfOpenProbes requests are admitted; their
// outcomes decide the transition. In Recovering an increasing fraction
// of requests is admitted (Config.Ramp, e.g. 25% → 50% → 100%), each
// step held for Config.RampStep without a failure before advancing.
//
// All methods take the current time as a time.Duration on the caller's
// clock — virtual in simulation, time.Since(start) in the live front
// end — so the package is simulable and lardlint-wallclock-checkable.
// Transitions are computed lazily at query time; nothing ticks.
//
// Concurrency: a Set is a single mutex around dense per-node state. It
// is a leaf lock — no callback out of the package is made while it is
// held except Config.OnTransition, which therefore must not call back
// into the Set.
package breaker

import (
	"sync"
	"time"
)

// State is a breaker's position in the trip/recover cycle.
type State uint8

const (
	// Closed admits all traffic (the healthy state).
	Closed State = iota
	// Open admits nothing until the trip backoff elapses.
	Open
	// HalfOpen admits exactly the probe budget and judges the node by
	// those probes' outcomes.
	HalfOpen
	// Recovering admits a ramping fraction of traffic on the way from a
	// successful probe round back to Closed.
	Recovering
)

// String returns the lower-case state name used in metrics labels.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "halfopen"
	case Recovering:
		return "recovering"
	}
	return "invalid"
}

// The fixed tuning of every breaker: a breaker also trips when at least
// failureRate of the outcomes in the current window failed, once the
// window holds windowMinSamples of them (a single failed request out of
// two must not trip a node); the window's counters reset every window;
// and the doubling trip backoff stops at openMax (or at Config.OpenBase,
// if that is longer).
const (
	failureRate      = 0.5
	windowMinSamples = 20
	window           = 10 * time.Second
	openMax          = 30 * time.Second
)

// Config tunes every breaker in a Set. The zero value selects the
// defaults documented per field.
type Config struct {
	// FailureThreshold trips the breaker after this many consecutive
	// failures regardless of rate (default 5; the front end's dial
	// mark-down usually fires first and stops the count — the breaker
	// then trips on the prober's continued failures).
	FailureThreshold int

	// OpenBase is the first trip's backoff (default 1s). Each further
	// trip without reaching Closed doubles it, capped at 30s.
	OpenBase time.Duration

	// HalfOpenProbes is the probe budget: exactly this many requests are
	// admitted in HalfOpen (default 3). All must succeed to start
	// recovery; any failure re-opens.
	HalfOpenProbes int

	// Ramp is the graduated-recovery schedule as admitted percentages
	// (default 25, 50, 100). Each step is held for RampStep without a
	// failure before advancing; after the last step's hold the breaker
	// closes and the trip count resets.
	Ramp []int

	// RampStep is the hold time per recovery step (default 2s).
	RampStep time.Duration

	// OnTransition, when non-nil, is called (with the Set's mutex held —
	// it must not call back into the Set) on every state change.
	OnTransition func(node int, from, to State, now time.Duration)
}

func (c *Config) fill() {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenBase <= 0 {
		c.OpenBase = time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 3
	}
	if len(c.Ramp) == 0 {
		c.Ramp = []int{25, 50, 100}
	}
	if c.RampStep <= 0 {
		c.RampStep = 2 * time.Second
	}
}

// node is one back end's breaker state. All fields are guarded by the
// owning Set's mutex.
type node struct {
	state State

	// Closed-state accounting.
	consecFails int
	winStart    time.Duration
	winFails    int
	winTotal    int

	// Trip bookkeeping. trips counts consecutive Open entries without an
	// intervening full close; it drives the exponential backoff.
	trips    int
	openedAt time.Duration

	// HalfOpen accounting.
	hoStart     time.Duration
	hoIssued    int // Allow() grants this half-open round
	hoSuccesses int

	// Recovering accounting.
	rampLevel int // index into cfg.Ramp
	rampStart time.Duration
	admitSeq  int // deterministic fraction-admission counter
}

// Set holds one breaker per back-end node, indexed densely the way the
// dispatcher and front end index nodes.
type Set struct {
	mu    sync.Mutex
	cfg   Config
	nodes []*node
}

// New returns a Set with cfg's zero fields filled with defaults.
func New(cfg Config) *Set {
	cfg.fill()
	return &Set{cfg: cfg}
}

// Config returns the Set's effective (default-filled) configuration.
func (s *Set) Config() Config { return s.cfg }

func (s *Set) get(id int) *node {
	if id < 0 {
		return nil
	}
	for len(s.nodes) <= id {
		s.nodes = append(s.nodes, &node{})
	}
	return s.nodes[id]
}

func (s *Set) backoff(trips int) time.Duration {
	limit := max(openMax, s.cfg.OpenBase)
	d := s.cfg.OpenBase
	for i := 1; i < trips && d < limit; i++ {
		d *= 2
	}
	return min(d, limit)
}

func (s *Set) transition(id int, n *node, to State, now time.Duration) {
	from := n.state
	if from == to {
		return
	}
	n.state = to
	if s.cfg.OnTransition != nil {
		s.cfg.OnTransition(id, from, to, now)
	}
}

// advance applies all time-based transitions due at now. It never
// consumes probe budget or admission counters.
func (s *Set) advance(id int, n *node, now time.Duration) {
	switch n.state {
	case Closed:
		if now-n.winStart >= window {
			n.winStart, n.winFails, n.winTotal = now, 0, 0
		}
	case Open:
		if now-n.openedAt >= s.backoff(n.trips) {
			n.hoStart, n.hoIssued, n.hoSuccesses = now, 0, 0
			s.transition(id, n, HalfOpen, now)
		}
	case HalfOpen:
		// A half-open round whose probes never report back (hung client,
		// lost outcome) must not wedge the breaker: after one backoff
		// span it re-opens — without raising the trip count, since the
		// node was never proven bad — and will probe again.
		if now-n.hoStart >= s.backoff(n.trips) {
			n.openedAt = now
			s.transition(id, n, Open, now)
		}
	case Recovering:
		for n.state == Recovering && now-n.rampStart >= s.cfg.RampStep {
			if n.rampLevel+1 < len(s.cfg.Ramp) {
				n.rampLevel++
				n.rampStart += s.cfg.RampStep
				continue
			}
			s.close(id, n, now)
		}
	}
}

// close resets a breaker to the fully healthy state.
func (s *Set) close(id int, n *node, now time.Duration) {
	n.consecFails, n.winFails, n.winTotal = 0, 0, 0
	n.winStart = now
	n.trips = 0
	s.transition(id, n, Closed, now)
}

// open trips the breaker, increasing the backoff.
func (s *Set) open(id int, n *node, now time.Duration) {
	n.trips++
	n.openedAt = now
	s.transition(id, n, Open, now)
}

// Healthy reports whether node id should be considered eligible for new
// traffic at now. It applies due time-based transitions but consumes no
// probe budget, so it is safe to call any number of times from
// eligibility checks (the dispatcher's node gate, pool check-in).
func (s *Set) Healthy(id int, now time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.get(id)
	if n == nil {
		return true
	}
	s.advance(id, n, now)
	switch n.state {
	case Closed, Recovering:
		return true
	case HalfOpen:
		return n.hoIssued < s.cfg.HalfOpenProbes
	default: // Open
		return false
	}
}

// Allow asks to actually send one request to node id at now, consuming
// half-open probe budget or a recovery-admission slot. The front end
// calls it once per request after the dispatcher picks the node; a
// false return means "pick someone else right now" (the node stays
// formally eligible so its LARD targets are not remapped).
func (s *Set) Allow(id int, now time.Duration) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.get(id)
	if n == nil {
		return true
	}
	s.advance(id, n, now)
	switch n.state {
	case Closed:
		return true
	case HalfOpen:
		if n.hoIssued < s.cfg.HalfOpenProbes {
			n.hoIssued++
			return true
		}
		return false
	case Recovering:
		// Deterministic Bresenham-style thinning: admit Ramp[level] out
		// of every 100 requests, spread evenly so tests can count on it.
		pct := s.cfg.Ramp[n.rampLevel]
		seq := n.admitSeq
		n.admitSeq++
		return pct >= 100 || (seq*pct)%100 < pct
	default: // Open
		return false
	}
}

// Success records a successful connection/relay outcome for node id.
// Successes observed while Open or HalfOpen (e.g. the front-end
// prober's dials) count toward the probe budget, so an externally
// verified recovery starts the ramp without waiting for user traffic.
func (s *Set) Success(id int, now time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.get(id)
	if n == nil {
		return
	}
	s.advance(id, n, now)
	switch n.state {
	case Closed:
		n.consecFails = 0
		n.winTotal++
	case Open:
		// External evidence (the prober) says the node answers again:
		// move into the half-open round and credit this success.
		n.hoStart, n.hoIssued, n.hoSuccesses = now, 1, 0
		s.transition(id, n, HalfOpen, now)
		s.halfOpenSuccess(id, n, now)
	case HalfOpen:
		s.halfOpenSuccess(id, n, now)
	case Recovering:
		// Ramp advancement is purely time-based; nothing to do.
	}
}

func (s *Set) halfOpenSuccess(id int, n *node, now time.Duration) {
	n.hoSuccesses++
	if n.hoSuccesses >= s.cfg.HalfOpenProbes {
		n.rampLevel, n.rampStart, n.admitSeq = 0, now, 0
		s.transition(id, n, Recovering, now)
	}
}

// Failure records a failed connection/relay outcome for node id.
func (s *Set) Failure(id int, now time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.get(id)
	if n == nil {
		return
	}
	s.advance(id, n, now)
	switch n.state {
	case Closed:
		n.consecFails++
		n.winTotal++
		n.winFails++
		if n.consecFails >= s.cfg.FailureThreshold {
			s.open(id, n, now)
			return
		}
		if n.winTotal >= windowMinSamples &&
			float64(n.winFails) >= failureRate*float64(n.winTotal) {
			s.open(id, n, now)
		}
	case HalfOpen, Recovering:
		s.open(id, n, now)
	case Open:
		// Already open; prober noise neither extends nor shortens the
		// backoff (extending could starve recovery forever).
	}
}

// State returns node id's state after applying due transitions.
func (s *Set) State(id int, now time.Duration) State {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.get(id)
	if n == nil {
		return Closed
	}
	s.advance(id, n, now)
	return n.state
}

// NodeSnapshot is one breaker's externally visible state.
type NodeSnapshot struct {
	Node  int
	State State
	Trips int
}

// Snapshot returns the per-node states after applying due transitions.
func (s *Set) Snapshot(now time.Duration) []NodeSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]NodeSnapshot, 0, len(s.nodes))
	for id, n := range s.nodes {
		s.advance(id, n, now)
		out = append(out, NodeSnapshot{Node: id, State: n.state, Trips: n.trips})
	}
	return out
}
