package lard

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// ConnPolicy decides, for each request on a live Session, whether the
// connection keeps being served by its current back end or is re-handed
// off to the node the strategy prefers — the paper's Section 5 open
// question ("the protocol allows the front end to either let one back
// end serve all of the requests on a persistent connection or to hand
// off a connection multiple times ... further research is needed to
// determine the appropriate policy") turned into a pluggable decision
// point owned by the dispatcher.
//
// One ConnPolicy instance is shared by every session of a dispatcher (or
// of a front end), so implementations must be safe for concurrent use.
// The built-ins are the two extremes and the cost-aware middle:
//
//   - Pin: the whole connection stays where its first request landed;
//   - PerRequest: every request re-dispatches and always takes the
//     strategy's choice;
//   - CostAware: re-dispatches every request but pays a re-handoff only
//     when the modelled locality gain beats the handoff cost.
type ConnPolicy interface {
	// Name returns the policy's flag-style name ("pin", "perreq",
	// "costaware").
	Name() string

	// HoldBetweenRequests reports how the session accounts its connection
	// slot: true keeps one slot claimed from the first dispatch until
	// Session.Close (the paper's "load = active connections" for a pinned
	// persistent connection), false claims a slot per request and the
	// per-dispatch done func releases it (so an idle connection holds no
	// capacity between requests).
	HoldBetweenRequests() bool

	// Reconsider reports whether request r of a session currently served
	// by cur should be re-dispatched through the strategy at all.
	// Returning false serves r on cur without consulting (or mutating)
	// the strategy — unless cur can no longer take traffic (down,
	// draining, or removed), in which case the session re-dispatches
	// regardless. The first request of a session never reaches
	// Reconsider: it always consults the strategy.
	Reconsider(now time.Duration, cur int, r Request) bool

	// Accept reports whether the session should actually move from cur to
	// want (the strategy's fresh choice, always != cur) for request r,
	// paying a re-handoff. Returning false keeps the session on cur when
	// cur is still eligible and has an admission slot free; otherwise the
	// move happens anyway.
	Accept(now time.Duration, cur, want int, r Request) bool

	// Observe is called after every successful session dispatch with the
	// node that will serve r, whether the session moved or stayed. It is
	// the policy's feed for locality bookkeeping (CostAware's target
	// recency table); stateless policies ignore it.
	Observe(now time.Duration, node int, r Request)
}

// The built-in connection-policy names, as accepted by NewConnPolicy and
// reported by ConnPolicy.Name.
const (
	ConnPin        = "pin"
	ConnPerRequest = "perreq"
	ConnCostAware  = "costaware"
)

// Pin returns the per-connection policy: the session stays on the node
// its first request selected for the connection's whole lifetime, holding
// one connection slot until Close. The strategy is consulted exactly
// once — requests 2..k never touch it — unless the node drains, fails,
// or is removed, in which case the next request re-dispatches (and the
// connection pays one re-handoff).
func Pin() ConnPolicy { return pinPolicy{} }

type pinPolicy struct{}

func (pinPolicy) Name() string                                 { return ConnPin }
func (pinPolicy) HoldBetweenRequests() bool                    { return true }
func (pinPolicy) Reconsider(time.Duration, int, Request) bool  { return false }
func (pinPolicy) Accept(time.Duration, int, int, Request) bool { return true }
func (pinPolicy) Observe(time.Duration, int, Request)          {}

// PerRequest returns the per-request re-handoff policy: every request is
// re-dispatched and the strategy's choice always wins, so the session
// keeps the strategy's full locality at the cost of a re-handoff on
// every back-end switch. A single-request session under PerRequest is
// exactly the one-shot Dispatch.
func PerRequest() ConnPolicy { return perRequestPolicy{} }

type perRequestPolicy struct{}

func (perRequestPolicy) Name() string                                 { return ConnPerRequest }
func (perRequestPolicy) HoldBetweenRequests() bool                    { return false }
func (perRequestPolicy) Reconsider(time.Duration, int, Request) bool  { return true }
func (perRequestPolicy) Accept(time.Duration, int, int, Request) bool { return true }
func (perRequestPolicy) Observe(time.Duration, int, Request)          {}

// CostAwareConfig holds the cost-model parameters of the CostAware
// policy. The zero value selects defaults calibrated to the paper's
// 300 MHz Pentium II cost model (DESIGN.md, "CostAware: when is a
// re-handoff worth it?", has the derivation). The
// hysteresis factor (2) and the recency-table bound (64 Ki targets) are
// fixed, and every request is eligible to move.
type CostAwareConfig struct {
	// HandoffCost, EstablishCost, and TeardownCost are the CPU charges a
	// back-end switch pays: handoff processing and connection
	// establishment on the node the connection moves to, teardown on the
	// node it leaves (defaults 300 µs, 145 µs, 145 µs).
	HandoffCost   time.Duration
	EstablishCost time.Duration
	TeardownCost  time.Duration

	// MissPenalty is the modelled extra service time of a cache miss that
	// the move would avoid — the disk read the strategy's node is
	// presumed to skip (default 28 ms, the cost model's first-block disk
	// latency).
	MissPenalty time.Duration

	// WarmWindow bounds how long the policy trusts its serving history
	// (default 20 s, the LARD replication interval K, a proxy for cache
	// residency): a "recently served at this node" record older than the
	// window no longer holds the session back, and the per-window
	// dispatch count that HotReplicate thresholds restarts with it.
	WarmWindow time.Duration

	// HotReplicate is the request *rate* threshold — dispatches within
	// one WarmWindow — beyond which a target is treated as hot enough to
	// serve wherever the session already is, replicating its cache entry
	// instead of paying a re-handoff (the LARD/R insight applied to
	// sessions: a hot enough target earns servers). Each (target, node)
	// pair pays about one replication miss and is then warm for every
	// later stay, so the threshold should be large against the cluster
	// size for a replica to earn its miss back within a window. Rate-
	// based hotness makes the hot set independent of how long the
	// workload runs. Default 12 (about 1–2 requests per node per window
	// on paper-sized clusters); negative disables replication so every
	// warm target moves.
	HotReplicate int
}

// hysteresis is the factor by which the modelled gain (MissPenalty) must
// exceed the modelled switch cost before a session moves, so a
// connection does not ping-pong on marginal differences.
const hysteresis = 2

// maxTracked bounds the target recency table: two generations of
// maxTracked/2 targets, the oldest aging out first.
const maxTracked = 64 << 10

// withDefaults fills zero fields with the calibrated defaults.
func (c CostAwareConfig) withDefaults() CostAwareConfig {
	if c.HandoffCost == 0 {
		c.HandoffCost = 300 * time.Microsecond
	}
	if c.EstablishCost == 0 {
		c.EstablishCost = 145 * time.Microsecond
	}
	if c.TeardownCost == 0 {
		c.TeardownCost = 145 * time.Microsecond
	}
	if c.MissPenalty == 0 {
		c.MissPenalty = 28 * time.Millisecond
	}
	if c.WarmWindow == 0 {
		c.WarmWindow = 20 * time.Second
	}
	if c.HotReplicate == 0 {
		c.HotReplicate = 12
	}
	return c
}

// CostAware returns the locality-aware middle between Pin and
// PerRequest: every request re-dispatches (so the strategy's state stays
// as warm as under PerRequest), but the session skips the moves that buy
// no locality. A request whose target was served at the session's
// *current* node within WarmWindow stays — it will hit right here, so
// the switch is pure cost. A target drawing at least HotReplicate
// requests per window stays too, replicating its cache entry onto the
// session's node (one miss per (target, node) pair, earned back by that
// node's later free stays — LARD/R's "a hot target earns servers" at
// session granularity). Everything else, never-seen targets included,
// takes the strategy's placement whenever an avoided miss (MissPenalty)
// outweighs the switch cost (handoff + establishment + teardown) by a
// hysteresis factor of 2: following the strategy keeps the cached copy and
// the assignment on the same node, where serving a cold target in place
// would split them and pay an extra miss when the target recurs.
// Warm-here stays plus hot replication are how CostAware holds
// PerRequest's throughput with a fraction of its re-handoffs; DESIGN.md,
// "CostAware: when is a re-handoff worth it?", derives the thresholds and
// records the measurements.
func CostAware(cfg CostAwareConfig) ConnPolicy {
	c := cfg.withDefaults()
	switchCost := hysteresis * (c.HandoffCost + c.EstablishCost + c.TeardownCost)
	return &costAwarePolicy{
		cfg: c,
		// Both sides of the economics are config-time constants, so the
		// move-vs-stay comparison resolves once: with the defaults a 28 ms
		// miss dwarfs the ~1.2 ms hysteresis-scaled switch cost and moves
		// are worthwhile; a deployment whose handoffs rival its misses
		// (MissPenalty ≤ switchCost) degrades the policy to
		// stay-unless-forced, i.e. Pin with membership safety.
		moveWorthIt: c.MissPenalty > switchCost,
		cur:         make(map[string]seenEntry, maxTracked/2),
	}
}

// seenEntry is one target's recency record. wcount counts dispatches
// within the window starting at wstart (the rate estimate HotReplicate
// thresholds); warmAt is a best-effort bitmask of nodes that served the
// target recently (node % 64), the policy's proxy for "this node's
// cache already holds it".
type seenEntry struct {
	last   time.Duration
	wstart time.Duration
	wcount int
	warmAt uint64
}

type costAwarePolicy struct {
	cfg         CostAwareConfig
	moveWorthIt bool // MissPenalty > (handoff + establish + teardown) × hysteresis

	// The recency table is two generations of target→last-dispatch maps;
	// when the young generation fills to maxTracked/2 it replaces the old
	// one, so the table is bounded without per-entry LRU links.
	mu  sync.Mutex
	cur map[string]seenEntry
	old map[string]seenEntry
}

func (p *costAwarePolicy) Name() string                                { return ConnCostAware }
func (p *costAwarePolicy) HoldBetweenRequests() bool                   { return false }
func (p *costAwarePolicy) Reconsider(time.Duration, int, Request) bool { return true }

func (p *costAwarePolicy) Accept(now time.Duration, cur, want int, r Request) bool {
	p.mu.Lock()
	e, ok := p.cur[r.Target]
	if !ok {
		e, ok = p.old[r.Target]
	}
	p.mu.Unlock()
	switch {
	case ok && now-e.last <= p.cfg.WarmWindow && e.warmAt&nodeBit(cur) != 0:
		// Presumed warm right here (this node served it within the
		// window): the stay is a hit, the move pure cost.
		return false
	case ok && now-e.last <= p.cfg.WarmWindow &&
		p.cfg.HotReplicate > 0 && e.wcount >= p.cfg.HotReplicate:
		// Hot enough to earn a replica: serve in place, paying about one
		// replication miss per node, after which this node is warm for
		// the target's future stays — the LARD/R insight at session
		// granularity.
		return false
	}
	// Everything else moves when a miss costs more than a switch: a warm
	// target's avoided miss dwarfs the handoff CPU, and a cold target is
	// best placed by the strategy too — it keeps the cached copy and the
	// strategy's assignment on the same node (serving it in place would
	// split them, paying an extra "echo" miss when the target recurs at
	// its assigned node).
	return p.moveWorthIt
}

// nodeBit maps a node index onto the warmAt bitmask (best effort: nodes
// beyond 64 alias).
func nodeBit(node int) uint64 { return 1 << (uint(node) % 64) }

func (p *costAwarePolicy) Observe(now time.Duration, node int, r Request) {
	p.mu.Lock()
	e, ok := p.cur[r.Target]
	if !ok {
		e = p.old[r.Target] // zero value when absent
	}
	e.last = now
	if now-e.wstart > p.cfg.WarmWindow {
		// A new rate window: the warm-node set restarts too, so stays
		// only target nodes that served the target recently enough for
		// the copy to plausibly still be cached.
		e.wstart, e.wcount, e.warmAt = now, 1, 0
	} else {
		e.wcount++
	}
	e.warmAt |= nodeBit(node)
	p.cur[r.Target] = e
	if len(p.cur) >= maxTracked/2 {
		p.old = p.cur
		p.cur = make(map[string]seenEntry, maxTracked/2)
	}
	p.mu.Unlock()
}

// connPolicies is the one table of built-in connection policies, in the
// order error messages list them. build is called only by NewConnPolicy:
// ResolveConnPolicyName checks a name without building anything
// (CostAware preallocates its recency table).
var connPolicies = []struct {
	name  string
	build func() ConnPolicy
}{
	{ConnPin, Pin},
	{ConnPerRequest, PerRequest},
	{ConnCostAware, func() ConnPolicy { return CostAware(CostAwareConfig{}) }},
}

// NewConnPolicy builds a built-in connection policy by name: "pin",
// "perreq", or "costaware" (with default CostAwareConfig). It is the
// string-flag entry point used by cmd/lardfe and the simulator.
func NewConnPolicy(name string) (ConnPolicy, error) {
	for _, p := range connPolicies {
		if p.name == name {
			return p.build(), nil
		}
	}
	return nil, unknownConnPolicy(name)
}

// ResolveConnPolicyName resolves an optionally empty policy name, with
// one shared rule for every configuration surface (simulator, front end,
// CLI): empty defaults to "pin", anything else must be a built-in name.
func ResolveConnPolicyName(name string) (string, error) {
	if name == "" {
		return ConnPin, nil
	}
	for _, p := range connPolicies {
		if p.name == name {
			return name, nil
		}
	}
	return "", unknownConnPolicy(name)
}

// unknownConnPolicy is the error for a name outside connPolicies, listing
// the table: "(want pin, perreq, or costaware)".
func unknownConnPolicy(name string) error {
	var want strings.Builder
	for i, p := range connPolicies {
		switch {
		case i == len(connPolicies)-1:
			want.WriteString(", or ")
		case i > 0:
			want.WriteString(", ")
		}
		want.WriteString(p.name)
	}
	return fmt.Errorf("lard: unknown connection policy %q (want %s)", name, want.String())
}
