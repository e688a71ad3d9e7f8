package cluster

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"lard/internal/cache"
	"lard/internal/core"
	"lard/pkg/lard"
)

// WRRGMS is the one configuration the simulator runs that pkg/lard does
// not register: wrr at the front end over back ends sharing a global
// memory system.
const WRRGMS = "wrr/gms"

// PaperStrategies returns the pkg/lard registry names of every
// configuration the paper's figures sweep, in its presentation order. The
// heterogeneous-fleet extension wlard is deliberately excluded so figure
// reproductions stay faithful; the hetero experiment sweeps it
// explicitly.
func PaperStrategies() []string {
	return []string{"wrr", "lb", "lb/gc", "lard", "lard/r", WRRGMS}
}

// Label returns the paper's figure label for a strategy name: "lb/gc"
// becomes "LB/GC".
func Label(strategy string) string { return strings.ToUpper(strategy) }

// CachePolicy selects the back-end cache replacement policy.
type CachePolicy int

const (
	// GDS is Greedy-Dual-Size, the paper's default.
	GDS CachePolicy = iota
	// LRU is least-recently-used with a large-file admission cutoff.
	LRU
)

// String returns the policy name.
func (p CachePolicy) String() string {
	switch p {
	case GDS:
		return "GDS"
	case LRU:
		return "LRU"
	default:
		return fmt.Sprintf("CachePolicy(%d)", int(p))
	}
}

// ChurnOp enumerates the scripted membership operations a ChurnEvent can
// apply to the running cluster.
type ChurnOp int

const (
	// ChurnFail marks a node down (Section 2.6 failure).
	ChurnFail ChurnOp = iota
	// ChurnRecover restores a failed node with a cold cache.
	ChurnRecover
	// ChurnJoin adds a brand-new node (cold cache) to the cluster; the
	// event's Node field is ignored and the index is assigned at runtime.
	ChurnJoin
	// ChurnDrain stops new assignments to a node; in-flight work
	// finishes.
	ChurnDrain
	// ChurnUndrain restores a draining node (cache still warm).
	ChurnUndrain
	// ChurnLeave permanently removes a node.
	ChurnLeave
)

// String names the operation.
func (op ChurnOp) String() string {
	switch op {
	case ChurnFail:
		return "fail"
	case ChurnRecover:
		return "recover"
	case ChurnJoin:
		return "join"
	case ChurnDrain:
		return "drain"
	case ChurnUndrain:
		return "undrain"
	case ChurnLeave:
		return "leave"
	default:
		return fmt.Sprintf("ChurnOp(%d)", int(op))
	}
}

// NodeProfile is one simulated node's capacity description: the
// dispatcher-visible core.Profile (thresholds + weight) plus the
// simulator-only service-rate multiplier.
type NodeProfile struct {
	core.Profile

	// Speed scales the node's service rate: every cost-model duration on
	// the node (CPU, disk, transmit, handoff) is divided by Speed, so a
	// Speed-2 node finishes the same work in half the simulated time. 0
	// defaults to the profile's Weight (a "2× node" both advertises and
	// delivers double capacity), or 1 when that is also unset.
	Speed float64
}

// fill resolves zero fields: Weight 0 becomes 1 and Speed 0 follows the
// weight, so declaring just {Weight: 2} yields a node that advertises and
// serves double capacity. Thresholds stay zero here — pkg/lard fills them
// from Params scaled by Weight.
func (p NodeProfile) fill() NodeProfile {
	if p.Weight == 0 {
		p.Weight = 1
	}
	if p.Speed == 0 {
		p.Speed = p.Weight
	}
	return p
}

// ChurnEvent is one scripted membership change at virtual time At. Build
// schedules with the FailAt/RecoverAt/JoinAt/DrainAt/LeaveAt helpers.
type ChurnEvent struct {
	At   time.Duration
	Op   ChurnOp
	Node int

	// Profile, set only on ChurnJoin events, is the joining node's
	// capacity profile (see JoinWithProfileAt). Nil joins a standard
	// uniform node.
	Profile *NodeProfile
}

// FailAt schedules node to fail at t.
func FailAt(node int, t time.Duration) ChurnEvent {
	return ChurnEvent{At: t, Op: ChurnFail, Node: node}
}

// RecoverAt schedules node to recover (cold cache) at t.
func RecoverAt(node int, t time.Duration) ChurnEvent {
	return ChurnEvent{At: t, Op: ChurnRecover, Node: node}
}

// JoinAt schedules a new node to join at t on the uniform default
// profile.
func JoinAt(t time.Duration) ChurnEvent {
	return ChurnEvent{At: t, Op: ChurnJoin}
}

// JoinWithProfileAt schedules a new node to join at t with an explicit
// capacity profile: the dispatcher learns its thresholds and weight (and
// recomputes the admission bound) the moment it joins, and the simulated
// node serves at the profile's Speed.
func JoinWithProfileAt(p NodeProfile, t time.Duration) ChurnEvent {
	return ChurnEvent{At: t, Op: ChurnJoin, Profile: &p}
}

// DrainAt schedules node to start draining at t.
func DrainAt(node int, t time.Duration) ChurnEvent {
	return ChurnEvent{At: t, Op: ChurnDrain, Node: node}
}

// UndrainAt schedules node to return from draining at t.
func UndrainAt(node int, t time.Duration) ChurnEvent {
	return ChurnEvent{At: t, Op: ChurnUndrain, Node: node}
}

// LeaveAt schedules node to leave the cluster permanently at t.
func LeaveAt(node int, t time.Duration) ChurnEvent {
	return ChurnEvent{At: t, Op: ChurnLeave, Node: node}
}

// DefaultCacheBytes is the paper's default per-node cache size: "we chose
// to set the default node cache size in our simulations to 32 MB".
const DefaultCacheBytes = 32 << 20

// DefaultLRUCutoff is the large-file admission cutoff used with the LRU
// policy ("files with a size of more than 500 KB are never cached").
const DefaultLRUCutoff = 500 << 10

// underutilizationFraction defines node underutilization as load below
// this fraction of T_low (the paper uses 40%).
const underutilizationFraction = 0.4

// Config describes one simulation run.
type Config struct {
	// Strategy is the request-distribution configuration under test: a
	// pkg/lard registry name, or WRRGMS.
	Strategy string

	// Nodes is the number of back-end nodes.
	Nodes int

	// CacheBytes is the per-node main-memory cache size.
	CacheBytes int64

	// CachePolicy is the replacement policy (GDS by default).
	CachePolicy CachePolicy

	// Disks is the number of disks per node (Figure 13/14 sweeps). Files
	// are striped across disks "in round-robin fashion based on
	// decreasing order of request frequency in the trace".
	Disks int

	// Cost is the processing cost model.
	Cost CostModel

	// Params are the LARD thresholds; they also set the cluster-wide
	// admission bound S for every strategy (the front end "limits the
	// number of outstanding requests at the back ends" under all
	// strategies considered).
	Params core.Params

	// Profiles optionally describes a heterogeneous fleet: Profiles[i]
	// is node i's capacity profile. It may be shorter than Nodes;
	// unlisted nodes are standard (weight 1, speed 1, the Params
	// thresholds). Zero fields fill as NodeProfile documents, so a fleet
	// of "4 small + 2 big" is just two {Weight: w} entries.
	Profiles []NodeProfile

	// MaxOutstanding, when nonzero, overrides the admission bound the
	// thresholds would derive: the front end keeps at most this many
	// requests in flight per shard (negative = unlimited, as in
	// lard.WithMaxOutstanding). Pinning it lets experiments compare
	// threshold policies at identical offered concurrency, so only
	// request placement — not the budget each policy derives — differs
	// between runs.
	MaxOutstanding int

	// DelaySLO, when positive, classifies each completed request by
	// whether its total delay stayed within this bound; Result.Goodput
	// is the rate of requests that did. Overloaded uniform thresholds on
	// a mixed fleet show up here: the throughput stays flat while
	// goodput collapses on the queued-up small nodes.
	DelaySLO time.Duration

	// Churn optionally scripts runtime membership changes: failures,
	// recoveries, joins, drains, and leaves, applied at their virtual
	// times. Joins extend the cluster beyond Nodes.
	Churn []ChurnEvent

	// SampleEvery, when positive, records a windowed activity timeline
	// (Result.Timeline): one sample per interval with the window's
	// throughput and miss ratio — the churn experiments' time axis.
	SampleEvery time.Duration

	// ReqsPerConn, when >= 1, models persistent connections (P-HTTP,
	// paper Section 5): consecutive trace requests are grouped into
	// connections of this many requests (the trace's last connection
	// takes what is left), each connection charging Cost.HandoffCost on
	// arrival at a back end. 1 means single-request connections — same
	// workload shape as HTTP/1.0 but under the P-HTTP cost model, the
	// sweep's anchor point. 0 keeps the paper's original model (no handoff
	// accounting), preserving the published figures.
	ReqsPerConn int

	// ConnPolicy selects the persistent-connection dispatch policy by
	// name — how the session behind each simulated connection trades
	// affinity against locality (pkg/lard's ConnPolicy):
	//
	//   - "pin": the whole connection is served by the back end its
	//     first request's target selected — the per-connection policy
	//     whose lost locality the phttp experiment measures;
	//   - "perreq": every request re-dispatches and each move to a
	//     different back end is charged Cost.HandoffCost + establishment
	//     there (plus teardown on the node it left) — the paper's
	//     multiple-handoff design;
	//   - "costaware": re-dispatches every request but only moves when
	//     the modelled locality gain beats the switch cost; the policy's
	//     thresholds are derived from this Config's CostModel and Params.
	//
	// Empty selects "pin".
	ConnPolicy string
}

// profileFor returns node i's filled capacity profile; nodes beyond the
// Profiles slice (including runtime joins without an explicit profile)
// are standard weight-1, speed-1 nodes.
func (c Config) profileFor(i int) NodeProfile {
	if i >= 0 && i < len(c.Profiles) {
		return c.Profiles[i].fill()
	}
	return NodeProfile{}.fill()
}

// coreProfiles returns the dispatcher-visible per-node profiles, or nil
// for a uniform fleet (preserving the paper-exact construction path).
func (c Config) coreProfiles() []core.Profile {
	if len(c.Profiles) == 0 {
		return nil
	}
	out := make([]core.Profile, len(c.Profiles))
	for i := range out {
		out[i] = c.Profiles[i].fill().Profile
	}
	return out
}

// connPolicyName resolves the persistent-connection policy name through
// the shared pkg/lard rule; Validate has already rejected unknown names,
// so the error path is unreachable here.
func (c Config) connPolicyName() string {
	name, err := lard.ResolveConnPolicyName(c.ConnPolicy)
	if err != nil {
		panic(fmt.Sprintf("cluster: unvalidated ConnPolicy: %v", err))
	}
	return name
}

// DefaultConfig returns the paper's default simulation setup for the given
// strategy and cluster size: 32 MB GDS caches, one disk per node, the
// Pentium II cost model, T_low = 25 / T_high = 65 / K = 20 s.
func DefaultConfig(strategy string, nodes int) Config {
	return Config{
		Strategy:    strategy,
		Nodes:       nodes,
		CacheBytes:  DefaultCacheBytes,
		CachePolicy: GDS,
		Disks:       1,
		Cost:        DefaultCostModel(),
		Params:      core.DefaultParams(),
	}
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 1:
		return fmt.Errorf("cluster: Nodes = %d, need >= 1", c.Nodes)
	case c.CacheBytes < 0:
		return fmt.Errorf("cluster: negative CacheBytes")
	case c.Disks < 1:
		return fmt.Errorf("cluster: Disks = %d, need >= 1", c.Disks)
	case strings.HasSuffix(strings.ToLower(c.Strategy), "/gms") && c.Strategy != WRRGMS:
		return fmt.Errorf("cluster: unknown strategy %q (the one GMS configuration is %q)", c.Strategy, WRRGMS)
	}
	if err := c.Cost.Validate(); err != nil {
		return err
	}
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if len(c.Churn) > 0 && c.Strategy == WRRGMS {
		return fmt.Errorf("cluster: churn is not supported with WRR/GMS")
	}
	for _, ev := range c.Churn {
		if ev.At < 0 {
			return fmt.Errorf("cluster: churn %s at negative time %v", ev.Op, ev.At)
		}
		if ev.Profile != nil {
			if ev.Op != ChurnJoin {
				return fmt.Errorf("cluster: churn %s at %v carries a profile; only joins may", ev.Op, ev.At)
			}
			if err := validateNodeProfile(*ev.Profile); err != nil {
				return fmt.Errorf("cluster: churn join at %v: %w", ev.At, err)
			}
		}
	}
	// Joins assign indexes at runtime, so an event may reference a node
	// beyond Nodes − 1 — but only once enough joins have fired. Replay
	// the schedule chronologically (stable for ties, matching the
	// engine's FIFO order for same-instant events) and reject any event
	// that would reference a node before it exists.
	chrono := append([]ChurnEvent(nil), c.Churn...)
	sort.SliceStable(chrono, func(a, b int) bool { return chrono[a].At < chrono[b].At })
	nodes := c.Nodes
	for _, ev := range chrono {
		if ev.Op == ChurnJoin {
			nodes++
			continue
		}
		if ev.Node < 0 || ev.Node >= nodes {
			return fmt.Errorf("cluster: churn %s at %v references node %d, but only %d nodes exist at that time",
				ev.Op, ev.At, ev.Node, nodes)
		}
	}
	if c.SampleEvery < 0 {
		return fmt.Errorf("cluster: negative SampleEvery")
	}
	if len(c.Profiles) > c.Nodes {
		return fmt.Errorf("cluster: %d profiles for %d nodes", len(c.Profiles), c.Nodes)
	}
	for i, p := range c.Profiles {
		if err := validateNodeProfile(p); err != nil {
			return fmt.Errorf("cluster: profile for node %d: %w", i, err)
		}
	}
	if c.DelaySLO < 0 {
		return fmt.Errorf("cluster: negative DelaySLO")
	}
	if c.ReqsPerConn < 0 {
		return fmt.Errorf("cluster: ReqsPerConn = %d, need >= 0", c.ReqsPerConn)
	}
	if c.ReqsPerConn >= 1 && c.Strategy == WRRGMS {
		return fmt.Errorf("cluster: persistent connections are not supported with WRR/GMS")
	}
	if _, err := lard.ResolveConnPolicyName(c.ConnPolicy); err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	// Note scripted failures/churn now compose with every connection
	// policy: the session behind each connection re-dispatches when its
	// node drains, fails, or leaves, so even a pinned connection moves on
	// its next request (PR 3 had to reject this combination).
	return nil
}

// validateNodeProfile rejects unusable profile declarations before fill:
// negative knobs, or thresholds that cross once both are explicit.
func validateNodeProfile(p NodeProfile) error {
	switch {
	case !(p.Weight >= 0) || math.IsInf(p.Weight, 1):
		return fmt.Errorf("bad Weight %v, need a finite value >= 0", p.Weight)
	case !(p.Speed >= 0) || math.IsInf(p.Speed, 1):
		return fmt.Errorf("bad Speed %v, need a finite value >= 0", p.Speed)
	case p.TLow < 0 || p.THigh < 0:
		return fmt.Errorf("negative thresholds (TLow %d, THigh %d)", p.TLow, p.THigh)
	case p.TLow > 0 && p.THigh > 0 && p.THigh <= p.TLow:
		return fmt.Errorf("THigh %d must exceed TLow %d", p.THigh, p.TLow)
	}
	return nil
}

// newCache constructs one back-end cache per the configured policy.
func (c Config) newCache() cache.Cache {
	switch c.CachePolicy {
	case LRU:
		return cache.NewLRUWithCutoff(c.CacheBytes, DefaultLRUCutoff)
	default:
		return cache.NewGDS(c.CacheBytes)
	}
}
