// Package core implements the request-distribution strategies of the LARD
// paper (Section 2) — the paper's primary contribution.
//
// A Strategy decides, for each incoming request, which back-end node should
// serve it. The same Strategy implementations drive both the trace-driven
// cluster simulator (internal/cluster) and the live prototype front end
// (internal/frontend), mirroring how the paper evaluates one policy in both
// settings.
//
// The paper presents its strategies as points on one locality-versus-
// balance line, and the code follows: three Select skeletons over one
// shared node set, plus the idealized reference model, and six
// constructors that configure them.
//
//   - Balanced picks the least relative-loaded node and ignores the
//     target. NewWRR: the paper's "state-of-the-art" baseline
//     (Section 2.2).
//   - Hashed hashes the target to one node, load-blind. NewLB: the hash
//     partitioning of Section 2.3.
//   - Mapped keeps a target→server-set table and moves a target when its
//     node fails the imbalance test of Figures 2 and 3. NewLARD: raw
//     loads, the set is replaced (Figure 2). NewLARDR: raw loads, the
//     set grows and shrinks (Figure 3). NewWLARD: loads divided by node
//     weight, the set is replaced.
//   - LBGC is LB with a front-end model of a global cache — on a hit
//     route to the caching node, on a miss route to the node caching the
//     globally oldest target (Section 4, "LB/GC").
//
// Strategies are deterministic and not safe for concurrent use; callers
// that dispatch from multiple goroutines (the live front end) must
// serialize calls. The paper's front end is likewise a single dispatch
// point.
package core

import (
	"fmt"
	"math"
	"time"
)

// Request carries the request attributes visible to the front end after
// inspecting the connection's first request: the target (URL plus
// arguments, per the paper's definition) and, when known, its size.
type Request struct {
	Target string
	Size   int64
}

// LoadReader exposes back-end load information to strategies. The paper's
// front end derives load from its own connection bookkeeping: "a node's
// load is measured as the number of active connections", requiring no
// communication with the back ends.
type LoadReader interface {
	// NodeCount returns the number of back-end nodes (alive or not).
	NodeCount() int

	// Load returns the number of active connections assigned to node:
	// handed off and not yet completed.
	Load(node int) int
}

// Strategy selects a back-end node for each request and keeps the node
// set it selects from. The set of strategies is closed: this package's
// six New* constructors build the only implementations, and every one
// of them embeds a nodeSet, which carries the node-set methods once.
//
// Node indices are stable and never reused: AddNode always extends the
// index space, and a removed node's index stays ineligible for good.
// Failure (Section 2.6), drain and removal only flip a flag: a strategy's
// per-target state naming an ineligible node is left in place and ignored
// by Select, which re-assigns on the target's next request — the paper's
// "the front end simply re-assigns targets assigned to the failed back
// end as if they had not been assigned before" for all three.
type Strategy interface {
	// Name returns the strategy's short name as used in the paper's
	// figures (e.g. "WRR", "LARD/R").
	Name() string

	// Select returns the node that should serve r, given the current
	// (virtual or wall-clock) time. It returns -1 if no back-end node is
	// eligible, and never an ineligible node.
	Select(now time.Duration, r Request) int

	// NodeDown marks a node failed; NodeUp restores it.
	NodeDown(node int)
	NodeUp(node int)

	// AddNode grows the node set by one eligible node carrying the
	// default profile and returns its index. The caller must have
	// extended its LoadReader first, so Load(new) is valid before AddNode
	// returns.
	AddNode() int

	// RemoveNode permanently retires a node. Removing an unknown or
	// already-removed node is a no-op.
	RemoveNode(node int)

	// SetDraining marks a node draining (true) or restores it (false). A
	// draining node receives no new assignments while its in-flight work
	// finishes elsewhere in the stack.
	SetDraining(node int, draining bool)

	// SetProfile replaces node's capacity profile. The caller has
	// validated the profile; setting a profile on an unknown node is a
	// no-op. NodeProfile returns node's current profile.
	SetProfile(node int, p Profile)
	NodeProfile(node int) Profile

	// Eligible reports whether node may receive new assignments: it
	// exists, is not down, not draining and not removed.
	Eligible(node int) bool
}

// Params holds the LARD tuning parameters (Section 2.4).
type Params struct {
	// TLow is the load "below which a back end is likely to have idle
	// resources".
	TLow int

	// THigh is the load "above which a node is likely to cause substantial
	// delay in serving requests". A target is moved when its node exceeds
	// THigh while another sits below TLow, or unconditionally at 2×THigh.
	THigh int

	// K is the replication timer of LARD/R: a server set that has not
	// changed for K shrinks by one node.
	K time.Duration

	// MappingCapacity bounds the number of targets tracked in the
	// front end's mapping, evicting least-recently-used assignments
	// (Section 2.6: "the mappings can be maintained in an LRU cache").
	// Zero means unbounded.
	MappingCapacity int
}

// DefaultParams returns the settings the paper found "to give good
// performance across all workloads we tested": TLow = 25 and THigh = 65
// active connections, K = 20 s.
func DefaultParams() Params {
	return Params{TLow: 25, THigh: 65, K: 20 * time.Second}
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	switch {
	case p.TLow < 1:
		return fmt.Errorf("core: TLow = %d, need >= 1", p.TLow)
	case p.THigh <= p.TLow:
		return fmt.Errorf("core: THigh = %d must exceed TLow = %d", p.THigh, p.TLow)
	case p.K < 0:
		return fmt.Errorf("core: negative K")
	case p.MappingCapacity < 0:
		return fmt.Errorf("core: negative MappingCapacity")
	}
	return nil
}

// MaxOutstanding returns S = (n−1)·T_high + T_low + 1, the total number of
// connections the front end admits to an n-node cluster. The paper chooses
// S so that "at most n−1 nodes can have a load ≥ T_high while no node has
// load < T_low", leaving room for bounded imbalance without idling nodes.
// It is the uniform-fleet special case of MaxOutstandingOver.
func (p Params) MaxOutstanding(n int) int {
	if n < 1 {
		return 0
	}
	return (n-1)*p.THigh + p.TLow + 1
}

// Profile is one node's capacity profile: the per-node generalization of
// the fleet-wide Params thresholds for heterogeneous clusters.
//
// TLow and THigh play the roles of Params.TLow/THigh for this node alone:
// a small node trips the move condition at a lower load than a big one.
// Weight is the node's relative capacity used by placement rules that
// compare loads across nodes (WRR's weight-proportional pick, WLARD's
// weight-scaled imbalance test); 1.0 is a standard
// node, 2.0 a node with twice the capacity.
type Profile struct {
	// TLow is the load below which this node is likely to have idle
	// resources.
	TLow int

	// THigh is the load above which this node is likely to cause
	// substantial delay; its targets move away when it exceeds THigh
	// while another node sits below its own TLow, or unconditionally at
	// 2×THigh.
	THigh int

	// Weight is the node's relative capacity (> 0).
	Weight float64
}

// DefaultProfile returns the profile of a standard node under the paper's
// default parameters: TLow = 25, THigh = 65, Weight = 1.
func DefaultProfile() Profile { return DefaultParams().Profile() }

// Profile returns the uniform per-node profile implied by the fleet-wide
// parameters: every node gets p's thresholds at weight 1.
func (p Params) Profile() Profile {
	return Profile{TLow: p.TLow, THigh: p.THigh, Weight: 1}
}

// Validate reports whether the profile is usable.
func (p Profile) Validate() error {
	switch {
	case p.TLow < 1:
		return fmt.Errorf("core: profile TLow = %d, need >= 1", p.TLow)
	case p.THigh <= p.TLow:
		return fmt.Errorf("core: profile THigh = %d must exceed TLow = %d", p.THigh, p.TLow)
	case !(p.Weight > 0) || math.IsInf(p.Weight, 1):
		// Written so that NaN, which compares false, fails too.
		return fmt.Errorf("core: profile Weight = %v, need a finite value > 0", p.Weight)
	}
	return nil
}

// MaxOutstandingOver returns the heterogeneous admission bound
//
//	S = Σᵢ T_high,i − maxᵢ T_high,i + minᵢ T_low,i + 1
//
// over the given per-node profiles. It preserves the paper's guarantee in
// per-node form: with at most S connections outstanding, at most n−1 nodes
// can sit at or above their own T_high while no node is below its own
// T_low — so whenever some node is overloaded by its profile's standard,
// an idle node exists and the strategies' move condition can fire. On a
// uniform fleet it reduces exactly to Params.MaxOutstanding(n).
func MaxOutstandingOver(profiles []Profile) int {
	if len(profiles) == 0 {
		return 0
	}
	sum, maxHigh, minLow := 0, profiles[0].THigh, profiles[0].TLow
	for _, p := range profiles {
		sum += p.THigh
		if p.THigh > maxHigh {
			maxHigh = p.THigh
		}
		if p.TLow < minLow {
			minLow = p.TLow
		}
	}
	return sum - maxHigh + minLow + 1
}

// nodeSet tracks which nodes are eligible for new assignments and
// provides the load-based node picks shared by the strategies. A node is
// eligible ("alive" below) when it has not failed (Section 2.6), is not
// draining, and has not been removed from the cluster. The set is
// growable; indices are stable and never reused.
//
// The set also carries each node's capacity Profile. Nodes start from the
// default profile the strategy was built with (derived from its Params, or
// DefaultProfile for strategies without thresholds) and may be retuned
// per node through SetProfile; nodes added later inherit the default.
//
// Every strategy embeds a nodeSet, so Strategy's node-set methods are
// implemented here, once.
type nodeSet struct {
	loads    LoadReader
	def      Profile
	profiles []Profile
	down     []bool
	drain    []bool
	removed  []bool
	// rr rotates tie-breaks so equal-load nodes are picked round-robin.
	rr int
}

func newNodeSet(loads LoadReader, def Profile) nodeSet {
	if loads == nil {
		panic("core: nil LoadReader")
	}
	if err := def.Validate(); err != nil {
		panic(err)
	}
	n := loads.NodeCount()
	if n < 1 {
		panic("core: LoadReader reports no nodes")
	}
	profiles := make([]Profile, n)
	for i := range profiles {
		profiles[i] = def
	}
	return nodeSet{
		loads:    loads,
		def:      def,
		profiles: profiles,
		down:     make([]bool, n),
		drain:    make([]bool, n),
		removed:  make([]bool, n),
	}
}

// NodeDown implements Strategy.
func (s *nodeSet) NodeDown(node int) { s.setFlag(s.down, node, true) }

// NodeUp implements Strategy.
func (s *nodeSet) NodeUp(node int) { s.setFlag(s.down, node, false) }

// AddNode implements Strategy: one fresh, eligible node carrying
// the default profile. Existing per-target state is untouched; the new
// node picks up targets as first-time assignments and load-triggered
// moves (or, for the hashed strategies, by the re-hash over the enlarged
// alive set).
func (s *nodeSet) AddNode() int {
	s.profiles = append(s.profiles, s.def)
	s.down = append(s.down, false)
	s.drain = append(s.drain, false)
	s.removed = append(s.removed, false)
	return len(s.down) - 1
}

// RemoveNode implements Strategy; the index is never reused.
func (s *nodeSet) RemoveNode(node int) { s.setFlag(s.removed, node, true) }

// SetDraining implements Strategy.
func (s *nodeSet) SetDraining(node int, draining bool) { s.setFlag(s.drain, node, draining) }

// SetProfile implements Strategy: the node's thresholds and weight
// take effect on the next Select that consults them. The load-blind
// strategies (LB, LB/GC) record the profile for reporting only.
func (s *nodeSet) SetProfile(node int, p Profile) {
	if node >= 0 && node < len(s.profiles) {
		s.profiles[node] = p
	}
}

// NodeProfile implements Strategy (the default for unknown nodes).
func (s *nodeSet) NodeProfile(node int) Profile {
	if node < 0 || node >= len(s.profiles) {
		return s.def
	}
	return s.profiles[node]
}

func (s *nodeSet) setFlag(flags []bool, node int, v bool) {
	if node >= 0 && node < len(flags) {
		flags[node] = v
	}
}

// Eligible implements Strategy.
func (s *nodeSet) Eligible(node int) bool {
	return node >= 0 && node < len(s.down) &&
		!s.down[node] && !s.drain[node] && !s.removed[node]
}

// aliveCount returns the number of alive nodes and kthAlive the k-th of
// them in ascending index order: the hashed strategy's allocation-free
// view of the alive set.
func (s *nodeSet) aliveCount() int {
	n := 0
	for i := range s.down {
		if s.Eligible(i) {
			n++
		}
	}
	return n
}

func (s *nodeSet) kthAlive(k int) int {
	for i := range s.down {
		if s.Eligible(i) {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return -1
}

// The two load measures, as arguments to load and leastLoaded.
const rawLoad, relativeLoad = false, true

// load returns node's load as the strategies compare it: the active
// connection count, divided by the profile weight when relative — so a
// 2× node at 40 connections compares equal to a 1× node at 20.
func (s *nodeSet) load(node int, relative bool) float64 {
	l := float64(s.loads.Load(node))
	if relative {
		l /= s.profiles[node].Weight
	}
	return l
}

// leastLoaded returns the alive node with the minimum (raw or relative)
// load, rotating the starting point so ties are broken round-robin, or
// -1 if none is alive.
func (s *nodeSet) leastLoaded(relative bool) int {
	n := len(s.down)
	best, bestLoad := -1, 0.0
	for k := 0; k < n; k++ {
		i := (s.rr + k) % n
		if !s.Eligible(i) {
			continue
		}
		l := s.load(i, relative)
		if best == -1 || l < bestLoad {
			best, bestLoad = i, l
		}
	}
	if best >= 0 {
		s.rr = (best + 1) % n
	}
	return best
}

var (
	_ Strategy = (*Balanced)(nil)
	_ Strategy = (*Hashed)(nil)
	_ Strategy = (*Mapped)(nil)
	_ Strategy = (*LBGC)(nil)
)
