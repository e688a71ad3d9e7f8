package core

import (
	"slices"
	"time"
)

// Mapped is the locality-aware skeleton, a direct transcription of the
// paper's Figure 3 (LARD/R), of which Figure 2 (basic LARD) is the case
// whose server sets never hold more than one node:
//
//	while true
//	    fetch next request r
//	    if serverSet[r.target] = ∅ then
//	        n, serverSet[r.target] ← {least loaded node}
//	    else
//	        n ← {least loaded node in serverSet[r.target]}
//	        m ← {most loaded node in serverSet[r.target]}
//	        if (n.load > T_high && ∃ node with load < T_low) ||
//	           n.load ≥ 2·T_high then
//	            p ← {least loaded node}
//	            add p to serverSet[r.target]      (Figure 2: replace n by p)
//	            n ← p
//	        if |serverSet[r.target]| > 1 &&
//	           time() − serverSet[r.target].lastMod > K then
//	            remove m from serverSet[r.target]
//	    send r to n
//	    if serverSet[r.target] changed in this iteration then
//	        serverSet[r.target].lastMod ← time()
//
// The first request for a target assigns it to a lightly loaded node;
// subsequent requests stick to that node — building locality — unless the
// node is overloaded while another has idle capacity (or is at twice
// T_high). Then a replacing strategy moves the target; a replicating one
// adds a server, so a target hot enough to overload a single node fans out
// over several (each request goes to the least loaded member), and a set
// that has been stable for K shrinks by its most loaded member, so "the
// degree of replication for a target does not remain unnecessarily high
// once it is requested less often". Combined with the admission bound S
// (Params.MaxOutstanding), any reassignment is guaranteed to move the
// target between nodes whose loads differ by at least T_high − T_low.
//
// The loads the algorithm inspects come in two measures. Raw: connection
// counts against the inspected node's own profile thresholds, so on a
// heterogeneous fleet a small node trips the move condition at the load
// that actually overloads it. Relative (after Sharma & Saxena's weighted
// locality-aware distribution): counts divided by the node's profile
// Weight against the fleet-base T_low/T_high from Params, so a Weight-w
// node trips the move condition at w·T_high connections, advertises idle
// capacity below w·T_low, and big nodes absorb proportionally more of the
// working set. With every weight 1 and no per-node thresholds the two
// measures are the same numbers.
type Mapped struct {
	nodeSet
	name      string
	params    Params
	relative  bool // the load measure, see above
	replicate bool // the imbalance test adds a server instead of replacing it
	sets      *mapping[targetSet]

	// Diagnostics: movesIdle counts reassignments (moves or added
	// replicas) triggered by the (load > T_high && ∃ load < T_low)
	// clause, movesPanic those from the load ≥ 2·T_high clause.
	assigns    uint64
	movesIdle  uint64
	movesPanic uint64
	shrinks    uint64
	maxDepth   int
}

type targetSet struct {
	nodes   []int
	lastMod time.Duration
}

// Mapped's second configuration axis (the first is the load measure),
// named for the constructors.
const replaceNode, addNode = false, true

// NewLARD returns basic LARD (Figure 2): raw loads, targets move.
func NewLARD(loads LoadReader, params Params) *Mapped {
	return newMapped("LARD", loads, params, rawLoad, replaceNode)
}

// NewLARDR returns LARD with replication (Figure 3): raw loads, server
// sets grow and shrink.
func NewLARDR(loads LoadReader, params Params) *Mapped {
	return newMapped("LARD/R", loads, params, rawLoad, addNode)
}

// NewWLARD returns weighted LARD: weight-relative loads, targets move. On
// a uniform fleet it is behaviourally identical to NewLARD.
func NewWLARD(loads LoadReader, params Params) *Mapped {
	return newMapped("WLARD", loads, params, relativeLoad, replaceNode)
}

// newMapped panics if params are invalid. Every node starts on the uniform
// profile params imply; SetProfile retunes individual nodes.
func newMapped(name string, loads LoadReader, params Params, relative, replicate bool) *Mapped {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	return &Mapped{
		nodeSet:   newNodeSet(loads, params.Profile()),
		name:      name,
		params:    params,
		relative:  relative,
		replicate: replicate,
		sets:      newMapping[targetSet](params.MappingCapacity),
	}
}

// Name implements Strategy.
func (s *Mapped) Name() string { return s.name }

// Select implements Strategy.
func (s *Mapped) Select(now time.Duration, r Request) int {
	set, _ := s.sets.get(r.Target)
	stored := len(set.nodes)
	set.nodes = s.pruneDead(set.nodes)
	if len(set.nodes) == 0 {
		n := s.leastLoaded(s.relative)
		if n < 0 {
			return -1
		}
		s.sets.put(r.Target, targetSet{nodes: append(set.nodes, n), lastMod: now})
		s.assigns++
		return n
	}

	n := s.leastLoadedOf(set.nodes)
	m := s.mostLoadedOf(set.nodes)
	changed := false

	load, _, high := s.gauge(n)
	idleExists := load > high && s.anyIdle()
	if idleExists || load >= 2*high {
		if p := s.leastLoaded(s.relative); p >= 0 && !slices.Contains(set.nodes, p) {
			if s.replicate {
				set.nodes = append(set.nodes, p)
				s.maxDepth = max(s.maxDepth, len(set.nodes))
			} else {
				set.nodes[0] = p
			}
			n = p
			changed = true
			if idleExists {
				s.movesIdle++
			} else {
				s.movesPanic++
			}
		}
	}

	if len(set.nodes) > 1 && now-set.lastMod > s.params.K {
		set.nodes = slices.DeleteFunc(set.nodes, func(v int) bool { return v == m })
		changed = true
		s.shrinks++
		if n == m {
			// The node we were about to use left the set; fall back to the
			// least loaded remaining member.
			n = s.leastLoadedOf(set.nodes)
		}
	}

	if changed {
		set.lastMod = now
	}
	// get has refreshed the target's recency; the entry itself is written
	// back only if this request altered it.
	if changed || len(set.nodes) != stored {
		s.sets.put(r.Target, set)
	}
	return n
}

// gauge returns node's load and the T_low/T_high it is held against, in
// the strategy's load measure.
func (s *Mapped) gauge(node int) (load, low, high float64) {
	load = s.load(node, s.relative)
	if s.relative {
		return load, float64(s.params.TLow), float64(s.params.THigh)
	}
	p := s.profiles[node]
	return load, float64(p.TLow), float64(p.THigh)
}

// anyIdle reports whether some alive node sits below its T_low — the
// paper's "∃ node with load < T_low" idle test.
func (s *Mapped) anyIdle() bool {
	for i := range s.down {
		if !s.Eligible(i) {
			continue
		}
		if load, low, _ := s.gauge(i); load < low {
			return true
		}
	}
	return false
}

// pruneDead drops ineligible nodes from a server set, in place.
func (s *Mapped) pruneDead(nodes []int) []int {
	out := nodes[:0]
	for _, n := range nodes {
		if s.Eligible(n) {
			out = append(out, n)
		}
	}
	return out
}

// leastLoadedOf returns the member with minimum load (first wins ties).
func (s *Mapped) leastLoadedOf(nodes []int) int {
	best, bestLoad := -1, 0.0
	for _, n := range nodes {
		l := s.load(n, s.relative)
		if best == -1 || l < bestLoad {
			best, bestLoad = n, l
		}
	}
	return best
}

// mostLoadedOf returns the member with maximum load (last wins ties, so a
// tied set never removes the node Select is about to use when n was chosen
// first-wins).
func (s *Mapped) mostLoadedOf(nodes []int) int {
	best, bestLoad := -1, -1.0
	for _, n := range nodes {
		l := s.load(n, s.relative)
		if l >= bestLoad {
			best, bestLoad = n, l
		}
	}
	return best
}

// ServerSet returns a copy of the current server set for target (nil if
// unmapped), for tests and diagnostics. It does not refresh the mapping's
// recency.
func (s *Mapped) ServerSet(target string) []int {
	set, ok := s.sets.peek(target)
	if !ok {
		return nil
	}
	return append([]int(nil), set.nodes...)
}

// Assignment returns the first node of target's server set — for a
// replacing strategy, the node the target is assigned to. Like ServerSet
// it does not refresh the mapping's recency.
func (s *Mapped) Assignment(target string) (node int, ok bool) {
	set, ok := s.sets.peek(target)
	if !ok {
		return 0, false
	}
	return set.nodes[0], true
}

// MappedTargets returns the number of targets currently tracked.
func (s *Mapped) MappedTargets() int { return s.sets.len() }

// Assignments returns the number of first-time target assignments
// (including re-assignments of targets whose whole set became ineligible).
func (s *Mapped) Assignments() uint64 { return s.assigns }

// Moves returns how many times the imbalance test gave a target a new
// node: a move for a replacing strategy, an added replica for a
// replicating one.
func (s *Mapped) Moves() uint64 { return s.movesIdle + s.movesPanic }

// MovesByCause splits Moves into those triggered by the idle-node clause
// and those by the 2×T_high clause.
func (s *Mapped) MovesByCause() (idle, panic uint64) { return s.movesIdle, s.movesPanic }

// Shrinks returns the number of server-set removals by the K timer.
func (s *Mapped) Shrinks() uint64 { return s.shrinks }

// MaxReplication returns the size of the largest server set a replica was
// ever added to (0 if none grew).
func (s *Mapped) MaxReplication() int { return s.maxDepth }
