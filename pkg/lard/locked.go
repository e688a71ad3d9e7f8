package lard

import (
	"sync"
	"time"

	"lard/internal/core"
)

// loadTable is the front-end connection bookkeeping the paper describes:
// active connections per node, maintained by the dispatcher itself. It
// implements core.LoadReader for the strategy; strategies only read it
// while the owning shard's lock is held.
type loadTable struct {
	active []int
}

func (t *loadTable) NodeCount() int    { return len(t.active) }
func (t *loadTable) Load(node int) int { return t.active[node] }

// lockedShard is one strategy instance behind one mutex: the unit the
// dispatcher is built from. It preserves the paper's semantics
// exactly — Select runs serialized against a load table that already
// reflects every admitted connection.
type lockedShard struct {
	mu       sync.Mutex
	strategy core.Strategy
	loads    *loadTable
	inFlight int
	budget   int // max outstanding connections; 0 = unlimited

	// blocked marks nodes that are removed or draining, down marks nodes
	// failed. Built-in strategies already refuse both via
	// core.MembershipAware/core.FailureAware; these guards make the
	// no-traffic guarantee hold even for externally registered
	// strategies that implement neither interface.
	blocked []bool
	down    []bool

	// caps is each node's per-shard claim ceiling, 2× its profile's
	// T_high — the load at which every strategy unconditionally abandons
	// a node. The session claim paths (claimNode, claimFallback) enforce
	// it so a pinned connection can never ride a small node past the
	// point its own thresholds call panicked; the strategy dispatch path
	// needs no check because Select already refuses such nodes. 0 means
	// uncapped (a strategy that ignores profiles).
	caps []int

	// gate is the external eligibility veto (SetNodeGate); nil admits
	// everything. Unlike blocked/down it is never reported to the
	// strategy: a gated node keeps its target mapping and simply has
	// traffic detoured around it until the gate re-admits it.
	gate NodeGate
}

// admissibleLocked reports whether node may take a new slot on this
// shard. Callers hold sh.mu.
func (sh *lockedShard) admissibleLocked(node int) bool {
	return node >= 0 && node < len(sh.loads.active) &&
		!sh.blocked[node] && !sh.down[node] &&
		(sh.gate == nil || sh.gate(node))
}

func (sh *lockedShard) setGate(g NodeGate) {
	sh.mu.Lock()
	sh.gate = g
	sh.mu.Unlock()
}

func newLockedShard(f Factory, o Options) (*lockedShard, error) {
	lt := &loadTable{active: make([]int, o.Nodes)}
	s, err := f(lt, o)
	if err != nil {
		return nil, err
	}
	sh := &lockedShard{
		strategy: s,
		loads:    lt,
		budget:   o.budget(),
		blocked:  make([]bool, o.Nodes),
		down:     make([]bool, o.Nodes),
		caps:     make([]int, o.Nodes),
	}
	profiles := o.resolvedProfiles()
	pa, aware := s.(core.ProfileAware)
	for i, p := range profiles {
		sh.caps[i] = 2 * p.THigh
		if aware {
			pa.SetProfile(i, p)
		}
	}
	return sh, nil
}

// claimLocked claims one connection slot on node and returns its
// idempotent release. Callers hold sh.mu and have validated node and the
// admission budget; done's idempotency rides the shard mutex — the
// released flag is only read and written inside the critical section.
func (sh *lockedShard) claimLocked(node int) func() {
	sh.loads.active[node]++
	sh.inFlight++
	released := false
	return func() {
		sh.mu.Lock()
		if !released {
			released = true
			sh.loads.active[node]--
			sh.inFlight--
		}
		sh.mu.Unlock()
	}
}

func (sh *lockedShard) dispatch(now time.Duration, r Request) (int, func(), error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.budget > 0 && sh.inFlight >= sh.budget {
		return -1, nil, ErrOverloaded
	}
	node := sh.strategy.Select(now, r)
	if node < 0 || node >= len(sh.loads.active) || sh.blocked[node] || sh.down[node] {
		return -1, nil, ErrUnavailable
	}
	if sh.gate != nil && !sh.gate(node) {
		// The strategy's pick is vetoed by the external gate (a tripped
		// breaker). Detour to the least-loaded admissible node without
		// telling the strategy: its target→node mapping must survive so
		// traffic snaps back when the gate re-admits the node.
		if node = sh.fallbackLocked(nil); node < 0 {
			return -1, nil, ErrUnavailable
		}
	}
	return node, sh.claimLocked(node), nil
}

// claimNode claims a connection slot on a specific node, bypassing the
// strategy — the Session primitive for keeping a connection where it is.
// It fails with ErrUnavailable when the node cannot take new traffic and
// ErrOverloaded when the shard's admission budget is exhausted.
func (sh *lockedShard) claimNode(node int) (func(), error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if !sh.admissibleLocked(node) || sh.atCapLocked(node) {
		return nil, ErrUnavailable
	}
	if sh.budget > 0 && sh.inFlight >= sh.budget {
		return nil, ErrOverloaded
	}
	return sh.claimLocked(node), nil
}

// atCapLocked reports whether node has reached its per-node claim ceiling
// (2× its profile's T_high). Callers hold sh.mu.
func (sh *lockedShard) atCapLocked(node int) bool {
	return sh.caps[node] > 0 && sh.loads.active[node] >= sh.caps[node]
}

// claimFallback claims a connection slot on the least-loaded node that
// can still take traffic, skipping the excluded nodes — the Session
// primitive behind Redispatch, for moving a connection off a node the
// caller found unreachable without disturbing the strategy's state (a
// transient dial failure is not the paper's Section 2.6 node failure; the
// mark-down threshold decides when it becomes one).
func (sh *lockedShard) claimFallback(exclude []int) (int, func(), error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.budget > 0 && sh.inFlight >= sh.budget {
		return -1, nil, ErrOverloaded
	}
	best := sh.fallbackLocked(exclude)
	if best < 0 {
		return -1, nil, ErrUnavailable
	}
	return best, sh.claimLocked(best), nil
}

// fallbackLocked returns the least-loaded admissible node outside
// exclude, or -1. Nodes at their per-node claim ceiling are skipped, so a
// redispatching session never lands on a node its profile calls
// panicked. Callers hold sh.mu.
func (sh *lockedShard) fallbackLocked(exclude []int) int {
	best := -1
search:
	for i := range sh.loads.active {
		if !sh.admissibleLocked(i) || sh.atCapLocked(i) {
			continue
		}
		for _, x := range exclude {
			if i == x {
				continue search
			}
		}
		if best < 0 || sh.loads.active[i] < sh.loads.active[best] {
			best = i
		}
	}
	return best
}

func (sh *lockedShard) snapshot() (active []int, inFlight int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return append([]int(nil), sh.loads.active...), sh.inFlight
}

// setNodeDown forwards a failure or recovery to the strategy; draining
// reports whether the node is mid-drain, so recovery never lifts the
// NodeDown that stands in for a drain on FailureAware-only strategies.
// The shard's own down flag backs the dispatch guard for strategies with
// no failure support at all.
func (sh *lockedShard) setNodeDown(node int, down, draining bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if node >= 0 && node < len(sh.down) {
		sh.down[node] = down
	}
	fa, ok := sh.strategy.(core.FailureAware)
	if !ok {
		return
	}
	_, membershipAware := sh.strategy.(core.MembershipAware)
	switch {
	case down:
		fa.NodeDown(node)
	case draining && !membershipAware:
		// The node is back up but still draining, and this strategy's
		// only no-new-assignments flag is the down bit: keep it set.
	default:
		fa.NodeUp(node)
	}
}

// addNode grows the shard's load table (so Load(new) is valid before the
// strategy learns of the node) and installs the recomputed admission
// budget and the new node's profile.
func (sh *lockedShard) addNode(budget int, p core.Profile) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.loads.active = append(sh.loads.active, 0)
	sh.blocked = append(sh.blocked, false)
	sh.down = append(sh.down, false)
	sh.caps = append(sh.caps, 2*p.THigh)
	sh.budget = budget
	node := len(sh.loads.active) - 1
	if ma, ok := sh.strategy.(core.MembershipAware); ok {
		ma.AddNode()
	}
	if pa, ok := sh.strategy.(core.ProfileAware); ok {
		pa.SetProfile(node, p)
	}
}

// setProfile installs a node's retuned profile and the recomputed
// admission budget on this shard.
func (sh *lockedShard) setProfile(node int, p core.Profile, budget int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if node < 0 || node >= len(sh.caps) {
		return
	}
	sh.caps[node] = 2 * p.THigh
	sh.budget = budget
	if pa, ok := sh.strategy.(core.ProfileAware); ok {
		pa.SetProfile(node, p)
	}
}

// removeNode retires a node on this shard. A strategy without membership
// support degrades to a permanent NodeDown, which has the same
// no-new-assignments effect (membership never marks a removed node up).
func (sh *lockedShard) removeNode(node, budget int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if node < 0 || node >= len(sh.blocked) {
		return
	}
	sh.blocked[node] = true
	sh.budget = budget
	if ma, ok := sh.strategy.(core.MembershipAware); ok {
		ma.RemoveNode(node)
	} else if fa, ok := sh.strategy.(core.FailureAware); ok {
		fa.NodeDown(node)
	}
}

// setDraining toggles drain on this shard. The FailureAware fallback makes
// externally registered strategies treat a drain like a failure, which is
// the same Select-level behavior; down reports whether the node is also
// failed, so undraining inside one critical section never briefly marks a
// down node selectable.
func (sh *lockedShard) setDraining(node int, draining, down bool, budget int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if node < 0 || node >= len(sh.blocked) {
		return
	}
	sh.blocked[node] = draining
	sh.budget = budget
	if ma, ok := sh.strategy.(core.MembershipAware); ok {
		ma.SetDraining(node, draining)
	} else if fa, ok := sh.strategy.(core.FailureAware); ok {
		switch {
		case draining:
			fa.NodeDown(node)
		case down:
			// Undrained but still failed: the strategy's single down flag
			// must stay set.
		default:
			fa.NodeUp(node)
		}
	}
}

func (sh *lockedShard) inspect(shard int, f func(int, core.Strategy, core.LoadReader)) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f(shard, sh.strategy, sh.loads)
}
