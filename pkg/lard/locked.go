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

	// gate is the external eligibility veto (SetNodeGate); nil admits
	// everything. Unlike down, drain and removal it is never reported to
	// the strategy: a gated node keeps its target mapping and simply has
	// traffic detoured around it until the gate re-admits it.
	gate NodeGate
}

// admissibleLocked reports whether node may take a new slot on this
// shard: the strategy calls it eligible, the gate admits it, and it is
// below its claim ceiling, 2× its profile's T_high — the load at which
// every strategy unconditionally abandons a node. The session claim paths
// (claimNode, claimFallback) check it so a pinned connection can never
// ride a small node past the point its own thresholds call panicked; the
// strategy dispatch path needs no ceiling check because Select already
// refuses such nodes. Callers hold sh.mu.
func (sh *lockedShard) admissibleLocked(node int) bool {
	return sh.strategy.Eligible(node) && (sh.gate == nil || sh.gate(node)) &&
		sh.loads.active[node] < 2*sh.strategy.NodeProfile(node).THigh
}

func (sh *lockedShard) setGate(g NodeGate) {
	sh.mu.Lock()
	sh.gate = g
	sh.mu.Unlock()
}

func newLockedShard(build func(core.LoadReader, options) core.Strategy, o options) *lockedShard {
	lt := &loadTable{active: make([]int, o.Nodes)}
	sh := &lockedShard{strategy: build(lt, o), loads: lt, budget: o.budget()}
	for i, p := range o.resolvedProfiles() {
		sh.strategy.SetProfile(i, p)
	}
	return sh
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
	if node < 0 {
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
	if !sh.admissibleLocked(node) {
		return nil, ErrUnavailable
	}
	if sh.budget > 0 && sh.inFlight >= sh.budget {
		return nil, ErrOverloaded
	}
	return sh.claimLocked(node), nil
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
		if !sh.admissibleLocked(i) {
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

// setNodeDown forwards a failure or recovery to the strategy. Drain is
// its own flag, so recovering a draining node leaves it ineligible.
func (sh *lockedShard) setNodeDown(node int, down bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if down {
		sh.strategy.NodeDown(node)
	} else {
		sh.strategy.NodeUp(node)
	}
}

// addNode grows the shard's load table (so Load(new) is valid before the
// strategy learns of the node) and installs the recomputed admission
// budget and the new node's profile.
func (sh *lockedShard) addNode(budget int, p core.Profile) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.loads.active = append(sh.loads.active, 0)
	sh.budget = budget
	sh.strategy.SetProfile(sh.strategy.AddNode(), p)
}

// setProfile installs a node's retuned profile and the recomputed
// admission budget on this shard.
func (sh *lockedShard) setProfile(node int, p core.Profile, budget int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.budget = budget
	sh.strategy.SetProfile(node, p)
}

// removeNode retires a node on this shard.
func (sh *lockedShard) removeNode(node, budget int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.budget = budget
	sh.strategy.RemoveNode(node)
}

// setDraining toggles drain on this shard.
func (sh *lockedShard) setDraining(node int, draining bool, budget int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.budget = budget
	sh.strategy.SetDraining(node, draining)
}

func (sh *lockedShard) inspect(shard int, f func(int, core.Strategy, core.LoadReader)) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f(shard, sh.strategy, sh.loads)
}
