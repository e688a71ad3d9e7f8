package lard

import (
	"fmt"
	"sync"

	"lard/internal/core"
)

// NodeState is one node's membership and health as tracked by the
// dispatcher. NodeStates returns a slice indexed by node id; indices are
// stable for the dispatcher's lifetime and never reused, so a NodeState
// slice always lines up with Loads().
type NodeState struct {
	// Member is false once the node has been removed. A removed node's
	// index stays in every per-node slice but never receives traffic
	// again.
	Member bool

	// Draining is true between Drain and Undrain: no new assignments, but
	// in-flight connection slots keep counting until their done funcs run.
	Draining bool

	// Down is the Section 2.6 failure flag, toggled by SetNodeDown.
	Down bool
}

// Eligible reports whether the node may receive new assignments.
func (s NodeState) Eligible() bool { return s.Member && !s.Draining && !s.Down }

// membership is the dispatcher-level record of cluster membership, above
// the shards. It serializes membership operations
// (Add/Remove/Drain/SetNodeDown) against each other and fans each one out
// to every shard; the dispatch hot path never touches it.
//
// The admission bound S = Σᵢ T_high,i − maxᵢ T_high,i + minᵢ T_low,i + 1
// (the heterogeneous generalization of the paper's (n−1)·T_high + T_low +
// 1) is recomputed on every membership or profile change over the member,
// non-draining nodes' profiles. Down nodes still count toward S: failure
// is transient (the paper expects the node back; the prober re-dials it),
// whereas Remove and Drain are deliberate capacity changes. An explicit
// WithMaxOutstanding override is never recomputed.
type membership struct {
	mu    sync.RWMutex
	state []NodeState
	opts  options

	// profiles holds every node's resolved capacity profile, indexed by
	// node id alongside state. Removed nodes keep their last profile (it
	// no longer enters the budget).
	profiles []core.Profile

	// gate is the external eligibility veto installed by SetNodeGate
	// (nil = admit everything). It is read under the same locks as the
	// state slice and ANDed into every eligibility answer.
	gate NodeGate
}

func newMembership(o options) *membership {
	m := &membership{
		opts:     o,
		state:    make([]NodeState, o.Nodes),
		profiles: o.resolvedProfiles(),
	}
	for i := range m.state {
		m.state[i].Member = true
	}
	return m
}

// budgetLocked derives the per-shard admission budget from the current
// eligible-for-capacity nodes' profiles. Callers hold m.mu. With zero
// eligible nodes the derived budget is 0 (internally "unlimited"), which
// is harmless: no dispatch can claim a slot anyway — Select has no node
// to return and every request fails with ErrUnavailable.
func (m *membership) budgetLocked() int {
	eligible := make([]core.Profile, 0, len(m.state))
	for i, st := range m.state {
		if st.Member && !st.Draining {
			eligible = append(eligible, m.profiles[i])
		}
	}
	return m.opts.budgetOver(eligible)
}

// eligibleNode reports whether the node may receive new assignments —
// the Session's per-request check that its pinned node has not drained,
// failed, or left since the last dispatch. It sits on the pinned-session
// hot path, so it takes only the read lock: concurrent sessions share it
// without serializing on the membership record.
func (m *membership) eligibleNode(node int) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return node >= 0 && node < len(m.state) && m.state[node].Eligible() &&
		(m.gate == nil || m.gate(node))
}

// setGate installs the external eligibility veto and fans it out to
// every shard's dispatch path.
func (m *membership) setGate(g NodeGate, shards []*lockedShard) {
	m.mu.Lock()
	m.gate = g
	m.mu.Unlock()
	for _, sh := range shards {
		sh.setGate(g)
	}
}

func (m *membership) nodeCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.state)
}

func (m *membership) snapshot() []NodeState {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]NodeState(nil), m.state...)
}

// addNode grows the cluster by one node on every shard and returns the new
// node's index. The node joins on the uniform default profile; callers
// with a known capacity follow up with setProfile.
func (m *membership) addNode(shards []*lockedShard) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state = append(m.state, NodeState{Member: true})
	node := len(m.state) - 1
	p := m.opts.profileFor(node)
	m.profiles = append(m.profiles, p)
	budget := m.budgetLocked()
	for _, sh := range shards {
		sh.addNode(budget, p)
	}
	return node
}

// setProfile retunes a node's capacity profile, recomputes the admission
// budget, and fans both out to every shard. Partial profiles fill like
// WithProfiles. Retuning an unknown or removed node is an error.
func (m *membership) setProfile(node int, p core.Profile, shards []*lockedShard) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if node < 0 || node >= len(m.state) || !m.state[node].Member {
		return fmt.Errorf("lard: SetProfile(%d): no such member node", node)
	}
	filled := m.opts.fillProfile(p)
	if err := filled.Validate(); err != nil {
		return err
	}
	m.profiles[node] = filled
	budget := m.budgetLocked()
	for _, sh := range shards {
		sh.setProfile(node, filled, budget)
	}
	return nil
}

// profilesSnapshot returns a copy of every node's resolved profile,
// indexed by node id alongside NodeStates.
func (m *membership) profilesSnapshot() []core.Profile {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]core.Profile(nil), m.profiles...)
}

// removeNode permanently retires a node. In-flight slots on it drain
// normally through their done funcs. Removing an unknown or already
// removed node is a no-op.
func (m *membership) removeNode(node int, shards []*lockedShard) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if node < 0 || node >= len(m.state) || !m.state[node].Member {
		return
	}
	m.state[node] = NodeState{Member: false}
	budget := m.budgetLocked()
	for _, sh := range shards {
		sh.removeNode(node, budget)
	}
}

// setDraining starts or ends a drain. Draining a removed node (or a node
// already in the requested state) is a no-op.
func (m *membership) setDraining(node int, draining bool, shards []*lockedShard) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if node < 0 || node >= len(m.state) || !m.state[node].Member ||
		m.state[node].Draining == draining {
		return
	}
	m.state[node].Draining = draining
	budget := m.budgetLocked()
	for _, sh := range shards {
		sh.setDraining(node, draining, budget)
	}
}

// setNodeDown records a failure or recovery and forwards it to each
// shard's strategy. Down transitions never change the admission budget.
// Marking a removed node up or down is a no-op.
func (m *membership) setNodeDown(node int, down bool, shards []*lockedShard) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if node < 0 || node >= len(m.state) || !m.state[node].Member {
		return
	}
	m.state[node].Down = down
	for _, sh := range shards {
		sh.setNodeDown(node, down)
	}
}
