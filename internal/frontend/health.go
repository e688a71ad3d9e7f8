package frontend

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"lard/internal/handoff"
	"lard/internal/metrics"
	"lard/pkg/lard"
)

// This file is the front end's health and membership machinery. The seed
// front end marked a node down on a single failed dial and never restored
// it, so one refused connection was a permanent outage. Now:
//
//   - a node is marked down only after DefaultDialFailuresBeforeDown
//     *consecutive* dial failures (any successful dial resets the count);
//   - a background prober re-dials down nodes every DefaultProbeInterval
//     and marks them up on the first successful dial, completing the
//     paper's Section 2.6 failure/recovery loop without operator
//     intervention.
//
// The prober's per-node state machine is
//
//	up --(N consecutive dial failures)--> down
//	down --(successful probe dial)--> up (cold cache; LARD re-warms it)
//
// Removed and draining nodes are the dispatcher's business (membership),
// not the prober's: it only probes member nodes whose Down flag is set.
// What the front end keeps per node is one backendNode record, in the
// table New fills and AddBackend grows.

// DefaultProbeInterval is how often the prober re-dials down back ends.
const DefaultProbeInterval = time.Second

// DefaultDialFailuresBeforeDown is how many consecutive dials to a back
// end must fail before it is marked down. A transient dial error below it
// surfaces to that client as a 502 but does not take the node out of
// rotation.
const DefaultDialFailuresBeforeDown = 3

// NodeInfo is one back end's administrative view, as served by the
// GET /admin/nodes endpoint of cmd/lardfe.
type NodeInfo struct {
	Node      int            `json:"node"`
	Addr      string         `json:"addr"`
	State     lard.NodeState `json:"state"`
	Active    int            `json:"active"`
	DialFails int            `json:"consecutive_dial_failures"`

	// Profile is the node's resolved capacity profile: the thresholds
	// bounding its backlog, and the weight capacity-aware strategies
	// scale their placement by. Retune live with POST /admin/profile.
	Profile lard.Profile `json:"profile"`
}

// backendNode is the front end's record of one back end: where to dial
// it, its request-latency histogram, and the health state the mark-down
// accounting and the prober keep. The Server's table holds one per node
// AddBackend (or New) added; addr and hist never change.
type backendNode struct {
	addr string
	hist *metrics.Histogram

	// dialFails counts consecutive failed dials; reaching the configured
	// threshold marks the node down. epoch advances on every recovery so
	// stale in-flight dial failures are discounted. probing is set while
	// a health probe is in flight.
	mu        sync.Mutex
	dialFails int
	epoch     uint64
	probing   bool
}

func newBackendNode(reg *metrics.Registry, node int, addr string) *backendNode {
	return &backendNode{
		addr: addr,
		hist: reg.Histogram("lard_fe_node_request_seconds",
			"request latency by serving back-end node", "node", strconv.Itoa(node)),
	}
}

// backend returns node's record, or nil when it has none: an id outside
// the table, or a node the dispatcher gained without AddBackend.
//
//lard:noalloc
func (s *Server) backend(node int) *backendNode {
	if nodes := *s.nodes.Load(); node >= 0 && node < len(nodes) {
		return nodes[node]
	}
	return nil
}

// dial opens a transport to the back end at addr. A back end on this host
// whose listener answers on the pass address its TCP address names
// (pass.go) is dialed there, for a transport that can carry a client's
// socket; any other over TCP. dialBackend and the prober both dial here,
// so a transport the prober pools is the kind a pool miss would dial.
func (s *Server) dial(addr string) (net.Conn, error) {
	if conn, err := handoff.DialPass(addr); err == nil {
		return conn, nil
	}
	return net.DialTimeout("tcp", addr, s.cfg.dialTimeout)
}

// dialBackend dials the chosen back end and keeps the consecutive-failure
// accounting: the threshold crossing marks the node down for the policy
// layer, so its targets are re-assigned "as if they had not been assigned
// before". A node with no record has no address to dial, now or later,
// and is marked down on its first attempt.
func (s *Server) dialBackend(node int) (net.Conn, error) {
	b := s.backend(node)
	if b == nil {
		// AddBackend publishes a record just after the dispatcher assigns
		// the node its id; taking its lock waits that out.
		s.nodesMu.Lock()
		b = s.backend(node)
		s.nodesMu.Unlock()
	}
	if b == nil {
		s.markDown(node, "it has no address")
		return nil, fmt.Errorf("no address for backend %d", node)
	}
	epoch := b.dialEpoch()
	conn, err := s.dial(b.addr)
	if err != nil {
		if b.noteDialFailure(epoch, s.cfg.dialFailuresBeforeDown) {
			s.markDown(node, fmt.Sprintf("%q failed %d consecutive dials", b.addr, s.cfg.dialFailuresBeforeDown))
		}
		return nil, err
	}
	b.resetDialFailures()
	return conn, nil
}

// markDown takes node out of rotation and discards its pooled transports.
// The Down check keeps in-flight dials racing the mark-down from
// re-counting and re-logging the same outage.
func (s *Server) markDown(node int, why string) {
	if states := s.d.NodeStates(); node < len(states) && states[node].Down {
		return
	}
	s.m.markdowns.Inc()
	s.d.SetNodeDown(node, true)
	s.pool.evictNode(node)
	s.logf("frontend: backend %d marked down: %s", node, why)
}

// noteDialFailure records one failed dial and reports whether the
// consecutive-failure threshold was crossed. Failures from a dial that
// began before the node's last recovery (stale epoch) are ignored, so a
// slow straggler timing out after a probe restore cannot re-mark the
// healthy node down. The counter resets at every crossing, so no restore
// path can leave it stranded above the threshold.
func (b *backendNode) noteDialFailure(epoch uint64, threshold int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.epoch != epoch {
		return false
	}
	b.dialFails++
	if b.dialFails >= threshold {
		b.dialFails = 0
		return true
	}
	return false
}

// dialEpoch returns the node's current recovery epoch, taken before a
// dial starts so a later failure can be attributed to the right outage.
func (b *backendNode) dialEpoch() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.epoch
}

// resetDialFailures clears the node's failure count and advances its
// epoch; called on every successful dial and on probe recovery.
func (b *backendNode) resetDialFailures() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dialFails = 0
	b.epoch++
}

func (b *backendNode) dialFailures() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dialFails
}

// probeLoop periodically re-dials down back ends until Close.
func (s *Server) probeLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.probeOnce()
		}
	}
}

// probeOnce dials every member node currently marked down and restores
// the ones that answer. Each node's probe runs in its own goroutine and
// at most one probe per node is in flight, so one unresponsive address
// (SYNs dropped, full dial timeout burned) neither delays other nodes'
// recovery nor stalls the probe ticker.
func (s *Server) probeOnce() {
	for node, st := range s.d.NodeStates() {
		if !st.Member || !st.Down {
			continue
		}
		b := s.backend(node)
		if b == nil || !b.beginProbe() {
			continue
		}
		s.m.probes.Inc()
		go func(node int, b *backendNode) {
			defer b.endProbe()
			conn, err := s.dial(b.addr)
			if err != nil {
				s.breakerFailure(node)
				return
			}
			b.resetDialFailures()
			// A probe restore is breaker evidence too: Success while the
			// breaker is Open starts its half-open probe round, so the
			// graduated ramp can begin even before live traffic returns.
			s.breakerSuccess(node)
			s.m.probeRecoveries.Inc()
			s.d.SetNodeDown(node, false)
			s.logf("frontend: probe restored backend %d (%s)", node, b.addr)
			// The probe dial already paid for connection establishment:
			// seed the pool with it instead of throwing it away, so the
			// first handoffs after recovery skip their dials (the back
			// end holds an unused transport in handshake state briefly;
			// its handshake timeout reaps it if traffic never comes).
			// The eligibility re-check mirrors releaseBackend: an admin
			// drain racing the recovery must not get a warm transport.
			if s.nodePoolable(node) {
				s.pool.put(newBackendConn(node, conn))
			} else {
				conn.Close()
			}
		}(node, b)
	}
}

// beginProbe claims the node's probe slot; it returns false if a probe
// for the node is already in flight.
func (b *backendNode) beginProbe() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.probing {
		return false
	}
	b.probing = true
	return true
}

func (b *backendNode) endProbe() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// AddBackend joins a new back end at the given handoff address and
// returns its node index. The admission bound S is recomputed by the
// dispatcher. The record is stored at the index the dispatcher actually
// assigned, so alignment survives nodes added through the dispatcher
// directly (they get no record).
func (s *Server) AddBackend(addr string) int {
	s.nodesMu.Lock()
	defer s.nodesMu.Unlock()
	node := s.d.AddNode()
	nodes := make([]*backendNode, node+1)
	copy(nodes, *s.nodes.Load())
	nodes[node] = newBackendNode(s.reg, node, addr)
	s.nodes.Store(&nodes)
	return node
}

// RemoveBackend permanently removes a back end; in-flight connections
// finish, new requests go elsewhere, and the node's pooled connections
// are discarded.
func (s *Server) RemoveBackend(node int) {
	s.d.RemoveNode(node)
	s.pool.evictNode(node)
}

// DrainBackend stops new assignments to a back end; watch
// Stats().ActivePerNode reach zero to know the drain completed. The
// node's pooled connections are discarded so no session can reach it
// through the pool.
func (s *Server) DrainBackend(node int) {
	s.d.Drain(node)
	s.pool.evictNode(node)
}

// UndrainBackend restores a draining back end.
func (s *Server) UndrainBackend(node int) { s.d.Undrain(node) }

// Nodes returns the administrative snapshot of every back end.
func (s *Server) Nodes() []NodeInfo {
	states := s.d.NodeStates()
	loads := s.d.Loads()
	profiles := s.d.Profiles()
	out := make([]NodeInfo, len(states))
	for i, st := range states {
		info := NodeInfo{Node: i, State: st}
		if b := s.backend(i); b != nil {
			info.Addr, info.DialFails = b.addr, b.dialFailures()
		}
		if i < len(loads) {
			info.Active = loads[i]
		}
		if i < len(profiles) {
			info.Profile = profiles[i]
		}
		out[i] = info
	}
	return out
}
