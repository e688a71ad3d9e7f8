package frontend

import (
	"fmt"
	"net"
	"time"

	"lard/internal/handoff"
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

// backendAddr returns the handoff address for node, or "" if unknown.
func (s *Server) backendAddr(node int) string {
	s.backendsMu.RLock()
	defer s.backendsMu.RUnlock()
	if node < 0 || node >= len(s.backends) {
		return ""
	}
	return s.backends[node]
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
// before".
func (s *Server) dialBackend(node int) (net.Conn, error) {
	addr := s.backendAddr(node)
	epoch := s.dialEpoch(node)
	var conn net.Conn
	var err error
	if addr == "" {
		// A node with no known address (e.g. added through the dispatcher
		// directly rather than AddBackend) must still fail through the
		// mark-down accounting, or it would attract traffic forever.
		err = fmt.Errorf("no address for backend %d", node)
	} else {
		conn, err = s.dial(addr)
	}
	if err != nil {
		s.breakerFailure(node)
		if s.noteDialFailure(node, epoch) && !s.backendDown(node) {
			// The Down check keeps in-flight dials racing the mark-down
			// from re-counting and re-logging the same outage.
			s.m.markdowns.Inc()
			s.d.SetNodeDown(node, true)
			s.pool.evictNode(node)
			s.logf("frontend: backend %d (%q) marked down after %d consecutive dial failures",
				node, addr, s.cfg.dialFailuresBeforeDown)
		}
		return nil, err
	}
	s.resetDialFailures(node)
	s.breakerSuccess(node)
	return conn, nil
}

// noteDialFailure records one failed dial and reports whether the
// consecutive-failure threshold was crossed. Failures from a dial that
// began before the node's last recovery (stale epoch) are ignored, so a
// slow straggler timing out after a probe restore cannot re-mark the
// healthy node down. The counter resets at every crossing, so no restore
// path can leave it stranded above the threshold.
func (s *Server) noteDialFailure(node int, epoch uint64) bool {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	s.growHealthLocked(node)
	if s.dialEpochs[node] != epoch {
		return false
	}
	s.dialFails[node]++
	if s.dialFails[node] >= s.cfg.dialFailuresBeforeDown {
		s.dialFails[node] = 0
		return true
	}
	return false
}

// backendDown reports whether the dispatcher currently has node marked
// down.
func (s *Server) backendDown(node int) bool {
	states := s.d.NodeStates()
	return node >= 0 && node < len(states) && states[node].Down
}

// dialEpoch returns the node's current recovery epoch, taken before a
// dial starts so a later failure can be attributed to the right outage.
func (s *Server) dialEpoch(node int) uint64 {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	s.growHealthLocked(node)
	return s.dialEpochs[node]
}

// resetDialFailures clears the node's failure count and advances its
// epoch; called on every successful dial and on probe recovery.
func (s *Server) resetDialFailures(node int) {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	s.growHealthLocked(node)
	s.dialFails[node] = 0
	s.dialEpochs[node]++
}

// growHealthLocked sizes the per-node health slices to include node.
// Callers hold healthMu. New and AddBackend size the slices eagerly, so
// this only triggers for nodes added through the dispatcher directly.
func (s *Server) growHealthLocked(node int) {
	for node >= len(s.dialFails) {
		s.dialFails = append(s.dialFails, 0)
	}
	for node >= len(s.dialEpochs) {
		s.dialEpochs = append(s.dialEpochs, 0)
	}
	for node >= len(s.probing) {
		s.probing = append(s.probing, false)
	}
}

func (s *Server) dialFailures(node int) int {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	if node < 0 || node >= len(s.dialFails) {
		return 0
	}
	return s.dialFails[node]
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
		addr := s.backendAddr(node)
		if addr == "" || !s.beginProbe(node) {
			continue
		}
		s.m.probes.Inc()
		go func(node int, addr string) {
			defer s.endProbe(node)
			conn, err := s.dial(addr)
			if err != nil {
				s.breakerFailure(node)
				return
			}
			s.resetDialFailures(node)
			// A probe restore is breaker evidence too: Success while the
			// breaker is Open starts its half-open probe round, so the
			// graduated ramp can begin even before live traffic returns.
			s.breakerSuccess(node)
			s.m.probeRecoveries.Inc()
			s.d.SetNodeDown(node, false)
			s.logf("frontend: probe restored backend %d (%s)", node, addr)
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
		}(node, addr)
	}
}

// beginProbe claims the node's probe slot; it returns false if a probe
// for the node is already in flight.
func (s *Server) beginProbe(node int) bool {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	s.growHealthLocked(node)
	if s.probing[node] {
		return false
	}
	s.probing[node] = true
	return true
}

func (s *Server) endProbe(node int) {
	s.healthMu.Lock()
	defer s.healthMu.Unlock()
	s.probing[node] = false
}

// AddBackend joins a new back end at the given handoff address and
// returns its node index. The admission bound S is recomputed by the
// dispatcher. The address is stored at the index the dispatcher actually
// assigned, so alignment survives even if nodes were added through the
// dispatcher directly.
func (s *Server) AddBackend(addr string) int {
	s.backendsMu.Lock()
	node := s.d.AddNode()
	for node >= len(s.backends) {
		s.backends = append(s.backends, "")
	}
	s.backends[node] = addr
	s.backendsMu.Unlock()
	// Size the health slices now, so the prober and the mark-down
	// accounting see the node without relying on lazy growth.
	s.healthMu.Lock()
	s.growHealthLocked(node)
	s.healthMu.Unlock()
	s.growNodeHists(node + 1)
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
		info := NodeInfo{
			Node:      i,
			Addr:      s.backendAddr(i),
			State:     st,
			DialFails: s.dialFailures(i),
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
