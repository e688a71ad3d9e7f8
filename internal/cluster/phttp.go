package cluster

import (
	"errors"
	"time"

	"lard/internal/core"
	"lard/pkg/lard"
)

// This file is the simulator's persistent-connection (P-HTTP) model,
// paper Section 5: consecutive trace requests are grouped into
// connections, and the dispatch policy question — pin the whole
// connection to the back end its first request selected, re-hand it off
// per request, or move only when the locality regained is worth the
// switch — is a lard.ConnPolicy consulted by the lard.Session behind
// each connection. The cost asymmetry is the trade-off under study:
// pinning loses locality (requests 2..k land wherever request 1 went),
// re-handoff keeps locality but charges Cost.HandoffCost + connection
// establishment on every back-end switch and a teardown on the node the
// connection left; the cost-aware middle pays the switch only when the
// modelled miss it avoids costs more.

// connState tracks one in-flight persistent connection: its remaining
// requests, the session owning its dispatch state, and the node that
// served the previous request (for teardown accounting on moves).
type connState struct {
	reqs []core.Request
	i    int // next request to dispatch
	sess *lard.Session
	prev int // node serving the previous request, -1 before the first
}

// newConnPolicy builds the configured lard.ConnPolicy. CostAware's
// thresholds are derived from this simulation's own cost model, so the
// policy's modelled economics match the costs the simulator charges.
// One instance serves every connection of the run (its recency table is
// shared state, like a front end's).
func newConnPolicy(cfg Config) lard.ConnPolicy {
	switch cfg.connPolicyName() {
	case lard.ConnPerRequest:
		return lard.PerRequest()
	case lard.ConnCostAware:
		return lard.CostAware(lard.CostAwareConfig{
			HandoffCost:   cfg.Cost.HandoffTime(),
			EstablishCost: cfg.Cost.EstablishTime(),
			TeardownCost:  cfg.Cost.TeardownTime(),
			MissPenalty:   cfg.Cost.DiskFirstLatency,
			WarmWindow:    cfg.Params.K,
			// A replica earns its one-time miss back once the target
			// draws a couple of requests per node per window.
			HotReplicate: max(3*cfg.Nodes/2, 2),
		})
	default:
		return lard.Pin()
	}
}

// pumpPersistent is the closed loop over connections rather than
// requests. Stalled connections (a dispatch that hit the admission
// bound) resume first — they were admitted earlier and hold the
// connection's place — then new connections enter while capacity
// remains.
func (c *Cluster) pumpPersistent() {
	for len(c.stalled) > 0 {
		if !c.stepConn(c.stalled[0]) {
			return // still saturated; completions will re-pump
		}
		c.stalled = c.stalled[1:]
	}
	for c.next < c.tr.Len() {
		k := min(c.cfg.ReqsPerConn, c.tr.Len()-c.next)
		reqs := make([]core.Request, k)
		for i := range reqs {
			r := c.tr.At(c.next + i)
			reqs[i] = core.Request{Target: r.Target, Size: r.Size}
		}
		cs := &connState{reqs: reqs, prev: -1, sess: c.d.NewSession(c.connPolicy)}
		c.next += k
		if !c.stepConn(cs) {
			// Admitted as far as the closed loop is concerned: park it on
			// the stalled queue rather than rebuilding it on every
			// completion.
			c.stalled = append(c.stalled, cs)
			return
		}
	}
	// The loop can end on an outage that dropped the trace tail with
	// nothing in flight; close the timeline here, since no completion
	// callback remains to do it.
	c.maybeFinish()
}

// stepConn dispatches request cs.i of a connection through its session.
// It returns false when the admission bound is hit, leaving cs untouched
// so the caller can park it on the stalled queue.
func (c *Cluster) stepConn(cs *connState) bool {
	req := cs.reqs[cs.i]
	node, moved, done, err := cs.sess.Dispatch(c.eng.Now(), req)
	if errors.Is(err, lard.ErrOverloaded) {
		return false
	}
	if err != nil {
		// Total outage: the client loses the rest of the connection.
		c.dropped += len(cs.reqs) - cs.i
		if cs.prev >= 0 {
			c.nodes[cs.prev].ChargeTeardown()
		}
		cs.sess.Close()
		c.maybeFinish()
		return true
	}
	// Handoff and establishment are processing on the landing node, so
	// they run at that node's speed-scaled costs.
	landing := c.nodes[node].cost
	var extra time.Duration
	switch {
	case cs.prev < 0:
		// The connection's arrival: handoff + establishment at the first
		// back end.
		extra = landing.HandoffTime() + landing.EstablishTime()
	case moved:
		// The session moved the connection: teardown where it was,
		// handoff + establishment where it lands.
		c.nodes[cs.prev].ChargeTeardown()
		c.rehandoffs++
		extra = landing.HandoffTime() + landing.EstablishTime()
	}
	cs.prev = node
	c.outstanding++
	if c.outstanding > c.peak {
		c.peak = c.outstanding
	}
	start := c.eng.Now()
	c.nodes[node].ServePersistent(req, extra, func() {
		done()
		c.outstanding--
		c.completeRequest(node, start)
		cs.i++
		if cs.i < len(cs.reqs) {
			if !c.stepConn(cs) {
				c.stalled = append(c.stalled, cs)
			}
		} else {
			c.nodes[node].ChargeTeardown()
			cs.sess.Close()
		}
		c.pump()
		c.maybeFinish()
	})
	return true
}

// completeRequest folds one finished request into the shared accounting;
// both the HTTP/1.0 and persistent closed loops funnel through it.
func (c *Cluster) completeRequest(node int, start time.Duration) {
	c.served++
	d := c.eng.Now() - start
	c.delaySum += d
	if d > c.delayMax {
		c.delayMax = d
	}
	if c.cfg.DelaySLO > 0 && d <= c.cfg.DelaySLO {
		c.withinSLO++
	}
	c.nodeDelaySum[node] += d
	c.nodeDelayCnt[node]++
}

// maybeFinish closes the timeline when the persistent closed loop has
// fully drained.
func (c *Cluster) maybeFinish() {
	if c.outstanding == 0 && c.next >= c.tr.Len() && len(c.stalled) == 0 {
		c.finishSampling()
	}
}
