package core

import "time"

// Balanced is the load-only skeleton: each request goes to the alive node
// with the least capacity-relative load, ties broken round-robin, and the
// target is ignored. It produces near-perfect load balancing but no
// locality: every back end sees (a sample of) the entire working set.
type Balanced struct {
	nodeSet
}

// NewWRR returns the paper's baseline: "weighted round-robin request
// distribution ... weighted by some measure of the load on the different
// back ends" (Section 2.2) — the limiting behaviour of weighted
// round-robin when the weight is the (inverse) number of open
// connections, which is the load measure the paper's front end maintains.
//
// Nodes start at weight 1, where the pick is exactly the paper's
// least-loaded node; with SetProfile weights a 2× node settles at twice
// the connections of a 1× node.
func NewWRR(loads LoadReader) *Balanced {
	return &Balanced{newNodeSet(loads, DefaultProfile())}
}

// Name implements Strategy.
func (s *Balanced) Name() string { return "WRR" }

// Select implements Strategy.
func (s *Balanced) Select(time.Duration, Request) int { return s.leastLoaded(relativeLoad) }
