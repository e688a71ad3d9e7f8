package core

import "time"

// Hashed is the stateless locality skeleton: each target hashes to one of
// the alive nodes, and every request for it goes there, whatever the
// load. Because the node is a pure function of the target name (and of
// the alive set: every membership change re-hashes the name space, the
// partitioning shift this scheme inherently pays), each back end caches
// only its partition of the working set, with no per-target front-end
// state.
type Hashed struct {
	nodeSet
	seed uint64
}

// NewLB returns the pure locality-based strategy (Section 2.3):
// "partitioning the name space of the database in some way and assigning
// requests for all targets in a particular partition to a particular back
// end. For instance, a hash function can be used to perform the
// partitioning." It maximizes cache aggregation — each back end caches
// only its partition of the working set — but ignores load (and
// profiles) entirely, so a popular partition can overload its node while
// others idle.
func NewLB(loads LoadReader) *Hashed {
	return &Hashed{nodeSet: newNodeSet(loads, DefaultProfile()), seed: HashSeed()}
}

// Name implements Strategy.
func (s *Hashed) Name() string { return "LB" }

// Select implements Strategy.
func (s *Hashed) Select(_ time.Duration, r Request) int {
	alive := s.aliveCount()
	if alive == 0 {
		return -1
	}
	return s.kthAlive(int(HashTarget(s.seed, r.Target) % uint64(alive)))
}
