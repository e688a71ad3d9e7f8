package core

import "time"

// Hashed is the stateless locality skeleton: each target hashes to d
// candidate nodes among the alive ones, and a request goes to a
// candidate. Because the candidate set is a pure function of the target
// name (and of the alive set: every membership change re-hashes the name
// space, the partitioning shift these schemes inherently pay), a
// target's requests concentrate on at most d nodes — bounding cache
// dilution at d copies of the working set instead of WRR's n — with no
// per-target front-end state.
//
// A load-blind Hashed (NewLB) takes the first candidate unconditionally.
// A load-tested one (NewPOD) takes the candidate with the lowest
// capacity-relative load, skipping candidates at or above twice their own
// T_high (the same panic level LARD uses to abandon a node); if every
// candidate is panicked the request spills to the least relative-loaded
// alive node.
type Hashed struct {
	nodeSet
	name     string
	seeds    []uint64 // one HashSeed per candidate
	loadTest bool
	spills   uint64
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
	return &Hashed{nodeSet: newNodeSet(loads, DefaultProfile()), name: "LB", seeds: []uint64{HashSeed()}}
}

// NewPOD returns the power-of-d-choices strategy with per-node capacity
// cost, after Pourmiri et al.'s proximity-aware balanced allocations. It
// uses d = 2: two choices already get the bulk of the power-of-d
// balancing benefit while keeping cache dilution minimal. It panics if
// params are invalid. Every node starts on the uniform profile params
// imply; SetProfile retunes individual nodes.
func NewPOD(loads LoadReader, params Params) *Hashed {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	return &Hashed{
		nodeSet:  newNodeSet(loads, params.Profile()),
		name:     "POD",
		seeds:    []uint64{HashSeed(0, 0, 0, 0, 0, 0, 0, 0), HashSeed(1, 0, 0, 0, 0, 0, 0, 0)},
		loadTest: true,
	}
}

// Name implements Strategy.
func (s *Hashed) Name() string { return s.name }

// Select implements Strategy.
func (s *Hashed) Select(_ time.Duration, r Request) int {
	alive := s.aliveCount()
	if alive == 0 {
		return -1
	}
	best, bestRel := -1, 0.0
	for _, seed := range s.seeds {
		n := s.kthAlive(int(HashTarget(seed, r.Target) % uint64(alive)))
		if !s.loadTest {
			return n
		}
		if s.loads.Load(n) >= 2*s.profiles[n].THigh {
			continue // panicked candidate
		}
		if rel := s.load(n, relativeLoad); best == -1 || rel < bestRel {
			best, bestRel = n, rel
		}
	}
	if best >= 0 {
		return best
	}
	// Every candidate is panicked: sacrifice locality to shed the
	// overload.
	s.spills++
	return s.leastLoaded(relativeLoad)
}

// Choices returns the number of hash candidates per target.
func (s *Hashed) Choices() int { return len(s.seeds) }

// Spills returns how many requests found every candidate panicked and
// fell back to the global least relative-loaded pick.
func (s *Hashed) Spills() uint64 { return s.spills }
