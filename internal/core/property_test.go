package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// driveRandomly pushes a strategy through a randomized closed-loop-like
// load pattern, interleaved with failures, recoveries, drains, removals
// and additions, and verifies universal invariants:
//
//   - Select returns a node in [0, n) or -1,
//   - Select never returns a down, draining or removed node,
//   - with at least one eligible node, Select never returns -1,
//   - Eligible agrees with the flags driven so far.
func driveRandomly(s Strategy, loads *fakeLoads, seed int64, steps int) error {
	const maxNodes = 12
	rng := rand.New(rand.NewSource(seed))
	n := len(loads.loads)
	down, draining, removed := make([]bool, n), make([]bool, n), make([]bool, n)
	eligible := func(node int) bool { return !down[node] && !draining[node] && !removed[node] }
	eligibleCount := func() int {
		c := 0
		for j := range down {
			if eligible(j) {
				c++
			}
		}
		return c
	}
	// mayRetire keeps at least one node eligible, except now and then,
	// so the total outage is driven too.
	mayRetire := func(node int) bool {
		return !eligible(node) || eligibleCount() > 1 || rng.Intn(4) == 0
	}
	for i := 0; i < steps; i++ {
		node := rng.Intn(n)
		switch rng.Intn(16) {
		case 0, 1: // random load perturbation
			loads.loads[node] = rng.Intn(200)
		case 2: // fail or restore a node
			if down[node] {
				s.NodeUp(node)
				down[node] = false
			} else if mayRetire(node) {
				s.NodeDown(node)
				down[node] = true
			}
		case 3: // start or end a drain
			if draining[node] {
				s.SetDraining(node, false)
				draining[node] = false
			} else if mayRetire(node) {
				s.SetDraining(node, true)
				draining[node] = true
			}
		case 4: // retire a node for good
			if !removed[node] && mayRetire(node) {
				s.RemoveNode(node)
				removed[node] = true
			}
		case 5: // grow the cluster
			if n < maxNodes {
				loads.loads = append(loads.loads, 0)
				if got := s.AddNode(); got != n {
					return fmt.Errorf("step %d: AddNode = %d, want %d", i, got, n)
				}
				down, draining, removed = append(down, false), append(draining, false), append(removed, false)
				n++
			}
		}
		for j := 0; j < n; j++ {
			if s.Eligible(j) != eligible(j) {
				return fmt.Errorf("step %d: Eligible(%d) = %v, want %v (down %v, draining %v, removed %v)",
					i, j, s.Eligible(j), eligible(j), down[j], draining[j], removed[j])
			}
		}
		target := fmt.Sprintf("/t%d", rng.Intn(50))
		got := s.Select(time.Duration(i)*time.Second, Request{Target: target})
		if got < -1 || got >= n {
			return fmt.Errorf("step %d: Select returned %d with %d nodes", i, got, n)
		}
		if got >= 0 && !eligible(got) {
			return fmt.Errorf("step %d: Select returned node %d (down %v, draining %v, removed %v)",
				i, got, down[got], draining[got], removed[got])
		}
		if c := eligibleCount(); got == -1 && c > 0 {
			return fmt.Errorf("step %d: Select returned -1 with %d eligible nodes", i, c)
		}
		if got >= 0 {
			loads.loads[got]++
		}
		// Random completions keep loads bounded.
		if j := rng.Intn(n); loads.loads[j] > 0 {
			loads.loads[j]--
		}
	}
	return nil
}

func TestPropertyStrategiesNeverMisroute(t *testing.T) {
	build := map[string]func(*fakeLoads) Strategy{
		"WRR":   func(l *fakeLoads) Strategy { return NewWRR(l) },
		"LB":    func(l *fakeLoads) Strategy { return NewLB(l) },
		"LBGC":  func(l *fakeLoads) Strategy { return NewLBGC(l, 1<<20) },
		"LARD":  func(l *fakeLoads) Strategy { return NewLARD(l, DefaultParams()) },
		"LARDR": func(l *fakeLoads) Strategy { return NewLARDR(l, DefaultParams()) },
		"WLARD": func(l *fakeLoads) Strategy { return NewWLARD(l, DefaultParams()) },
	}
	for name, mk := range build {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			f := func(seed int64, nodes uint8) bool {
				n := int(nodes)%8 + 2
				loads := &fakeLoads{loads: make([]int, n)}
				if err := driveRandomly(mk(loads), loads, seed, 400); err != nil {
					t.Log(err)
					return false
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// Property: under stable, balanced load LARD's assignment for a target
// never changes — locality is only sacrificed on real imbalance.
func TestPropertyLARDStableUnderBalance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		loads := &fakeLoads{loads: make([]int, 4)}
		s := NewLARD(loads, DefaultParams())
		assigned := map[string]int{}
		for i := 0; i < 500; i++ {
			// Loads stay strictly between TLow and THigh: no trigger can
			// fire.
			for j := range loads.loads {
				loads.loads[j] = 30 + rng.Intn(30)
			}
			target := fmt.Sprintf("/t%d", rng.Intn(30))
			got := s.Select(0, Request{Target: target})
			if prev, ok := assigned[target]; ok && prev != got {
				return false
			}
			assigned[target] = got
		}
		return s.Moves() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: whenever LARD reassigns a target, the load difference between
// the old and new node is at least T_high − T_low (the paper's Section 2.4
// guarantee, which holds whenever the admission bound S is respected).
func TestPropertyLARDMoveGapBound(t *testing.T) {
	p := DefaultParams()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 4
		loads := &fakeLoads{loads: make([]int, n)}
		s := NewLARD(loads, p)
		s.Select(0, Request{Target: "/x"}) // initial assignment
		for i := 0; i < 300; i++ {
			// Draw loads that respect the S bound.
			budget := p.MaxOutstanding(n)
			for j := range loads.loads {
				v := rng.Intn(p.THigh * 2)
				if v > budget {
					v = budget
				}
				loads.loads[j] = v
				budget -= v
			}
			before, ok := s.Assignment("/x")
			if !ok {
				return false
			}
			after := s.Select(0, Request{Target: "/x"})
			if after != before {
				gap := loads.loads[before] - loads.loads[after]
				if gap < p.THigh-p.TLow {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: LARD/R server sets never contain duplicates or dead nodes,
// and never exceed the cluster size.
func TestPropertyLARDRSetWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 5
		loads := &fakeLoads{loads: make([]int, n)}
		s := NewLARDR(loads, DefaultParams())
		for i := 0; i < 400; i++ {
			for j := range loads.loads {
				loads.loads[j] = rng.Intn(200)
			}
			target := fmt.Sprintf("/t%d", rng.Intn(5))
			s.Select(time.Duration(i)*time.Second, Request{Target: target})
			set := s.ServerSet(target)
			if len(set) > n {
				return false
			}
			seen := map[int]bool{}
			for _, node := range set {
				if node < 0 || node >= n || seen[node] {
					return false
				}
				seen[node] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
