package core

import (
	"fmt"
	"slices"
	"testing"
	"time"
)

func TestLARDRFirstRequestAssignsSingleton(t *testing.T) {
	loads := &fakeLoads{loads: []int{5, 1}}
	s := NewLARDR(loads, testParams())
	if s.Name() != "LARD/R" {
		t.Fatalf("Name = %q", s.Name())
	}
	if got := s.Select(0, Request{Target: "/a"}); got != 1 {
		t.Fatalf("got %d, want least-loaded 1", got)
	}
	set := s.ServerSet("/a")
	if len(set) != 1 || set[0] != 1 {
		t.Fatalf("ServerSet = %v", set)
	}
}

func TestLARDRRoutesToLeastLoadedMember(t *testing.T) {
	loads := &fakeLoads{loads: []int{0, 0, 0}}
	s := NewLARDR(loads, testParams())
	n := s.Select(0, Request{Target: "/hot"})
	// Overload to force replication onto a second node.
	loads.loads[n] = 70
	p := s.Select(0, Request{Target: "/hot"})
	if p == n {
		t.Fatalf("no replication: still %d", n)
	}
	if len(s.ServerSet("/hot")) != 2 {
		t.Fatalf("ServerSet = %v", s.ServerSet("/hot"))
	}
	// Requests now go to the least loaded member of the set.
	loads.loads[p] = 30
	loads.loads[n] = 10
	if got := s.Select(time.Second, Request{Target: "/hot"}); got != n {
		t.Fatalf("got %d, want least-loaded member %d", got, n)
	}
}

func TestLARDRReplicationGrowsUnderHotLoad(t *testing.T) {
	loads := &fakeLoads{loads: make([]int, 4)}
	s := NewLARDR(loads, testParams())
	// Simulate a single hot target overwhelming each assigned node in
	// turn: every member of the server set is driven past 2×THigh.
	for i := 0; i < 4; i++ {
		n := s.Select(0, Request{Target: "/hot"})
		loads.loads[n] = 130 + i // ≥ 2*THigh forces growth
	}
	if got := len(s.ServerSet("/hot")); got != 4 {
		t.Fatalf("server set size = %d, want 4", got)
	}
	if s.Moves() != 3 {
		t.Fatalf("Moves = %d, want 3", s.Moves())
	}
	if s.MaxReplication() != 4 {
		t.Fatalf("MaxReplication = %d", s.MaxReplication())
	}
}

func TestLARDRNoDuplicateMembers(t *testing.T) {
	loads := &fakeLoads{loads: []int{130, 131}}
	s := NewLARDR(loads, testParams())
	s.Select(0, Request{Target: "/hot"})
	for i := 0; i < 5; i++ {
		s.Select(0, Request{Target: "/hot"})
	}
	set := s.ServerSet("/hot")
	seen := map[int]bool{}
	for _, n := range set {
		if seen[n] {
			t.Fatalf("duplicate member in %v", set)
		}
		seen[n] = true
	}
}

func TestLARDRShrinksAfterK(t *testing.T) {
	p := testParams()
	p.K = 20 * time.Second
	loads := &fakeLoads{loads: []int{0, 0}}
	s := NewLARDR(loads, p)
	n := s.Select(0, Request{Target: "/hot"})
	loads.loads[n] = 130
	s.Select(time.Second, Request{Target: "/hot"}) // replicate at t=1s
	loads.set(10, 10)
	if len(s.ServerSet("/hot")) != 2 {
		t.Fatal("setup: expected replication")
	}
	// Within K of the last modification: set unchanged.
	s.Select(20*time.Second, Request{Target: "/hot"})
	if len(s.ServerSet("/hot")) != 2 {
		t.Fatalf("set shrank before K elapsed: %v", s.ServerSet("/hot"))
	}
	// Beyond K since lastMod (t=1s): the most loaded member is removed.
	loads.set(10, 15)
	s.Select(22*time.Second, Request{Target: "/hot"})
	set := s.ServerSet("/hot")
	if len(set) != 1 {
		t.Fatalf("set did not shrink after K: %v", set)
	}
	if s.Shrinks() != 1 {
		t.Fatalf("Shrinks = %d", s.Shrinks())
	}
	// The removed member was the most loaded one.
	if loads.loads[set[0]] != 10 {
		t.Fatalf("kept the most loaded member: %v", set)
	}
}

func TestLARDRShrinkTimerResetsOnChange(t *testing.T) {
	p := testParams()
	p.K = 10 * time.Second
	loads := &fakeLoads{loads: []int{0, 0, 0}}
	s := NewLARDR(loads, p)
	n := s.Select(0, Request{Target: "/hot"})
	loads.loads[n] = 130
	s.Select(5*time.Second, Request{Target: "/hot"}) // grow at t=5s
	loads.set(10, 10, 10)
	// t=14s: only 9s since lastMod — no shrink.
	s.Select(14*time.Second, Request{Target: "/hot"})
	if len(s.ServerSet("/hot")) != 2 {
		t.Fatalf("set = %v, want size 2", s.ServerSet("/hot"))
	}
	// t=16s: 11s since lastMod — shrink.
	s.Select(16*time.Second, Request{Target: "/hot"})
	if len(s.ServerSet("/hot")) != 1 {
		t.Fatalf("set = %v, want size 1", s.ServerSet("/hot"))
	}
}

func TestLARDRSingletonNeverShrinks(t *testing.T) {
	loads := &fakeLoads{loads: []int{0, 0}}
	s := NewLARDR(loads, testParams())
	s.Select(0, Request{Target: "/a"})
	s.Select(time.Hour, Request{Target: "/a"})
	if len(s.ServerSet("/a")) != 1 {
		t.Fatalf("singleton set changed: %v", s.ServerSet("/a"))
	}
}

func TestLARDRGrowAndShrinkSameIteration(t *testing.T) {
	// Figure 3 allows both in one iteration: the set grows with p and
	// sheds its previously most-loaded member m when the K timer expired.
	p := testParams()
	p.K = time.Second
	loads := &fakeLoads{loads: []int{0, 0, 0}}
	s := NewLARDR(loads, p)
	n := s.Select(0, Request{Target: "/hot"}) // t=0, {n}
	loads.loads[n] = 130
	s.Select(time.Millisecond, Request{Target: "/hot"}) // grow: {n, p}
	set := s.ServerSet("/hot")
	if len(set) != 2 {
		t.Fatalf("setup: %v", set)
	}
	// Both members overloaded again long after K, with a distinct most
	// loaded member: grow + shrink happen in one iteration.
	other := set[0] + set[1] - n // the replica added above
	loads.loads[n] = 130         // least loaded member, still >= 2*THigh
	loads.loads[other] = 140     // most loaded member m: must be removed
	got := s.Select(time.Hour, Request{Target: "/hot"})
	newSet := s.ServerSet("/hot")
	if len(newSet) != 2 {
		t.Fatalf("set = %v, want 2 members (grew and shrank)", newSet)
	}
	if slices.Contains(newSet, other) {
		t.Fatalf("most loaded member %d not removed: %v", other, newSet)
	}
	if got != 2 {
		t.Fatalf("request routed to %d, want the fresh replica 2", got)
	}
}

func TestLARDRFailurePrunesSets(t *testing.T) {
	loads := &fakeLoads{loads: []int{0, 0}}
	s := NewLARDR(loads, testParams())
	n := s.Select(0, Request{Target: "/a"})
	s.NodeDown(n)
	got := s.Select(0, Request{Target: "/a"})
	if got == n || got == -1 {
		t.Fatalf("selected failed node %d (got %d)", n, got)
	}
	set := s.ServerSet("/a")
	if slices.Contains(set, n) {
		t.Fatalf("failed node still in set %v", set)
	}
	s.NodeUp(n)
}

func TestLARDRAllNodesDown(t *testing.T) {
	s := NewLARDR(&fakeLoads{loads: []int{0}}, testParams())
	s.NodeDown(0)
	if got := s.Select(0, Request{Target: "/a"}); got != -1 {
		t.Fatalf("Select = %d, want -1", got)
	}
}

func TestLARDRMappingCapacityBound(t *testing.T) {
	p := testParams()
	p.MappingCapacity = 5
	loads := &fakeLoads{loads: make([]int, 2)}
	s := NewLARDR(loads, p)
	for i := 0; i < 50; i++ {
		s.Select(0, Request{Target: fmt.Sprintf("/t%d", i)})
	}
	if s.MappedTargets() != 5 {
		t.Fatalf("MappedTargets = %d, want 5", s.MappedTargets())
	}
}

func TestLARDRInvalidParamsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewLARDR(&fakeLoads{loads: []int{0}}, Params{})
}

func TestLARDRServerSetUnknownTarget(t *testing.T) {
	s := NewLARDR(&fakeLoads{loads: []int{0}}, testParams())
	if got := s.ServerSet("/nope"); got != nil {
		t.Fatalf("ServerSet = %v, want nil", got)
	}
}
