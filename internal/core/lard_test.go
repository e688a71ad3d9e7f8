package core

import (
	"fmt"
	"testing"
)

func testParams() Params {
	return Params{TLow: 25, THigh: 65, K: 20e9}
}

func TestLARDFirstRequestGoesToLeastLoaded(t *testing.T) {
	loads := &fakeLoads{loads: []int{9, 2, 5}}
	s := NewLARD(loads, testParams())
	if s.Name() != "LARD" {
		t.Fatalf("Name = %q", s.Name())
	}
	if got := s.Select(0, Request{Target: "/a"}); got != 1 {
		t.Fatalf("first assignment = %d, want least-loaded 1", got)
	}
	if s.Assignments() != 1 {
		t.Fatalf("Assignments = %d", s.Assignments())
	}
}

func TestLARDStickyAssignment(t *testing.T) {
	loads := &fakeLoads{loads: []int{0, 0}}
	s := NewLARD(loads, testParams())
	n := s.Select(0, Request{Target: "/a"})
	// Moderate load on the assigned node must not move the target.
	loads.loads[n] = 60 // below THigh
	for i := 0; i < 10; i++ {
		if got := s.Select(0, Request{Target: "/a"}); got != n {
			t.Fatalf("target moved at load 60 < THigh: %d -> %d", n, got)
		}
	}
	if s.Moves() != 0 {
		t.Fatalf("Moves = %d, want 0", s.Moves())
	}
}

func TestLARDMovesWhenOverloadedAndIdleExists(t *testing.T) {
	// Figure 2 first condition: n.load > T_high && exists load < T_low.
	loads := &fakeLoads{loads: []int{0, 0}}
	s := NewLARD(loads, testParams())
	n := s.Select(0, Request{Target: "/a"})
	other := 1 - n
	loads.loads[n] = 66    // > THigh
	loads.loads[other] = 5 // < TLow
	got := s.Select(0, Request{Target: "/a"})
	if got != other {
		t.Fatalf("target not moved to idle node: got %d", got)
	}
	if s.Moves() != 1 {
		t.Fatalf("Moves = %d, want 1", s.Moves())
	}
	// The mapping is updated: subsequent requests go to the new node.
	loads.loads[other] = 30
	if got := s.Select(0, Request{Target: "/a"}); got != other {
		t.Fatal("mapping not updated after move")
	}
}

func TestLARDNoMoveWithoutIdleNode(t *testing.T) {
	loads := &fakeLoads{loads: []int{0, 0}}
	s := NewLARD(loads, testParams())
	n := s.Select(0, Request{Target: "/a"})
	other := 1 - n
	loads.loads[n] = 80     // > THigh but < 2*THigh
	loads.loads[other] = 40 // not < TLow
	if got := s.Select(0, Request{Target: "/a"}); got != n {
		t.Fatalf("target moved without an idle node: %d -> %d", n, got)
	}
}

func TestLARDMovesAtTwiceTHigh(t *testing.T) {
	// Figure 2 second condition: n.load >= 2*T_high moves unconditionally.
	loads := &fakeLoads{loads: []int{0, 0}}
	s := NewLARD(loads, testParams())
	n := s.Select(0, Request{Target: "/a"})
	other := 1 - n
	loads.loads[n] = 130    // = 2*THigh
	loads.loads[other] = 60 // not idle, but less loaded
	if got := s.Select(0, Request{Target: "/a"}); got != other {
		t.Fatalf("target not moved at 2*THigh: got %d", got)
	}
}

func TestLARDNoSelfMove(t *testing.T) {
	// If the overloaded node is still the least loaded (single alive
	// node), the target stays and no move is counted.
	loads := &fakeLoads{loads: []int{200}}
	s := NewLARD(loads, testParams())
	if got := s.Select(0, Request{Target: "/a"}); got != 0 {
		t.Fatalf("got %d", got)
	}
	if got := s.Select(0, Request{Target: "/a"}); got != 0 {
		t.Fatalf("got %d", got)
	}
	if s.Moves() != 0 {
		t.Fatalf("Moves = %d, want 0", s.Moves())
	}
}

func TestLARDPartitionsTargets(t *testing.T) {
	// With load feedback, LARD spreads distinct targets over nodes
	// (locality partitioning), unlike WRR which would mix them all.
	loads := &fakeLoads{loads: make([]int, 4)}
	s := NewLARD(loads, testParams())
	assignment := map[string]int{}
	for i := 0; i < 64; i++ {
		target := fmt.Sprintf("/t%d", i)
		n := s.Select(0, Request{Target: target})
		assignment[target] = n
		loads.loads[n]++
	}
	counts := make([]int, 4)
	for _, n := range assignment {
		counts[n]++
	}
	for i, c := range counts {
		if c != 16 {
			t.Fatalf("node %d assigned %d targets, want 16 (%v)", i, c, counts)
		}
	}
	// Assignments are stable under balanced load.
	for target, n := range assignment {
		if got := s.Select(0, Request{Target: target}); got != n {
			t.Fatalf("target %s moved under balanced load", target)
		}
	}
}

func TestLARDFailureReassigns(t *testing.T) {
	loads := &fakeLoads{loads: []int{0, 10}}
	s := NewLARD(loads, testParams())
	n := s.Select(0, Request{Target: "/a"}) // node 0
	if n != 0 {
		t.Fatalf("setup: got %d", n)
	}
	s.NodeDown(0)
	got := s.Select(0, Request{Target: "/a"})
	if got != 1 {
		t.Fatalf("target not reassigned after failure: %d", got)
	}
	// Recovery does not move it back: the new assignment sticks.
	s.NodeUp(0)
	if got := s.Select(0, Request{Target: "/a"}); got != 1 {
		t.Fatalf("assignment flapped after recovery: %d", got)
	}
}

func TestLARDAllNodesDown(t *testing.T) {
	s := NewLARD(&fakeLoads{loads: []int{0}}, testParams())
	s.NodeDown(0)
	if got := s.Select(0, Request{Target: "/a"}); got != -1 {
		t.Fatalf("Select = %d, want -1", got)
	}
}

func TestLARDMappingCapacityBound(t *testing.T) {
	p := testParams()
	p.MappingCapacity = 10
	loads := &fakeLoads{loads: make([]int, 2)}
	s := NewLARD(loads, p)
	for i := 0; i < 100; i++ {
		s.Select(0, Request{Target: fmt.Sprintf("/t%d", i)})
	}
	if s.MappedTargets() != 10 {
		t.Fatalf("MappedTargets = %d, want 10", s.MappedTargets())
	}
	// A discarded target is simply re-assigned, not an error.
	if got := s.Select(0, Request{Target: "/t0"}); got < 0 {
		t.Fatalf("re-assignment after discard failed: %d", got)
	}
}

func TestLARDAssignmentAccessor(t *testing.T) {
	loads := &fakeLoads{loads: []int{0, 5}}
	s := NewLARD(loads, testParams())
	if _, ok := s.Assignment("/a"); ok {
		t.Fatal("Assignment reported unknown target")
	}
	n := s.Select(0, Request{Target: "/a"})
	if got, ok := s.Assignment("/a"); !ok || got != n {
		t.Fatalf("Assignment = (%d, %v), want (%d, true)", got, ok, n)
	}
}

// Reading a mapping for diagnostics must not count as a use of it: with
// room for two targets, looking at the older one between requests may not
// save it from being the next one discarded.
func TestDiagnosticsLeaveLRUOrderAlone(t *testing.T) {
	p := testParams()
	p.MappingCapacity = 2
	for _, s := range []*Mapped{
		NewLARD(&fakeLoads{loads: []int{0, 0}}, p),
		NewWLARD(&fakeLoads{loads: []int{0, 0}}, p),
		NewLARDR(&fakeLoads{loads: []int{0, 0}}, p),
	} {
		s.Select(0, Request{Target: "/old"})
		s.Select(0, Request{Target: "/new"})
		if _, ok := s.Assignment("/old"); !ok {
			t.Fatalf("%s: /old not mapped", s.Name())
		}
		if len(s.ServerSet("/old")) != 1 {
			t.Fatalf("%s: ServerSet(/old) = %v", s.Name(), s.ServerSet("/old"))
		}
		s.Select(0, Request{Target: "/third"})
		if _, ok := s.Assignment("/old"); ok {
			t.Fatalf("%s: a diagnostic read kept /old mapped", s.Name())
		}
		if _, ok := s.Assignment("/new"); !ok {
			t.Fatalf("%s: /new was discarded in /old's place", s.Name())
		}
	}
}

func TestLARDInvalidParamsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewLARD(&fakeLoads{loads: []int{0}}, Params{TLow: 10, THigh: 5})
}
