package lard

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"lard/internal/core"
)

// smallParams keeps admission budgets tiny so tests can saturate them.
func smallParams() Params {
	return Params{TLow: 2, THigh: 5, K: 20 * time.Second}
}

func TestDoneReleasesSlot(t *testing.T) {
	d := MustNew("wrr", WithNodes(2))
	node, done, err := d.Dispatch(0, Request{Target: "/a"})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Loads()[node]; got != 1 {
		t.Fatalf("load after dispatch = %d, want 1", got)
	}
	if d.InFlight() != 1 {
		t.Fatalf("InFlight = %d, want 1", d.InFlight())
	}
	done()
	if got := d.Loads()[node]; got != 0 {
		t.Fatalf("load after done = %d, want 0", got)
	}
	// done is idempotent: extra calls must not drive the load negative.
	done()
	done()
	if got := d.Loads()[node]; got != 0 {
		t.Fatalf("load after repeated done = %d, want 0", got)
	}
	if d.InFlight() != 0 {
		t.Fatalf("InFlight after done = %d, want 0", d.InFlight())
	}
}

func TestAdmissionBound(t *testing.T) {
	const nodes = 3
	p := smallParams()
	d := MustNew("wrr", WithNodes(nodes), WithParams(p))
	s := p.MaxOutstanding(nodes) // (3-1)*5 + 2 + 1 = 13

	var dones []func()
	for i := 0; ; i++ {
		_, done, err := d.Dispatch(0, Request{Target: fmt.Sprintf("/t%d", i)})
		if errors.Is(err, ErrOverloaded) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		dones = append(dones, done)
		if i > 10*s {
			t.Fatalf("admitted %d connections, bound S=%d never enforced", i, s)
		}
	}
	if len(dones) != s {
		t.Fatalf("admitted %d connections, want exactly S=%d", len(dones), s)
	}
	// Releasing one slot re-opens admission.
	dones[0]()
	if _, done, err := d.Dispatch(0, Request{Target: "/again"}); err != nil {
		t.Fatalf("dispatch after release: %v", err)
	} else {
		done()
	}
	for _, done := range dones[1:] {
		done()
	}
	if d.InFlight() != 0 {
		t.Fatalf("InFlight after draining = %d", d.InFlight())
	}
}

func TestMaxOutstandingOverrides(t *testing.T) {
	d := MustNew("wrr", WithNodes(2), WithMaxOutstanding(2))
	_, d1, _ := d.Dispatch(0, Request{Target: "/a"})
	_, d2, _ := d.Dispatch(0, Request{Target: "/b"})
	if _, _, err := d.Dispatch(0, Request{Target: "/c"}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	d1()
	d2()

	// Negative disables admission entirely.
	un := MustNew("wrr", WithNodes(1), WithParams(smallParams()), WithMaxOutstanding(-1))
	var dones []func()
	for i := 0; i < 100; i++ {
		_, done, err := un.Dispatch(0, Request{Target: "/x"})
		if err != nil {
			t.Fatalf("unlimited dispatch %d: %v", i, err)
		}
		dones = append(dones, done)
	}
	for _, done := range dones {
		done()
	}
}

func TestUnavailableWhenAllNodesDown(t *testing.T) {
	d := MustNew("lard", WithNodes(2))
	d.SetNodeDown(0, true)
	d.SetNodeDown(1, true)
	if _, _, err := d.Dispatch(0, Request{Target: "/x"}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	d.SetNodeDown(1, false)
	node, done, err := d.Dispatch(0, Request{Target: "/x"})
	if err != nil || node != 1 {
		t.Fatalf("after recovery: node=%d err=%v", node, err)
	}
	done()
}

func TestLockedPreservesLocality(t *testing.T) {
	// The paper's core property: repeated requests for one target stick to
	// one node while the cluster is unloaded.
	d := MustNew("lard/r", WithNodes(4))
	first, done, err := d.Dispatch(0, Request{Target: "/sticky"})
	if err != nil {
		t.Fatal(err)
	}
	done()
	for i := 0; i < 50; i++ {
		node, done, err := d.Dispatch(time.Duration(i)*time.Millisecond, Request{Target: "/sticky"})
		if err != nil {
			t.Fatal(err)
		}
		if node != first {
			t.Fatalf("request %d moved from node %d to %d with no load pressure", i, first, node)
		}
		done()
	}
}

func TestShardedPartitionsTargetSpace(t *testing.T) {
	const shards = 4
	d := MustNew("lard", WithNodes(4), WithShards(shards), WithParams(smallParams()))
	if d.Shards() != shards {
		t.Fatalf("Shards() = %d", d.Shards())
	}

	// Each target must always be handled by the same shard: dispatch many
	// targets, then check via Inspect that no target is mapped by more
	// than one shard's LARD instance.
	for round := 0; round < 3; round++ {
		for i := 0; i < 200; i++ {
			_, done, err := d.Dispatch(0, Request{Target: fmt.Sprintf("/t%d", i)})
			if err != nil {
				t.Fatal(err)
			}
			done()
		}
	}
	owners := make(map[string]int)
	d.Inspect(func(shard int, s core.Strategy, _ core.LoadReader) {
		l := s.(*core.Mapped)
		for i := 0; i < 200; i++ {
			target := fmt.Sprintf("/t%d", i)
			if _, ok := l.Assignment(target); ok {
				if prev, dup := owners[target]; dup {
					t.Errorf("target %s tracked by shards %d and %d", target, prev, shard)
				}
				owners[target] = shard
			}
		}
	})
	if len(owners) != 200 {
		t.Fatalf("only %d of 200 targets tracked", len(owners))
	}
	// The hash should actually spread targets over shards.
	used := make(map[int]bool)
	for _, s := range owners {
		used[s] = true
	}
	if len(used) != shards {
		t.Fatalf("targets landed on %d of %d shards", len(used), shards)
	}
}

func TestShardedStickyAndAccounted(t *testing.T) {
	d := MustNew("lard/r", WithNodes(4), WithShards(8))
	var dones []func()
	seen := make(map[string]int)
	for i := 0; i < 100; i++ {
		target := fmt.Sprintf("/t%d", i%10)
		node, done, err := d.Dispatch(0, Request{Target: target})
		if err != nil {
			t.Fatal(err)
		}
		dones = append(dones, done)
		if prev, ok := seen[target]; ok && prev != node {
			t.Fatalf("target %s moved from %d to %d under no pressure", target, prev, node)
		}
		seen[target] = node
	}
	if d.InFlight() != 100 {
		t.Fatalf("InFlight = %d, want 100", d.InFlight())
	}
	sum := 0
	for _, l := range d.Loads() {
		sum += l
	}
	if sum != 100 {
		t.Fatalf("Loads() sums to %d, want 100", sum)
	}
	for _, done := range dones {
		done()
	}
	if d.InFlight() != 0 {
		t.Fatalf("InFlight after drain = %d", d.InFlight())
	}
}

func TestShardedNodeDownFansOut(t *testing.T) {
	d := MustNew("wrr", WithNodes(2), WithShards(4))
	d.SetNodeDown(0, true)
	for i := 0; i < 40; i++ {
		node, done, err := d.Dispatch(0, Request{Target: fmt.Sprintf("/t%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if node != 1 {
			t.Fatalf("request %d routed to downed node %d", i, node)
		}
		done()
	}
}

func TestInspectSeesPerShardLoads(t *testing.T) {
	d := MustNew("wrr", WithNodes(2), WithShards(2))
	_, done, err := d.Dispatch(0, Request{Target: "/x"})
	if err != nil {
		t.Fatal(err)
	}
	total, shardsSeen := 0, 0
	d.Inspect(func(_ int, _ core.Strategy, loads core.LoadReader) {
		shardsSeen++
		for i := 0; i < loads.NodeCount(); i++ {
			total += loads.Load(i)
		}
	})
	if shardsSeen != 2 || total != 1 {
		t.Fatalf("Inspect saw %d shards, %d total load", shardsSeen, total)
	}
	done()
}
