package core

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestProfileValidate(t *testing.T) {
	if err := DefaultProfile().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Profile{
		{TLow: 0, THigh: 65, Weight: 1},
		{TLow: 25, THigh: 25, Weight: 1},
		{TLow: 25, THigh: 10, Weight: 1},
		{TLow: 25, THigh: 65, Weight: 0},
		{TLow: 25, THigh: 65, Weight: -1},
		{TLow: 25, THigh: 65, Weight: math.NaN()},
		{TLow: 25, THigh: 65, Weight: math.Inf(1)},
	}
	for i, p := range cases {
		if p.Validate() == nil {
			t.Fatalf("case %d: invalid profile accepted: %+v", i, p)
		}
	}
}

// Property (satellite 3): on a uniform fleet the generalized bound
// S = Σ T_high,i − max T_high,i + min T_low,i + 1 reduces exactly to the
// paper's S = (n−1)·T_high + T_low + 1 for random thresholds and sizes.
func TestMaxOutstandingOverUniformReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(32)
		p := Params{
			TLow:  1 + rng.Intn(100),
			THigh: 0,
			K:     time.Second,
		}
		p.THigh = p.TLow + 1 + rng.Intn(200)
		profiles := make([]Profile, n)
		for i := range profiles {
			profiles[i] = p.Profile()
		}
		got := MaxOutstandingOver(profiles)
		want := p.MaxOutstanding(n)
		if got != want {
			t.Fatalf("n=%d params=%+v: MaxOutstandingOver = %d, MaxOutstanding = %d",
				n, p, got, want)
		}
	}
}

func TestMaxOutstandingOverHeterogeneous(t *testing.T) {
	// 2 small (T_low 25, T_high 65) + 1 big (T_low 100, T_high 260):
	// S = (65+65+260) − 260 + 25 + 1 = 156.
	profiles := []Profile{
		{TLow: 25, THigh: 65, Weight: 1},
		{TLow: 25, THigh: 65, Weight: 1},
		{TLow: 100, THigh: 260, Weight: 4},
	}
	if got := MaxOutstandingOver(profiles); got != 156 {
		t.Fatalf("MaxOutstandingOver = %d, want 156", got)
	}
	if got := MaxOutstandingOver(nil); got != 0 {
		t.Fatalf("MaxOutstandingOver(nil) = %d, want 0", got)
	}
}

// The generalized bound preserves the paper's argument on a mixed fleet:
// S admits no state where every node is at or above its own T_high, yet
// still lets every node run above the fleet-minimum T_low (so hitting the
// admission bound never forces a node idle).
func TestMaxOutstandingOverPaperProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(16)
		profiles := make([]Profile, n)
		sumHigh, minLow := 0, 0
		for i := range profiles {
			low := 1 + rng.Intn(50)
			profiles[i] = Profile{TLow: low, THigh: low + 1 + rng.Intn(300), Weight: 1}
			sumHigh += profiles[i].THigh
			if i == 0 || low < minLow {
				minLow = low
			}
		}
		s := MaxOutstandingOver(profiles)
		if sumHigh <= s {
			t.Fatalf("trial %d: S=%d admits all nodes at their own T_high (sum %d)", trial, s, sumHigh)
		}
		// S ≥ n·(min T_low + 1): all nodes can sit above the fleet-min T_low.
		if n*(minLow+1) > s {
			t.Fatalf("trial %d: S=%d cannot keep all %d nodes above fleet-min T_low %d", trial, s, n, minLow)
		}
	}
}

// A weighted node trips WLARD's move condition only at weight-scaled
// thresholds: raw load 100 on a weight-4 node is relative load 25, well
// under T_high.
func TestWLARDWeightScaling(t *testing.T) {
	loads := &fakeLoads{loads: []int{100, 10}}
	params := DefaultParams() // TLow 25, THigh 65
	s := NewWLARD(loads, params)
	s.SetProfile(0, Profile{TLow: 100, THigh: 260, Weight: 4})

	// First request for "x": least relative-loaded is node 1 (10 < 25).
	if got := s.Select(0, Request{Target: "x"}); got != 1 {
		t.Fatalf("first assignment = %d, want 1", got)
	}
	// Pin "y" to node 0 while it is relatively idle.
	loads.set(0, 200)
	if got := s.Select(0, Request{Target: "y"}); got != 0 {
		t.Fatalf("assignment = %d, want 0", got)
	}
	// Raw 200 on weight 4 is relative 50 < T_high: no move even with an
	// idle node available.
	loads.set(200, 10)
	if got := s.Select(0, Request{Target: "y"}); got != 0 {
		t.Fatalf("weighted node moved at relative load 50: got %d", got)
	}
	if s.Moves() != 0 {
		t.Fatalf("moves = %d, want 0", s.Moves())
	}
	// Relative load 70 > T_high with node 1 under T_low: now it moves.
	loads.set(280, 10)
	if got := s.Select(0, Request{Target: "y"}); got != 1 {
		t.Fatalf("overloaded weighted node kept target: got %d", got)
	}
	if s.Moves() != 1 {
		t.Fatalf("moves = %d, want 1", s.Moves())
	}
}

func TestWRRWeightProportional(t *testing.T) {
	loads := &fakeLoads{loads: []int{40, 30}}
	s := NewWRR(loads)
	// Uniform weights: raw least-loaded wins.
	if got := s.Select(0, Request{}); got != 1 {
		t.Fatalf("uniform pick = %d, want 1", got)
	}
	// Weight 4 on node 0: relative 10 vs 30.
	s.SetProfile(0, Profile{TLow: 100, THigh: 260, Weight: 4})
	if got := s.Select(0, Request{}); got != 0 {
		t.Fatalf("weighted pick = %d, want 0", got)
	}
	if got := s.NodeProfile(0).Weight; got != 4 {
		t.Fatalf("NodeProfile(0).Weight = %v, want 4", got)
	}
}

// LARD with per-node profiles: a half-capacity node sheds a target at its
// own lower T_high, not the fleet default.
func TestLARDPerNodeThresholds(t *testing.T) {
	loads := &fakeLoads{loads: []int{0, 0}}
	params := DefaultParams() // TLow 25, THigh 65
	s := NewLARD(loads, params)
	s.SetProfile(0, Profile{TLow: 13, THigh: 33, Weight: 0.5})

	if got := s.Select(0, Request{Target: "x"}); got < 0 {
		t.Fatal("no pick")
	}
	// Pin "x" to node 0.
	loads.set(0, 100)
	if got := s.Select(0, Request{Target: "x"}); got != 0 {
		t.Fatalf("assignment = %d, want 0", got)
	}
	// Load 34 on the small node exceeds its own T_high 33; node 1 at 10
	// is below its T_low 25 → move. Under the fleet default (65) this
	// load would not trigger.
	loads.set(34, 10)
	if got := s.Select(0, Request{Target: "x"}); got != 1 {
		t.Fatalf("small node kept target at load 34 > its T_high 33: got %d", got)
	}
	if s.Moves() != 1 {
		t.Fatalf("moves = %d, want 1", s.Moves())
	}
}
