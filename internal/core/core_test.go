package core

import (
	"testing"
	"time"
)

// fakeLoads is a LoadReader backed by a mutable slice, for driving
// strategies through exact load scenarios.
type fakeLoads struct {
	loads []int
}

func (f *fakeLoads) NodeCount() int   { return len(f.loads) }
func (f *fakeLoads) Load(i int) int   { return f.loads[i] }
func (f *fakeLoads) set(loads ...int) { f.loads = loads }

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.TLow != 25 || p.THigh != 65 {
		t.Fatalf("defaults = %+v, want TLow 25, THigh 65", p)
	}
	if p.K != 20*time.Second {
		t.Fatalf("K = %v, want 20s", p.K)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParamsValidate(t *testing.T) {
	cases := []Params{
		{TLow: 0, THigh: 65, K: time.Second},
		{TLow: 25, THigh: 25, K: time.Second},
		{TLow: 25, THigh: 10, K: time.Second},
		{TLow: 25, THigh: 65, K: -time.Second},
		{TLow: 25, THigh: 65, K: time.Second, MappingCapacity: -1},
	}
	for i, p := range cases {
		if p.Validate() == nil {
			t.Fatalf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestMaxOutstanding(t *testing.T) {
	p := DefaultParams()
	// S = (n-1)*T_high + T_low + 1.
	cases := map[int]int{
		1:  26,  // 0*65 + 25 + 1
		2:  91,  // 65 + 26
		8:  481, // 7*65 + 26
		16: 1001,
	}
	for n, want := range cases {
		if got := p.MaxOutstanding(n); got != want {
			t.Fatalf("MaxOutstanding(%d) = %d, want %d", n, got, want)
		}
	}
	if got := p.MaxOutstanding(0); got != 0 {
		t.Fatalf("MaxOutstanding(0) = %d, want 0", got)
	}
}

// The paper's argument for S: with S connections admitted, at most n−1
// nodes can be at or above T_high while no node is below T_low.
func TestMaxOutstandingPaperProperty(t *testing.T) {
	p := DefaultParams()
	for n := 1; n <= 16; n++ {
		s := p.MaxOutstanding(n)
		// If all n nodes had load >= T_high, total >= n*T_high > S.
		if n*p.THigh <= s {
			t.Fatalf("n=%d: S=%d admits all nodes at T_high", n, s)
		}
		// All n nodes can simultaneously exceed T_low (be fully utilized).
		if n*(p.TLow+1) > s {
			t.Fatalf("n=%d: S=%d cannot keep all nodes above T_low", n, s)
		}
	}
}

func TestNodeSetLeastLoaded(t *testing.T) {
	loads := &fakeLoads{loads: []int{5, 2, 9, 2}}
	ns := newNodeSet(loads, DefaultProfile())
	// Strict minimum.
	if got := ns.leastLoaded(rawLoad); got != 1 {
		t.Fatalf("leastLoaded = %d, want 1", got)
	}
	// Tie between 1 and 3: rotation starts after the previous pick, so the
	// next call must find node 3 first.
	if got := ns.leastLoaded(rawLoad); got != 3 {
		t.Fatalf("leastLoaded tie-break = %d, want 3 (round-robin)", got)
	}
}

func TestNodeSetLeastLoadedSkipsDown(t *testing.T) {
	loads := &fakeLoads{loads: []int{1, 0, 5}}
	ns := newNodeSet(loads, DefaultProfile())
	ns.NodeDown(1)
	if got := ns.leastLoaded(rawLoad); got != 0 {
		t.Fatalf("leastLoaded = %d, want 0 (node 1 down)", got)
	}
	ns.NodeDown(0)
	ns.NodeDown(2)
	if got := ns.leastLoaded(rawLoad); got != -1 {
		t.Fatalf("leastLoaded with all down = %d, want -1", got)
	}
	ns.NodeUp(2)
	if got := ns.leastLoaded(rawLoad); got != 2 {
		t.Fatalf("leastLoaded after NodeUp = %d, want 2", got)
	}
}

func TestMappedAnyIdleRaw(t *testing.T) {
	loads := &fakeLoads{loads: []int{30, 40}}
	s := NewLARD(loads, DefaultParams())
	if s.anyIdle() {
		t.Fatal("anyIdle = true with loads 30, 40 and T_low 25")
	}
	// Raising node 0's own T_low above its load makes it idle.
	s.SetProfile(0, Profile{TLow: 31, THigh: 65, Weight: 1})
	if !s.anyIdle() {
		t.Fatal("anyIdle = false with load 30 under its T_low 31")
	}
	s.NodeDown(0)
	if s.anyIdle() {
		t.Fatal("down node counted by anyIdle")
	}
}

func TestNodeSetRelLoad(t *testing.T) {
	loads := &fakeLoads{loads: []int{40, 30, 20}}
	ns := newNodeSet(loads, DefaultProfile())
	ns.SetProfile(0, Profile{TLow: 25, THigh: 65, Weight: 4})
	// Relative loads: 10, 30, 20 — node 0 wins despite the highest raw load.
	if got := ns.leastLoaded(relativeLoad); got != 0 {
		t.Fatalf("leastLoaded(relative) = %d, want 0", got)
	}
	if got := ns.load(0, relativeLoad); got != 10 {
		t.Fatalf("load(0, relative) = %v, want 10", got)
	}
	// The relative idle test holds that 10 against the fleet T_low, not
	// node 0's own.
	for tlow, want := range map[int]bool{11: true, 10: false} {
		s := NewWLARD(loads, Params{TLow: tlow, THigh: 65})
		s.SetProfile(0, Profile{TLow: 25, THigh: 65, Weight: 4})
		if got := s.anyIdle(); got != want {
			t.Fatalf("anyIdle at fleet T_low %d = %v, want %v", tlow, got, want)
		}
	}
}

func TestNodeSetAliveNodes(t *testing.T) {
	ns := newNodeSet(&fakeLoads{loads: []int{0, 0, 0}}, DefaultProfile())
	ns.NodeDown(1)
	if ns.aliveCount() != 2 || ns.kthAlive(0) != 0 || ns.kthAlive(1) != 2 {
		t.Fatalf("alive nodes = %d: %d, %d", ns.aliveCount(), ns.kthAlive(0), ns.kthAlive(1))
	}
	// Out-of-range NodeDown is ignored.
	ns.NodeDown(-1)
	ns.NodeDown(99)
	if ns.aliveCount() != 2 {
		t.Fatal("out-of-range NodeDown changed the set")
	}
}

func TestNewNodeSetPanics(t *testing.T) {
	for _, f := range []func(){
		func() { newNodeSet(nil, DefaultProfile()) },
		func() { newNodeSet(&fakeLoads{}, DefaultProfile()) },
		func() { newNodeSet(&fakeLoads{loads: []int{0}}, Profile{TLow: 0, THigh: 65, Weight: 1}) },
		func() { newNodeSet(&fakeLoads{loads: []int{0}}, Profile{TLow: 25, THigh: 65, Weight: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		}()
	}
}
