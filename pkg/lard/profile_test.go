package lard

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lard/internal/core"
)

// TestWithProfilesFillAndBudget: a partial profile is filled from the
// fleet Params scaled by weight, and the admission budget is the
// generalized bound over the resolved profiles, enforced exactly.
func TestWithProfilesFillAndBudget(t *testing.T) {
	p := smallParams() // TLow 2, THigh 5
	d := MustNew("lard", WithNodes(3), WithParams(p),
		WithProfiles(core.Profile{}, core.Profile{}, core.Profile{Weight: 0.5}))

	profiles := d.Profiles()
	want := core.Profile{TLow: 1, THigh: 3, Weight: 0.5}
	if profiles[2] != want {
		t.Fatalf("Profiles()[2] = %+v, want %+v", profiles[2], want)
	}
	if profiles[0] != p.Profile() {
		t.Fatalf("Profiles()[0] = %+v, want fleet default %+v", profiles[0], p.Profile())
	}

	// S = (5+5+3) − 5 + 1 + 1 = 10, not the uniform 13.
	s := core.MaxOutstandingOver(profiles)
	if s != 10 {
		t.Fatalf("generalized bound = %d, want 10", s)
	}
	assertBudget(t, d, s)

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
			t.Fatalf("admitted %d connections, bound never enforced", i)
		}
	}
	if len(dones) != s {
		t.Fatalf("admitted %d connections, want exactly S=%d", len(dones), s)
	}
	for _, done := range dones {
		done()
	}
}

// TestSetProfileRecomputesBudget: retuning one node's weight at runtime
// moves every shard's admission budget, for both dispatcher variants.
func TestSetProfileRecomputesBudget(t *testing.T) {
	p := smallParams()
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d := MustNew("lard", WithNodes(3), WithShards(shards), WithParams(p))
			assertBudget(t, d, p.MaxOutstanding(3)) // uniform 13

			if err := d.SetProfile(2, Profile{Weight: 0.5}); err != nil {
				t.Fatal(err)
			}
			if got := d.Profiles()[2]; got != (Profile{TLow: 1, THigh: 3, Weight: 0.5}) {
				t.Fatalf("Profiles()[2] after SetProfile = %+v", got)
			}
			assertBudget(t, d, 10)

			// Back to the default restores the uniform bound.
			if err := d.SetProfile(2, Profile{}); err != nil {
				t.Fatal(err)
			}
			assertBudget(t, d, p.MaxOutstanding(3))

			// A draining node's profile stays settable, but it leaves the
			// budget: draining excludes the node from the bound entirely.
			d.Drain(2)
			if err := d.SetProfile(2, Profile{Weight: 0.5}); err != nil {
				t.Fatal(err)
			}
			assertBudget(t, d, p.MaxOutstanding(2))
			d.Undrain(2)
			assertBudget(t, d, 10)

			// A down node still counts toward the budget (transient
			// failure, paper Section 2.6), with its own thresholds.
			d.SetNodeDown(2, true)
			assertBudget(t, d, 10)
			d.SetNodeDown(2, false)

			// Errors: unknown node, removed node, crossed explicit
			// thresholds.
			if err := d.SetProfile(7, Profile{Weight: 2}); err == nil {
				t.Fatal("SetProfile on unknown node accepted")
			}
			if err := d.SetProfile(2, Profile{TLow: 5, THigh: 3, Weight: 1}); err == nil {
				t.Fatal("SetProfile with crossed thresholds accepted")
			}
			d.RemoveNode(2)
			if err := d.SetProfile(2, Profile{Weight: 2}); err == nil {
				t.Fatal("SetProfile on removed node accepted")
			}
		})
	}
}

// TestProfileUniformReduction: explicitly passing every node the fleet
// default must be indistinguishable from passing no profiles at all.
func TestProfileUniformReduction(t *testing.T) {
	p := smallParams()
	for _, shards := range []int{1, 4} {
		plain := MustNew("lard", WithNodes(4), WithShards(shards), WithParams(p))
		uniform := MustNew("lard", WithNodes(4), WithShards(shards), WithParams(p),
			WithProfiles(p.Profile(), p.Profile(), p.Profile(), p.Profile()))
		assertBudget(t, plain, p.MaxOutstanding(4))
		assertBudget(t, uniform, p.MaxOutstanding(4))
		for i, prof := range uniform.Profiles() {
			if prof != plain.Profiles()[i] {
				t.Fatalf("shards=%d node %d: uniform %+v != plain %+v",
					shards, i, prof, plain.Profiles()[i])
			}
		}
	}
}

// stickyPerReq is a test policy that never reconsiders its node but
// claims a slot per request — so every stay goes through claimNode and
// meets the per-node claim ceiling (Pin would hold one claim across
// requests and never re-claim).
type stickyPerReq struct{}

func (stickyPerReq) Name() string                                { return "test-sticky" }
func (stickyPerReq) HoldBetweenRequests() bool                   { return false }
func (stickyPerReq) Reconsider(time.Duration, int, Request) bool { return false }
func (stickyPerReq) Accept(time.Duration, int, int, Request) bool {
	return true
}
func (stickyPerReq) Observe(time.Duration, int, Request) {}

// TestSessionCapRedispatch: a sticky session may not ride its node past
// the per-node claim ceiling (2× the node's T_high) — the stay-claim is
// refused and the session falls through to the strategy, which lands it
// on the node with headroom.
func TestSessionCapRedispatch(t *testing.T) {
	p := smallParams() // THigh 5 → cap 10
	d := MustNew("wrr", WithNodes(2), WithParams(p), WithMaxOutstanding(-1))

	sess := d.NewSession(stickyPerReq{})
	home, _, done0, err := sess.Dispatch(0, Request{Target: "/home"})
	if err != nil {
		t.Fatal(err)
	}
	done0()
	other := 1 - home

	// Pile one-shot connections onto the session's node until it sits at
	// its cap. The strategy dispatch path deliberately has no cap check —
	// with the other node down, WRR has nowhere else to send them.
	d.SetNodeDown(other, true)
	var dones []func()
	for d.Loads()[home] < 2*p.THigh {
		_, done, err := d.Dispatch(0, Request{Target: "/fill"})
		if err != nil {
			t.Fatal(err)
		}
		dones = append(dones, done)
	}
	d.SetNodeDown(other, false)

	// The session's next stay-claim on home must be refused at the cap
	// and fall through to the strategy, which lands it on the idle node.
	node, moved, done, err := sess.Dispatch(0, Request{Target: "/home"})
	if err != nil {
		t.Fatal(err)
	}
	if node != other || !moved {
		t.Fatalf("session stayed on capped node: node=%d moved=%v (home=%d at load %d, cap %d)",
			node, moved, home, d.Loads()[home], 2*p.THigh)
	}
	done()
	for _, dn := range dones {
		dn()
	}
	sess.Close()
}

// TestRedispatchSkipsCappedNode: the Redispatch fallback (claimFallback)
// never lands a moving session on a node at its claim ceiling.
func TestRedispatchSkipsCappedNode(t *testing.T) {
	p := smallParams()
	d := MustNew("wrr", WithNodes(2), WithParams(p), WithMaxOutstanding(-1))

	// Fill node 1 to its cap.
	d.SetNodeDown(0, true)
	var dones []func()
	for d.Loads()[1] < 2*p.THigh {
		_, done, err := d.Dispatch(0, Request{Target: "/fill"})
		if err != nil {
			t.Fatal(err)
		}
		dones = append(dones, done)
	}
	d.SetNodeDown(0, false)

	sess := d.NewSession(Pin())
	node, _, done0, err := sess.Dispatch(0, Request{Target: "/s"})
	if err != nil {
		t.Fatal(err)
	}
	if node != 0 {
		t.Fatalf("session landed on %d, want the idle node 0", node)
	}
	done0()

	// Excluding node 0 leaves only the capped node 1, which the fallback
	// must skip: the session keeps its affinity instead of overloading it.
	if _, _, err := sess.Redispatch(0, Request{Target: "/s"}, []int{0}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Redispatch onto capped node: err = %v, want ErrUnavailable", err)
	}

	// One released slot restores headroom and the same Redispatch lands.
	dones[0]()
	node, done, err := sess.Redispatch(0, Request{Target: "/s"}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if node != 1 {
		t.Fatalf("Redispatch = %d, want 1", node)
	}
	done()
	for _, dn := range dones[1:] {
		dn()
	}
	sess.Close()
}

// TestProfileChurnPropertySequential is the satellite property test: a
// long seeded sequence of profile retunes interleaved with membership
// churn and dispatches, asserting after every operation that each shard's
// admission budget equals the generalized bound over the profiles of
// member, non-draining nodes — and that the uniform special case never
// diverges from Params.MaxOutstanding.
func TestProfileChurnPropertySequential(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"locked", 1},
		{"sharded", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(99))
			p := Params{TLow: 2, THigh: 5, K: time.Millisecond}
			d := MustNew("lard", WithNodes(3), WithShards(tc.shards), WithParams(p))

			expectedBudget := func() int {
				states := d.NodeStates()
				profiles := d.Profiles()
				var eligible []core.Profile
				uniform := true
				for i, st := range states {
					if st.Member && !st.Draining {
						eligible = append(eligible, profiles[i])
						if profiles[i] != p.Profile() {
							uniform = false
						}
					}
				}
				s := core.MaxOutstandingOver(eligible)
				if uniform && s != p.MaxOutstanding(len(eligible)) {
					t.Fatalf("uniform fleet of %d: generalized %d != paper %d",
						len(eligible), s, p.MaxOutstanding(len(eligible)))
				}
				return s
			}

			members := func() []int {
				var out []int
				for i, st := range d.NodeStates() {
					if st.Member {
						out = append(out, i)
					}
				}
				return out
			}

			var dones []func()
			for step := 0; step < 4000; step++ {
				switch op := rng.Intn(16); {
				case op == 0:
					d.AddNode()
				case op == 1:
					if m := members(); len(m) > 1 {
						d.RemoveNode(m[rng.Intn(len(m))])
					}
				case op == 2:
					d.Drain(rng.Intn(d.NodeCount()))
				case op == 3:
					d.Undrain(rng.Intn(d.NodeCount()))
				case op == 4:
					d.SetNodeDown(rng.Intn(d.NodeCount()), rng.Intn(2) == 0)
				case op <= 7: // retune a random node's weight
					n := rng.Intn(d.NodeCount())
					w := 0.5 + rng.Float64()*1.5
					if rng.Intn(4) == 0 {
						w = 1 // exercise the uniform special case too
					}
					err := d.SetProfile(n, Profile{Weight: w})
					if member := d.NodeStates()[n].Member; member == (err != nil) {
						t.Fatalf("step %d: SetProfile(%d) member=%v err=%v",
							step, n, member, err)
					}
				case op <= 10 && len(dones) > 0:
					i := rng.Intn(len(dones))
					dones[i]()
					dones = append(dones[:i], dones[i+1:]...)
				default:
					_, done, err := d.Dispatch(time.Duration(step)*time.Millisecond,
						Request{Target: fmt.Sprintf("/t%d", rng.Intn(40))})
					if err == nil {
						dones = append(dones, done)
					} else if errors.Is(err, ErrOverloaded) && len(dones) > 0 {
						dones[0]()
						dones = dones[1:]
					}
				}

				assertBudget(t, d, expectedBudget())
				for n, l := range d.Loads() {
					if l < 0 {
						t.Fatalf("step %d: node %d load %d < 0", step, n, l)
					}
				}
			}

			for _, done := range dones {
				done()
			}
			if got := d.InFlight(); got != 0 {
				t.Fatalf("InFlight = %d after drain-down", got)
			}
		})
	}
}

// TestProfileConcurrentStress runs profile retunes against concurrent
// dispatch and membership churn under the race detector.
func TestProfileConcurrentStress(t *testing.T) {
	const (
		startNodes = 3
		maxNodes   = 6
		goroutines = 4
		iters      = 150
	)
	p := Params{TLow: 2, THigh: 5, K: time.Millisecond}
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"locked", 1},
		{"sharded", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := MustNew("lard", WithNodes(startNodes), WithShards(tc.shards), WithParams(p))

			var wg sync.WaitGroup
			var stop atomic.Bool

			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(17))
				for i := 0; i < iters; i++ {
					switch rng.Intn(8) {
					case 0:
						if d.NodeCount() < maxNodes {
							d.AddNode()
						}
					case 1:
						d.RemoveNode(1 + rng.Intn(maxNodes-1))
					case 2:
						d.Drain(1 + rng.Intn(maxNodes-1))
					case 3:
						d.Undrain(1 + rng.Intn(maxNodes-1))
					case 4:
						d.SetNodeDown(1+rng.Intn(maxNodes-1), true)
					case 5:
						d.SetNodeDown(1+rng.Intn(maxNodes-1), false)
					default:
						// Retune any node, including the permanent member 0.
						_ = d.SetProfile(rng.Intn(maxNodes), Profile{Weight: 0.5 + rng.Float64()*1.5})
					}
					runtime.Gosched()
				}
				stop.Store(true)
			}()

			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					sess := d.NewSession(Pin())
					defer sess.Close()
					for i := 0; !stop.Load(); i++ {
						if i%2 == 0 {
							node, _, done, err := sess.Dispatch(0,
								Request{Target: fmt.Sprintf("/s%d", g)})
							if err != nil {
								runtime.Gosched()
								continue
							}
							if node < 0 || node >= maxNodes {
								t.Errorf("session node %d out of range", node)
								return
							}
							done()
						} else {
							node, done, err := d.Dispatch(0,
								Request{Target: fmt.Sprintf("/t%d", (g*31+i)%97)})
							if err != nil {
								runtime.Gosched()
								continue
							}
							if node < 0 || node >= maxNodes {
								t.Errorf("node %d out of range", node)
								return
							}
							done()
						}
					}
				}(g)
			}
			wg.Wait()

			if got := d.InFlight(); got != 0 {
				t.Fatalf("InFlight = %d after stress", got)
			}
			for n, l := range d.Loads() {
				if l != 0 {
					t.Fatalf("node %d load = %d after stress", n, l)
				}
			}
			// Every live profile must be valid and every cap coherent with
			// its profile.
			for n, prof := range d.Profiles() {
				if err := prof.Validate(); err != nil {
					t.Fatalf("node %d profile %+v invalid after stress: %v", n, prof, err)
				}
			}
		})
	}
}
