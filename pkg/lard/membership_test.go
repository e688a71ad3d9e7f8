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
)

// TestMembershipBasics walks one dispatcher of each variant through the
// add → drain → undrain → remove lifecycle and checks the admission bound
// S = (n−1)·T_high + T_low + 1 is recomputed at every step.
func TestMembershipBasics(t *testing.T) {
	p := Params{TLow: 2, THigh: 5, K: time.Second}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d := MustNew("lard", WithNodes(2), WithShards(shards), WithParams(p))

			if got := d.AddNode(); got != 2 {
				t.Fatalf("AddNode = %d, want 2", got)
			}
			if d.NodeCount() != 3 {
				t.Fatalf("NodeCount = %d after add", d.NodeCount())
			}
			assertBudget(t, d, p.MaxOutstanding(3))

			d.Drain(1)
			st := d.NodeStates()
			if !st[1].Draining || st[1].Eligible() {
				t.Fatalf("node 1 state after Drain: %+v", st[1])
			}
			assertBudget(t, d, p.MaxOutstanding(2))

			d.Undrain(1)
			if d.NodeStates()[1].Draining {
				t.Fatal("node 1 still draining after Undrain")
			}
			assertBudget(t, d, p.MaxOutstanding(3))

			d.RemoveNode(0)
			st = d.NodeStates()
			if st[0].Member || st[0].Eligible() {
				t.Fatalf("node 0 state after Remove: %+v", st[0])
			}
			if d.NodeCount() != 3 {
				t.Fatalf("NodeCount = %d, want 3 (indices are stable)", d.NodeCount())
			}
			assertBudget(t, d, p.MaxOutstanding(2))

			// Removal is permanent: neither undrain nor node-up revives it.
			d.Undrain(0)
			d.SetNodeDown(0, false)
			if d.NodeStates()[0].Member {
				t.Fatal("removed node 0 came back")
			}

			// Targets of the removed/draining nodes must land elsewhere.
			for i := 0; i < 50; i++ {
				node, done, err := d.Dispatch(0, Request{Target: fmt.Sprintf("/t%d", i)})
				if err != nil {
					t.Fatalf("dispatch %d: %v", i, err)
				}
				if node == 0 {
					t.Fatal("dispatch picked the removed node")
				}
				done()
			}
		})
	}
}

// assertBudget verifies every shard carries the expected admission budget.
func assertBudget(t *testing.T, d Dispatcher, want int) {
	t.Helper()
	// The budget is not directly observable, so reach into the concrete
	// type.
	for i, sh := range d.(*dispatcher).shards {
		sh.mu.Lock()
		got := sh.budget
		sh.mu.Unlock()
		if got != want {
			t.Fatalf("shard %d budget = %d, want %d", i, got, want)
		}
	}
}

// TestMembershipPropertySequential drives a long seeded-random sequence of
// Add/Remove/Drain/Undrain/NodeDown/NodeUp interleaved with dispatches
// against a shadow model and asserts the ISSUE's invariants exactly:
// Select never returns a removed, down, or draining node; per-node loads
// never go negative; and InFlight drains to zero once every done func has
// run.
func TestMembershipPropertySequential(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"locked", 1},
		{"sharded", 4},
	} {
		for _, strategy := range []string{"wrr", "lb", "lb/gc", "lard", "lard/r"} {
			t.Run(tc.name+"/"+strategy, func(t *testing.T) {
				rng := rand.New(rand.NewSource(4242))
				p := Params{TLow: 2, THigh: 4, K: time.Millisecond}
				d := MustNew(strategy, WithNodes(3), WithShards(tc.shards), WithParams(p))

				type shadow struct{ member, draining, down []bool }
				sh := shadow{
					member:   []bool{true, true, true},
					draining: make([]bool, 3),
					down:     make([]bool, 3),
				}
				eligible := func(n int) bool {
					return n >= 0 && n < len(sh.member) &&
						sh.member[n] && !sh.draining[n] && !sh.down[n]
				}
				anyEligible := func() bool {
					for i := range sh.member {
						if eligible(i) {
							return true
						}
					}
					return false
				}
				members := func() []int {
					var out []int
					for i, m := range sh.member {
						if m {
							out = append(out, i)
						}
					}
					return out
				}

				var dones []func()
				for step := 0; step < 6000; step++ {
					switch op := rng.Intn(20); {
					case op == 0: // add
						got := d.AddNode()
						if got != len(sh.member) {
							t.Fatalf("step %d: AddNode = %d, want %d", step, got, len(sh.member))
						}
						sh.member = append(sh.member, true)
						sh.draining = append(sh.draining, false)
						sh.down = append(sh.down, false)
					case op == 1: // remove a random member (keep at least one)
						if m := members(); len(m) > 1 {
							n := m[rng.Intn(len(m))]
							d.RemoveNode(n)
							sh.member[n] = false
						}
					case op == 2: // drain
						n := rng.Intn(len(sh.member))
						d.Drain(n)
						if sh.member[n] {
							sh.draining[n] = true
						}
					case op == 3: // undrain
						n := rng.Intn(len(sh.member))
						d.Undrain(n)
						if sh.member[n] {
							sh.draining[n] = false
						}
					case op == 4: // fail
						n := rng.Intn(len(sh.member))
						d.SetNodeDown(n, true)
						if sh.member[n] {
							sh.down[n] = true
						}
					case op == 5: // recover
						n := rng.Intn(len(sh.member))
						d.SetNodeDown(n, false)
						if sh.member[n] {
							sh.down[n] = false
						}
					case op < 9 && len(dones) > 0: // complete a request
						i := rng.Intn(len(dones))
						dones[i]()
						if rng.Intn(4) == 0 {
							dones[i]() // idempotency
						}
						dones = append(dones[:i], dones[i+1:]...)
					default: // dispatch
						target := fmt.Sprintf("/t%d", rng.Intn(50))
						node, done, err := d.Dispatch(time.Duration(step)*time.Millisecond,
							Request{Target: target})
						switch {
						case errors.Is(err, ErrOverloaded):
							// Admission full: drain one slot to keep moving.
							if len(dones) > 0 {
								dones[0]()
								dones = dones[1:]
							}
						case errors.Is(err, ErrUnavailable):
							if anyEligible() {
								t.Fatalf("step %d: ErrUnavailable with eligible nodes %v",
									step, sh)
							}
						case err != nil:
							t.Fatalf("step %d: %v", step, err)
						default:
							if !eligible(node) {
								t.Fatalf("step %d: dispatched to ineligible node %d (member=%v draining=%v down=%v)",
									step, node,
									sh.member[node], sh.draining[node], sh.down[node])
							}
							dones = append(dones, done)
						}
					}

					// Loads must never go negative, and the dispatcher's
					// node count must track the shadow's.
					for n, l := range d.Loads() {
						if l < 0 {
							t.Fatalf("step %d: node %d load %d < 0", step, n, l)
						}
					}
					if d.NodeCount() != len(sh.member) {
						t.Fatalf("step %d: NodeCount %d, shadow %d",
							step, d.NodeCount(), len(sh.member))
					}
				}

				for _, done := range dones {
					done()
				}
				if got := d.InFlight(); got != 0 {
					t.Fatalf("InFlight = %d after all done funcs ran", got)
				}
				for n, l := range d.Loads() {
					if l != 0 {
						t.Fatalf("node %d load = %d after drain-down", n, l)
					}
				}
			})
		}
	}
}

// TestMembershipConcurrentStress interleaves membership churn with
// dispatch from many goroutines under the race detector. The strict
// eligibility assertion is inherently racy across goroutines, so this
// test checks what survives concurrency: no panics, nodes in range,
// non-negative loads, budgets never exceeding the largest S the run can
// produce, and full accounting drain at the end.
func TestMembershipConcurrentStress(t *testing.T) {
	const (
		startNodes = 3
		maxNodes   = 8
		goroutines = 8
		iters      = 400
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
			d := MustNew("lard/r", WithNodes(startNodes), WithShards(tc.shards), WithParams(p))

			var wg sync.WaitGroup
			var stop atomic.Bool

			// Churn goroutine: every mutation the membership API offers,
			// over a node population capped at maxNodes. Node 0 is left a
			// permanent member so dispatch always has a possible target.
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(7))
				for i := 0; i < iters; i++ {
					switch rng.Intn(6) {
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
					}
					runtime.Gosched()
				}
				stop.Store(true)
			}()

			maxBudget := p.MaxOutstanding(maxNodes)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; !stop.Load(); i++ {
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
						if i%3 == 0 {
							runtime.Gosched()
						}
						done()
					}
				}(g)
			}
			wg.Wait()

			checkInvariants(t, d, maxBudget)
			if got := d.InFlight(); got != 0 {
				t.Fatalf("InFlight = %d after stress", got)
			}
			for n, l := range d.Loads() {
				if l != 0 {
					t.Fatalf("node %d load = %d after stress", n, l)
				}
			}
			// The states themselves must be coherent: removed nodes are
			// not draining or down.
			for n, st := range d.NodeStates() {
				if !st.Member && (st.Draining || st.Down) {
					t.Fatalf("node %d removed but flagged %+v", n, st)
				}
			}
		})
	}
}
