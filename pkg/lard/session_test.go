package lard

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// sessionTargets returns n distinct targets; with a sharded dispatcher
// they spread across shards, which is what the cross-shard accounting
// tests need.
func sessionTargets(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("/doc%03d.html", i)
	}
	return out
}

func TestSessionPinStaysAndHoldsOneSlot(t *testing.T) {
	d := MustNew("lard", WithNodes(4))
	s := d.NewSession(Pin())
	defer s.Close()

	targets := sessionTargets(12)
	first, moved, done, err := s.Dispatch(0, Request{Target: targets[0]})
	if err != nil || moved {
		t.Fatalf("first dispatch: node %d moved %v err %v", first, moved, err)
	}
	done()
	if got := d.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d after first request done, want 1 (pin holds the connection slot)", got)
	}
	for _, target := range targets[1:] {
		node, moved, done, err := s.Dispatch(0, Request{Target: target})
		if err != nil {
			t.Fatal(err)
		}
		if moved || node != first {
			t.Fatalf("pinned session moved: node %d (first %d)", node, first)
		}
		done()
	}
	if s.Moves() != 0 {
		t.Fatalf("Moves = %d, want 0", s.Moves())
	}
	if got := d.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d mid-session, want 1", got)
	}
	s.Close()
	if got := d.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after Close, want 0", got)
	}
	// LARD must have seen exactly one Select: every target after the first
	// would otherwise have a mapping.
	mapped := 0
	d.Inspect(func(_ int, st Strategy, _ LoadReader) {
		l := st.(*Mapped)
		for _, target := range targets {
			if _, ok := l.Assignment(target); ok {
				mapped++
			}
		}
	})
	if mapped != 1 {
		t.Fatalf("pinned session touched the strategy %d times, want 1", mapped)
	}
}

func TestSessionPerRequestMatchesOneShot(t *testing.T) {
	// A session under PerRequest must produce exactly the node sequence of
	// one-shot Dispatch against an identically configured dispatcher —
	// the "one-shot is sugar over a single-request session" equivalence.
	targets := sessionTargets(64)
	oneShot := MustNew("lard/r", WithNodes(4), WithShards(4))
	sessions := MustNew("lard/r", WithNodes(4), WithShards(4))
	s := sessions.NewSession(PerRequest())
	defer s.Close()

	for i, target := range targets {
		r := Request{Target: target}
		want, wdone, werr := oneShot.Dispatch(0, r)
		got, _, gdone, gerr := s.Dispatch(0, r)
		if (werr == nil) != (gerr == nil) || want != got {
			t.Fatalf("request %d: one-shot (%d, %v) vs session (%d, %v)", i, want, werr, got, gerr)
		}
		wdone()
		gdone()
	}
	if sessions.InFlight() != 0 {
		t.Fatalf("InFlight = %d after all dones", sessions.InFlight())
	}
}

func TestSessionPerRequestSlotFollowsShard(t *testing.T) {
	// Successive targets hash to different shards; each request's slot
	// must be claimed on its own shard and released by done, never
	// leaking a slot on the shard the session came from.
	d := MustNew("wrr", WithNodes(2), WithShards(8))
	s := d.NewSession(PerRequest())
	defer s.Close()
	for _, target := range sessionTargets(40) {
		_, _, done, err := s.Dispatch(0, Request{Target: target})
		if err != nil {
			t.Fatal(err)
		}
		if got := d.InFlight(); got != 1 {
			t.Fatalf("InFlight = %d with one request outstanding", got)
		}
		done()
		if got := d.InFlight(); got != 0 {
			t.Fatalf("InFlight = %d after done", got)
		}
	}
}

func TestSessionForceReleasesUncalledDone(t *testing.T) {
	// A caller that never invokes done must not leak slots: the next
	// Dispatch retires the previous claim.
	d := MustNew("wrr", WithNodes(2), WithShards(4))
	s := d.NewSession(PerRequest())
	defer s.Close()
	for _, target := range sessionTargets(10) {
		if _, _, _, err := s.Dispatch(0, Request{Target: target}); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.InFlight(); got != 1 {
		t.Fatalf("InFlight = %d, want 1 (only the last claim outstanding)", got)
	}
	s.Close()
	if got := d.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d after Close", got)
	}
}

func TestSessionDrainForcesMove(t *testing.T) {
	for _, policy := range []ConnPolicy{Pin(), PerRequest(), CostAware(CostAwareConfig{})} {
		d := MustNew("lard", WithNodes(3))
		s := d.NewSession(policy)
		target := "/pinned.html"
		first, _, done, err := s.Dispatch(0, Request{Target: target})
		if err != nil {
			t.Fatalf("%s: %v", policy.Name(), err)
		}
		done()
		d.Drain(first)
		node, moved, done, err := s.Dispatch(time.Second, Request{Target: target})
		if err != nil {
			t.Fatalf("%s: dispatch after drain: %v", policy.Name(), err)
		}
		if node == first || !moved {
			t.Fatalf("%s: session stayed on draining node %d (moved=%v)", policy.Name(), node, moved)
		}
		done()
		if s.Moves() != 1 {
			t.Fatalf("%s: Moves = %d, want 1", policy.Name(), s.Moves())
		}
		s.Close()
		if d.InFlight() != 0 {
			t.Fatalf("%s: InFlight = %d after Close", policy.Name(), d.InFlight())
		}
	}
}

func TestSessionRemoveAndFailForceMove(t *testing.T) {
	for _, breakNode := range []func(Dispatcher, int){
		func(d Dispatcher, n int) { d.RemoveNode(n) },
		func(d Dispatcher, n int) { d.SetNodeDown(n, true) },
	} {
		d := MustNew("lard", WithNodes(3))
		s := d.NewSession(Pin())
		first, _, done, err := s.Dispatch(0, Request{Target: "/a"})
		if err != nil {
			t.Fatal(err)
		}
		done()
		breakNode(d, first)
		node, moved, done, err := s.Dispatch(0, Request{Target: "/a"})
		if err != nil {
			t.Fatal(err)
		}
		if node == first || !moved {
			t.Fatalf("session stayed on dead node %d", node)
		}
		done()
		s.Close()
	}
}

func TestSessionClosed(t *testing.T) {
	d := MustNew("wrr", WithNodes(2))
	s := d.NewSession(nil) // nil defaults to PerRequest
	if s.Policy().Name() != "perreq" {
		t.Fatalf("nil policy resolved to %q", s.Policy().Name())
	}
	s.Close()
	s.Close() // idempotent
	if _, _, _, err := s.Dispatch(0, Request{Target: "/x"}); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("dispatch on closed session: %v", err)
	}
}

func TestSessionOverloadKeepsAffinity(t *testing.T) {
	d := MustNew("wrr", WithNodes(2), WithMaxOutstanding(2))
	s := d.NewSession(PerRequest())
	defer s.Close()
	_, _, done1, err := s.Dispatch(0, Request{Target: "/a"})
	if err != nil {
		t.Fatal(err)
	}
	cur := s.Node()
	// Fill the budget from another session.
	other := d.NewSession(PerRequest())
	defer other.Close()
	if _, _, _, err := other.Dispatch(0, Request{Target: "/b"}); err != nil {
		t.Fatal(err)
	}
	// This session's next request: its own slot is released first, the
	// budget has one free slot again, so the dispatch succeeds.
	node, _, done2, err := s.Dispatch(0, Request{Target: "/c"})
	if err != nil {
		t.Fatalf("re-dispatch at budget: %v", err)
	}
	done1() // idempotent with the force-release
	done2()
	_ = cur
	_ = node
	// Saturate fully: a third session must be rejected while this one
	// keeps working.
	third := d.NewSession(PerRequest())
	defer third.Close()
	if _, _, _, err := third.Dispatch(0, Request{Target: "/d"}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := other.Dispatch(0, Request{Target: "/e"}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s.Dispatch(0, Request{Target: "/f"}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("dispatch over budget: %v, want ErrOverloaded", err)
	}
	if s.Node() < 0 {
		t.Fatal("session lost its affinity on overload")
	}
}

func TestCostAwareDecisions(t *testing.T) {
	p := CostAware(CostAwareConfig{})
	// A warm target mapped elsewhere justifies the move: the avoided
	// miss dwarfs the switch cost.
	p.Observe(0, 1, Request{Target: "/warm"})
	if !p.Accept(time.Second, 0, 1, Request{Target: "/warm"}) {
		t.Fatal("cost-aware refused to move for a target warm at the strategy's node")
	}
	// A target recently served at the session's *current* node is a free
	// stay — the move would be pure cost.
	if p.Accept(time.Second, 1, 0, Request{Target: "/warm"}) {
		t.Fatal("cost-aware moved away from a node that just served the target")
	}
	// Cold targets move too: the strategy's placement keeps the cached
	// copy and the assignment together (serving in place would split
	// them and pay an echo miss on the next occurrence).
	if !p.Accept(0, 0, 1, Request{Target: "/cold"}) {
		t.Fatal("cost-aware refused to move for a never-seen target")
	}
	// Outside the warm window the serving history is presumed evicted:
	// the stale warm-here record must not hold the session back.
	if !p.Accept(time.Hour, 1, 0, Request{Target: "/warm"}) {
		t.Fatal("cost-aware trusted a warm-here record outside the window")
	}
	// Hysteresis 2: a cold target moves only when its avoided miss beats
	// twice the default switch cost, (300 + 145 + 145) µs × 2 = 1,180 µs.
	for _, c := range []struct {
		miss time.Duration
		move bool
	}{{1180 * time.Microsecond, false}, {1181 * time.Microsecond, true}} {
		ph := CostAware(CostAwareConfig{MissPenalty: c.miss})
		if got := ph.Accept(0, 0, 1, Request{Target: "/cold"}); got != c.move {
			t.Errorf("MissPenalty %v: moved = %v, want %v", c.miss, got, c.move)
		}
	}
	// The recency table is two generations of 32,768 targets (64 Ki
	// tracked): a target outlives the roll of its own generation and is
	// forgotten at the next one.
	pr := CostAware(CostAwareConfig{})
	pr.Observe(0, 1, Request{Target: "/kept"})
	others := 0
	observe := func(n int) {
		for ; n > 0; n-- {
			pr.Observe(0, 2, Request{Target: fmt.Sprintf("/other%d", others)})
			others++
		}
	}
	for _, step := range []struct {
		more   int
		forgot bool
	}{{32767, false}, {32767, false}, {1, true}} {
		observe(step.more)
		if got := pr.Accept(time.Second, 1, 0, Request{Target: "/kept"}); got != step.forgot {
			t.Fatalf("after %d other targets: moved = %v, want %v", others, got, step.forgot)
		}
	}
}

func TestCostAwareHotReplication(t *testing.T) {
	p := CostAware(CostAwareConfig{HotReplicate: 3})
	for i := 0; i < 3; i++ {
		p.Observe(time.Duration(i)*time.Second, 1, Request{Target: "/hot"})
	}
	// Hot enough: serve in place anywhere, replicating the entry.
	if p.Accept(3*time.Second, 0, 1, Request{Target: "/hot"}) {
		t.Fatal("cost-aware moved for a hot target instead of replicating")
	}
	// One observation per window is below the rate threshold.
	p2 := CostAware(CostAwareConfig{HotReplicate: 3, WarmWindow: time.Second})
	for i := 0; i < 5; i++ {
		p2.Observe(time.Duration(2*i)*time.Second, 1, Request{Target: "/tepid"})
	}
	if !p2.Accept(8*time.Second+time.Millisecond, 0, 1, Request{Target: "/tepid"}) {
		t.Fatal("cost-aware replicated a target below the per-window rate threshold")
	}
}

func TestCostAwareSessionEndToEnd(t *testing.T) {
	// LB hashes targets deterministically, so find two targets mapped to
	// different nodes and exercise the session-level stay/move paths.
	d := MustNew("lb", WithNodes(2))
	p := CostAware(CostAwareConfig{})

	var tHome, uHome = -1, -1
	var tgtT, tgtU string
	for i := 0; i < 64 && (tHome < 0 || uHome < 0 || tHome == uHome); i++ {
		probe := d.NewSession(PerRequest())
		tgt := fmt.Sprintf("/probe%d", i)
		n, _, done, err := probe.Dispatch(0, Request{Target: tgt})
		if err != nil {
			t.Fatal(err)
		}
		done()
		probe.Close()
		if tHome < 0 {
			tHome, tgtT = n, tgt
		} else if n != tHome {
			uHome, tgtU = n, tgt
		}
	}
	if tHome == uHome {
		t.Fatal("could not find targets on distinct nodes")
	}

	s := d.NewSession(p)
	defer s.Close()
	if _, _, done, err := s.Dispatch(0, Request{Target: tgtU}); err != nil {
		t.Fatal(err)
	} else {
		done()
	}
	if s.Node() != uHome {
		t.Fatalf("session started on %d, want %d", s.Node(), uHome)
	}
	// tgtT is warm at the session's current node (mark it served there):
	// the session must stay even though LB wants tHome.
	p.Observe(0, uHome, Request{Target: tgtT})
	n, moved, done, err := s.Dispatch(time.Second, Request{Target: tgtT})
	if err != nil {
		t.Fatal(err)
	}
	if moved || n != uHome {
		t.Fatalf("session moved to %d for a target warm at %d", n, uHome)
	}
	done()
	// A target warm only at its home pulls the session over: a real move.
	probe := d.NewSession(PerRequest())
	if _, _, done, err := probe.Dispatch(0, Request{Target: tgtT}); err == nil {
		done()
	}
	probe.Close()
	n, moved, done, err = s.Dispatch(2*time.Second, Request{Target: tgtT})
	if err != nil {
		t.Fatal(err)
	}
	_ = n
	_ = moved
	done()
	if d.InFlight() != 0 {
		t.Fatalf("InFlight = %d after done", d.InFlight())
	}
}

func TestNewConnPolicy(t *testing.T) {
	for _, name := range []string{"pin", "perreq", "costaware"} {
		p, err := NewConnPolicy(name)
		if err != nil || p.Name() != name {
			t.Fatalf("NewConnPolicy(%q) = %v, %v", name, p, err)
		}
	}
	const want = `lard: unknown connection policy "nope" (want pin, perreq, or costaware)`
	if _, err := NewConnPolicy("nope"); err == nil || err.Error() != want {
		t.Fatalf("unknown policy: err = %v, want %s", err, want)
	}
	if _, err := ResolveConnPolicyName("nope"); err == nil || err.Error() != want {
		t.Fatalf("unknown policy name: err = %v, want %s", err, want)
	}
}

func TestResolveConnPolicyName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want string
		err  bool
	}{
		{"", ConnPin, false},
		{ConnCostAware, ConnCostAware, false},
		{ConnPerRequest, ConnPerRequest, false},
		{"sticky", "", true}, // unknown name
	} {
		got, err := ResolveConnPolicyName(tc.name)
		if (err != nil) != tc.err || got != tc.want {
			t.Fatalf("ResolveConnPolicyName(%q) = %q, %v", tc.name, got, err)
		}
	}
}

func TestSessionRedispatchSkipsExcludedNodes(t *testing.T) {
	d := MustNew("lard", WithNodes(4))
	s := d.NewSession(PerRequest())
	defer s.Close()

	r := Request{Target: "/doc.html"}
	node, _, done, err := s.Dispatch(0, r)
	if err != nil {
		t.Fatal(err)
	}
	// The front end could not reach node: re-dispatch must land elsewhere
	// and move the slot accounting with the session.
	alt, done2, err := s.Redispatch(0, r, []int{node})
	if err != nil {
		t.Fatal(err)
	}
	if alt == node {
		t.Fatalf("Redispatch returned the excluded node %d", node)
	}
	if got := d.Loads()[node]; got != 0 {
		t.Fatalf("failed node still holds %d slots", got)
	}
	if got := d.Loads()[alt]; got != 1 {
		t.Fatalf("replacement node holds %d slots, want 1", got)
	}
	if s.Node() != alt {
		t.Fatalf("session affinity %d, want %d", s.Node(), alt)
	}
	if s.Moves() != 1 {
		t.Fatalf("Moves = %d, want 1", s.Moves())
	}
	done2()
	done() // the superseded done must stay harmless
	if got := d.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d, want 0", got)
	}

	// The strategy's mapping must be untouched: a transient dial failure
	// is not a Section 2.6 node failure.
	if n2, _, done3, err := s.Dispatch(0, r); err != nil {
		t.Fatal(err)
	} else {
		if n2 != node {
			t.Fatalf("mapping moved to %d after Redispatch, want still %d", n2, node)
		}
		done3()
	}
}

func TestSessionRedispatchPicksLeastLoaded(t *testing.T) {
	d := MustNew("wrr", WithNodes(3))
	// Load node 2 so the fallback must prefer the idle survivor.
	var dones []func()
	for i := 0; i < 5; i++ {
		done, err := claimOn(d, 2, "/x")
		if err != nil {
			t.Fatal(err)
		}
		dones = append(dones, done)
	}
	s := d.NewSession(PerRequest())
	defer s.Close()
	node, done, err := s.Redispatch(0, Request{Target: "/x"}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if node != 1 {
		t.Fatalf("fallback chose node %d, want least-loaded survivor 1", node)
	}
	done()
	for _, f := range dones {
		f()
	}
}

func TestSessionRedispatchNoAlternates(t *testing.T) {
	d := MustNew("lard", WithNodes(2))
	d.Drain(1)
	s := d.NewSession(PerRequest())
	defer s.Close()
	r := Request{Target: "/only.html"}
	node, _, done, err := s.Dispatch(0, r)
	if err != nil {
		t.Fatal(err)
	}
	done()
	if _, _, err := s.Redispatch(0, r, []int{node}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Redispatch with no alternates: %v, want ErrUnavailable", err)
	}
	// Affinity survives the failed re-dispatch, like an overloaded retry.
	if s.Node() != node {
		t.Fatalf("session lost affinity: %d, want %d", s.Node(), node)
	}
}

// claimOn pins load onto a specific node for fallback tests.
func claimOn(d Dispatcher, node int, target string) (func(), error) {
	type hoster interface{ shardFor(string) *lockedShard }
	return d.(hoster).shardFor(target).claimNode(node)
}
