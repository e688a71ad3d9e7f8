package lard_test

import (
	"fmt"
	"math/rand"
	"time"

	"lard/pkg/lard"
)

// ExampleNew walks through the dispatch API: build a concurrency-safe
// Dispatcher by strategy name, stream requests through it, and watch the
// paper's three mechanisms at work — locality (each target sticks to one
// back end), load balancing (connection slots stay spread), and admission
// control (at most S = (n−1)·T_high + T_low + 1 outstanding connections).
// The same Dispatcher drives the live front end (internal/frontend) and
// the cluster simulator (internal/cluster).
func ExampleNew() {
	const nodes = 4
	params := lard.Params{TLow: 2, THigh: 5, K: 20 * time.Second}
	d, err := lard.New("lard/r",
		lard.WithNodes(nodes),
		lard.WithParams(params),
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("dispatcher: strategy=%s nodes=%d shards=%d\n", d.Name(), d.NodeCount(), d.Shards())

	// The dispatcher's clock: every Dispatch receives a monotonically
	// advancing virtual (or wall-clock) time. LARD/R ages its replica
	// sets on the K interval measured by this clock, so a caller that
	// hard-codes now = 0 silently freezes the aging machinery.
	now := time.Duration(0)
	tick := func() time.Duration {
		now += 100 * time.Millisecond
		return now
	}

	// Locality: requests for the same document always land on the same
	// back end, so its cache keeps the document hot.
	assigned := make(map[string]int)
	for round := 0; round < 3; round++ {
		for i := 0; i < 12; i++ {
			target := fmt.Sprintf("/doc%02d.html", i)
			node, done, err := d.Dispatch(tick(), lard.Request{Target: target})
			if err != nil {
				panic(err)
			}
			done() // request complete: release the connection slot
			if prev, ok := assigned[target]; ok && prev != node {
				panic(fmt.Sprintf("%s moved from node %d to %d", target, prev, node))
			}
			assigned[target] = node
		}
	}
	perNode := make([]int, nodes)
	for _, n := range assigned {
		perNode[n]++
	}
	fmt.Printf("locality: 12 documents, 3 requests each; documents per node: %v\n", perNode)

	// Load accounting: holding done() open models an in-flight
	// connection; the dispatcher's load table drives balancing.
	var dones []func()
	for i := 0; i < 8; i++ {
		_, done, err := d.Dispatch(tick(), lard.Request{Target: fmt.Sprintf("/doc%02d.html", i)})
		if err != nil {
			panic(err)
		}
		dones = append(dones, done)
	}
	fmt.Printf("load: 8 held connections; per node %v, in flight %d\n", d.Loads(), d.InFlight())

	// Admission control: beyond S outstanding connections the dispatcher
	// rejects rather than overcommit the cluster.
	fmt.Printf("admission: S = (n-1)*T_high + T_low + 1 = %d\n", params.MaxOutstanding(nodes))
	admitted := len(dones)
	for i := 0; ; i++ {
		_, done, err := d.Dispatch(tick(), lard.Request{Target: fmt.Sprintf("/burst%d", i)})
		if err != nil {
			fmt.Printf("connection %d rejected: %v\n", admitted+1, err)
			break
		}
		dones = append(dones, done)
		admitted++
	}
	for _, done := range dones {
		done()
	}
	fmt.Printf("admitted %d, in flight after release %d\n", admitted, d.InFlight())
	// Output:
	// dispatcher: strategy=lard/r nodes=4 shards=1
	// locality: 12 documents, 3 requests each; documents per node: [3 3 3 3]
	// load: 8 held connections; per node [2 2 2 2], in flight 8
	// admission: S = (n-1)*T_high + T_low + 1 = 18
	// connection 19 rejected: lard: admission budget exhausted
	// admitted 18, in flight after release 0
}

// ExampleSession replays one persistent-connection workload under each
// connection policy. A Session owns one client connection's dispatch
// state, and its ConnPolicy decides per request whether the connection
// stays on its back end or pays a re-handoff to regain locality (the
// paper's Section 5 open question). The table prints the trade: moves
// paid against requests served by the node that owns their target (the
// locality a cache would exploit). Then a pinned session's node drains,
// and the session moves on its next request, whatever the policy.
func ExampleSession() {
	const (
		conns   = 64
		reqsPer = 8
	)
	rng := rand.New(rand.NewSource(7))
	workload := make([][]string, conns)
	for c := range workload {
		reqs := make([]string, reqsPer)
		for i := range reqs {
			// Six hot documents draw two thirds of the requests.
			if rng.Intn(3) > 0 {
				reqs[i] = fmt.Sprintf("/hot%02d.html", rng.Intn(6))
			} else {
				reqs[i] = fmt.Sprintf("/doc%02d.html", rng.Intn(48))
			}
		}
		workload[c] = reqs
	}

	fmt.Println("policy      moves  on-owner")
	for _, policy := range []lard.ConnPolicy{
		lard.Pin(),
		lard.PerRequest(),
		lard.CostAware(lard.CostAwareConfig{HotReplicate: 6}),
	} {
		moves, onOwner := replay(policy, workload)
		fmt.Printf("%-10s  %5d  %5d/%d\n", policy.Name(), moves, onOwner, conns*reqsPer)
	}

	d := lard.MustNew("lard", lard.WithNodes(4))
	s := d.NewSession(lard.Pin())
	defer s.Close()
	first, _, done, err := s.Dispatch(0, lard.Request{Target: "/pinned.html"})
	if err != nil {
		panic(err)
	}
	done()
	d.Drain(first)
	next, moved, done, err := s.Dispatch(time.Second, lard.Request{Target: "/pinned.html"})
	if err != nil {
		panic(err)
	}
	done()
	fmt.Printf("pinned on node %d; after Drain(%d) moved=%v to node %d\n", first, first, moved, next)
	// Output:
	// policy      moves  on-owner
	// pin             0    136/512
	// perreq        303    512/512
	// costaware     134    335/512
	// pinned on node 0; after Drain(0) moved=true to node 1
}

// replay runs the workload through fresh sessions under one policy and
// reports total re-handoffs and how many requests were served by the
// node the strategy maps their target to.
func replay(policy lard.ConnPolicy, workload [][]string) (moves, onOwner int) {
	d := lard.MustNew("lard", lard.WithNodes(4))
	now := time.Duration(0)
	for _, reqs := range workload {
		s := d.NewSession(policy)
		for _, target := range reqs {
			now += 10 * time.Millisecond
			node, _, done, err := s.Dispatch(now, lard.Request{Target: target})
			if err != nil {
				panic(err)
			}
			var owner int
			var ok bool
			d.Inspect(func(_ int, st lard.Strategy, _ lard.LoadReader) {
				owner, ok = st.(*lard.Mapped).Assignment(target)
			})
			if ok && owner == node {
				onOwner++
			}
			done()
		}
		moves += s.Moves()
		s.Close()
	}
	return moves, onOwner
}

// ExampleMapped_ServerSet shows LARD/R's replication (paper Sections 2.5
// and 4.2): a target hot enough to overload one back end is replicated
// across several, and the replica set shrinks again once the target cools
// off. Load is driven as a front end drives it, by holding each
// connection's done() open while its request is in flight.
func ExampleMapped_ServerSet() {
	params := lard.Params{TLow: 3, THigh: 8, K: 20 * time.Second}
	d := lard.MustNew("lard/r",
		lard.WithNodes(4),
		lard.WithParams(params),
		lard.WithMaxOutstanding(-1), // observe replication, not admission
	)
	serverSet := func() []int {
		var set []int
		d.Inspect(func(_ int, s lard.Strategy, _ lard.LoadReader) {
			set = s.(*lard.Mapped).ServerSet("/hot")
		})
		return set
	}

	// Every connection stays open, so the assigned node's load climbs
	// past 2·T_high and the server set grows (Figure 3's rule).
	var open []func()
	now := time.Duration(0)
	for i := 0; i < 4*2*params.THigh; i++ {
		node, done, err := d.Dispatch(now, lard.Request{Target: "/hot"})
		if err != nil {
			panic(err)
		}
		open = append(open, done)
		if i%12 == 0 {
			fmt.Printf("grow   t=%-6v conn %2d -> node %d  set=%v loads=%v\n", now, i+1, node, serverSet(), d.Loads())
		}
		now += 100 * time.Millisecond
	}

	// The connections drain; requests go to the least-loaded member of
	// the server set.
	for _, done := range open {
		done()
	}
	open = open[:0]
	for i := 0; i < 3; i++ {
		node, done, err := d.Dispatch(now, lard.Request{Target: "/hot"})
		if err != nil {
			panic(err)
		}
		fmt.Printf("spread t=%-6v request -> node %d  loads=%v\n", now, node, d.Loads())
		open = append(open, done)
		now += time.Second
	}
	for _, done := range open {
		done()
	}

	// The target cools off: after K without set changes, each request
	// removes the most-loaded replica until one remains.
	now += params.K + 5*time.Second
	for len(serverSet()) > 1 {
		if _, done, err := d.Dispatch(now, lard.Request{Target: "/hot"}); err == nil {
			done()
		}
		fmt.Printf("shrink t=%-7v set=%v\n", now, serverSet())
		now += params.K + 5*time.Second
	}
	d.Inspect(func(_ int, s lard.Strategy, _ lard.LoadReader) {
		r := s.(*lard.Mapped)
		fmt.Printf("%d grows, %d shrinks, max degree %d\n", r.Moves(), r.Shrinks(), r.MaxReplication())
	})
	// Output:
	// grow   t=0s     conn  1 -> node 0  set=[0] loads=[1 0 0 0]
	// grow   t=1.2s   conn 13 -> node 1  set=[0 1] loads=[9 4 0 0]
	// grow   t=2.4s   conn 25 -> node 2  set=[0 1 2] loads=[9 9 7 0]
	// grow   t=3.6s   conn 37 -> node 0  set=[0 1 2 3] loads=[10 9 9 9]
	// grow   t=4.8s   conn 49 -> node 0  set=[0 1 2 3] loads=[13 12 12 12]
	// grow   t=6s     conn 61 -> node 0  set=[0 1 2 3] loads=[16 15 15 15]
	// spread t=6.4s   request -> node 0  loads=[1 0 0 0]
	// spread t=7.4s   request -> node 1  loads=[1 1 0 0]
	// spread t=8.4s   request -> node 2  loads=[1 1 1 0]
	// shrink t=34.4s   set=[0 1 2]
	// shrink t=59.4s   set=[0 1]
	// shrink t=1m24.4s set=[0]
	// 3 grows, 3 shrinks, max degree 4
}
