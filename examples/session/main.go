// Session demonstrates the session-granular dispatch API (pkg/lard):
// a Session owns one client connection's dispatch state, and its
// ConnPolicy — Pin, PerRequest, or CostAware — decides per request
// whether the connection stays on its current back end or pays a
// re-handoff to regain locality (the paper's Section 5 open question,
// made the dispatcher's decision).
//
// The demo replays the same persistent-connection workload under all
// three policies and prints the trade each one makes: how often the
// connection moved versus how often requests landed on the back end
// that owns their target (the locality a cache would exploit). It then
// shows the membership guarantee: a session whose node drains moves on
// its next request, whatever the policy.
//
// Run with:
//
//	go run ./examples/session
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"lard/pkg/lard"
)

const (
	nodes    = 4
	conns    = 64
	reqsPer  = 8
	catalog  = 48
	hotDocs  = 6 // a few documents draw much of the traffic
	hotShare = 2 // hot documents are drawn twice as three others combined
)

func main() {
	rng := rand.New(rand.NewSource(7))
	// One workload, replayed identically under each policy: conns
	// persistent connections of reqsPer requests each.
	workload := make([][]string, conns)
	for c := range workload {
		reqs := make([]string, reqsPer)
		for i := range reqs {
			if rng.Intn(hotShare+1) > 0 {
				reqs[i] = fmt.Sprintf("/hot%02d.html", rng.Intn(hotDocs))
			} else {
				reqs[i] = fmt.Sprintf("/doc%02d.html", rng.Intn(catalog))
			}
		}
		workload[c] = reqs
	}

	fmt.Println("policy      moves  on-owner  (re-handoffs paid vs requests served where their target lives)")
	for _, policy := range []lard.ConnPolicy{
		lard.Pin(),
		lard.PerRequest(),
		lard.CostAware(lard.CostAwareConfig{HotReplicate: 6}),
	} {
		moves, onOwner := replay(policy, workload)
		fmt.Printf("%-10s  %5d  %5d/%d\n", policy.Name(), moves, onOwner, conns*reqsPer)
	}

	// Membership: drain the node a pinned session sits on; the session
	// must move on its next request.
	d := lard.MustNew("lard", lard.WithNodes(nodes))
	s := d.NewSession(lard.Pin())
	defer s.Close()
	first, _, done, err := s.Dispatch(0, lard.Request{Target: "/pinned.html"})
	if err != nil {
		log.Fatal(err)
	}
	done()
	d.Drain(first)
	next, moved, done, err := s.Dispatch(time.Second, lard.Request{Target: "/pinned.html"})
	if err != nil {
		log.Fatal(err)
	}
	done()
	fmt.Printf("\ndrain: pinned session sat on node %d; after Drain(%d) the next request moved=%v to node %d\n",
		first, first, moved, next)
}

// replay runs the workload through fresh sessions under one policy and
// reports total re-handoffs and how many requests were served by the
// node the strategy maps their target to (the locality proxy).
func replay(policy lard.ConnPolicy, workload [][]string) (moves, onOwner int) {
	d := lard.MustNew("lard", lard.WithNodes(nodes))
	now := time.Duration(0)
	for _, reqs := range workload {
		s := d.NewSession(policy)
		for _, target := range reqs {
			now += 10 * time.Millisecond
			node, _, done, err := s.Dispatch(now, lard.Request{Target: target})
			if err != nil {
				log.Fatal(err)
			}
			if owner, ok := assignment(d, target); ok && owner == node {
				onOwner++
			}
			done()
		}
		moves += s.Moves()
		s.Close()
	}
	return moves, onOwner
}

// assignment reads the target's current LARD mapping.
func assignment(d lard.Dispatcher, target string) (node int, ok bool) {
	d.Inspect(func(_ int, st lard.Strategy, _ lard.LoadReader) {
		node, ok = st.(*lard.Mapped).Assignment(target)
	})
	return node, ok
}
