// Hotspot demonstrates LARD/R's replication dynamics (paper Sections 2.5
// and 4.2) through the public dispatch API: a single target hot enough to
// overload one back end gets replicated across several, and the replica
// set shrinks again once the target cools off.
//
// The example drives load the way a real front end does — by holding each
// connection's done() open while the request is in flight — and reads the
// replica set back through Dispatcher.Inspect.
//
// Run with:
//
//	go run ./examples/hotspot
package main

import (
	"fmt"
	"log"
	"time"

	"lard/pkg/lard"
)

func main() {
	params := lard.Params{TLow: 3, THigh: 8, K: 20 * time.Second}
	d, err := lard.New("lard/r",
		lard.WithNodes(4),
		lard.WithParams(params),
		lard.WithMaxOutstanding(-1), // observe replication, not admission
	)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Phase 1: /hot becomes popular; every connection stays open, so the")
	fmt.Println("assigned node's load climbs past 2*T_high and the server set grows")
	fmt.Println("(Figure 3's replication rule).")
	var open []func()
	now := time.Duration(0)
	for i := 0; i < 4*2*params.THigh; i++ {
		node, done, err := d.Dispatch(now, lard.Request{Target: "/hot"})
		if err != nil {
			log.Fatal(err)
		}
		open = append(open, done)
		if i%12 == 0 {
			fmt.Printf("  t=%-6v conn %3d -> node %d   serverSet=%v loads=%v\n",
				now, i+1, node, serverSet(d), d.Loads())
		}
		now += 100 * time.Millisecond
	}

	fmt.Println("\nPhase 2: the connections drain; requests go to the least-loaded")
	fmt.Println("member of the server set.")
	for _, done := range open {
		done()
	}
	open = open[:0]
	for i := 0; i < 3; i++ {
		node, done, err := d.Dispatch(now, lard.Request{Target: "/hot"})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  t=%-6v request -> node %d (loads %v)\n", now, node, d.Loads())
		open = append(open, done)
		now += time.Second
	}
	for _, done := range open {
		done()
	}

	fmt.Println("\nPhase 3: the target cools off. After K = 20s without set changes,")
	fmt.Println("each request removes the most-loaded replica until one remains.")
	now += params.K + 5*time.Second
	for len(serverSet(d)) > 1 {
		if _, done, err := d.Dispatch(now, lard.Request{Target: "/hot"}); err == nil {
			done()
		}
		fmt.Printf("  t=%-7v serverSet=%v\n", now, serverSet(d))
		now += params.K + 5*time.Second
	}

	d.Inspect(func(_ int, s lard.Strategy, _ lard.LoadReader) {
		r := s.(*lard.Mapped)
		fmt.Printf("\nreplication events: %d grows, %d shrinks, max degree %d\n",
			r.Moves(), r.Shrinks(), r.MaxReplication())
	})
}

// serverSet reads /hot's replica set out of the dispatcher's LARD/R
// instance.
func serverSet(d lard.Dispatcher) []int {
	var set []int
	d.Inspect(func(_ int, s lard.Strategy, _ lard.LoadReader) {
		set = s.(*lard.Mapped).ServerSet("/hot")
	})
	return set
}
