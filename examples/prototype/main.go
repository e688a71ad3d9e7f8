// Prototype runs the paper's Section 6 experiment live: a real front end
// and real back-end HTTP servers on loopback TCP, connected by the handoff
// protocol, driven by a closed-loop load generator — then compares WRR and
// LARD/R, as in Figure 18.
//
// Back-end cache misses pay a scaled-down version of the paper's disk cost
// model, so the cache-aggregation effect is visible in wall-clock
// throughput on a laptop.
//
// Run with:
//
//	go run ./examples/prototype
package main

import (
	"context"
	"fmt"
	"log"
	"net"

	"lard/internal/backend"
	"lard/internal/frontend"
	"lard/internal/handoff"
	"lard/internal/loadgen"
	"lard/internal/trace"
)

const (
	backends      = 3
	nodeCacheSize = 1500 << 10 // 1.5 MB per node
	diskTimeScale = 1.0        // the paper's full 28 ms disk model
)

func main() {
	// A workload whose working set (≈6 MB) exceeds one node's cache but
	// fits the three back ends' aggregate.
	cfg := trace.SyntheticConfig{
		Name:         "proto",
		Targets:      800,
		Requests:     6000,
		DataSetBytes: 4 << 20,
		ZipfAlpha:    1.0,
		SizeSigma:    0.8,
		MinFileBytes: 512,
	}
	tr := trace.MustGenerate(cfg, 7)
	fmt.Printf("workload: %s\n\n", tr)

	for _, strategy := range []string{"wrr", "lard/r"} {
		tput, hit := runCluster(strategy, tr)
		fmt.Printf("%-7s %8.1f req/s   cluster cache hit ratio %5.1f%%\n",
			strategy, tput, hit*100)
	}
	fmt.Println("\nLARD/R partitions the working set over the back ends' caches;")
	fmt.Println("WRR makes every cache fight over the same full working set. The")
	fmt.Println("throughput gap understates the hit-ratio gap because loopback TCP")
	fmt.Println("setup dominates per-request latency on a development machine; the")
	fmt.Println("simulator (cmd/lardsim) isolates the effect the paper measures.")
}

// runCluster starts backends+frontend, drives the trace through them, and
// returns throughput and cluster-wide hit ratio.
func runCluster(strategy string, tr *trace.Trace) (float64, float64) {
	store := backend.NewDocStore(tr.Targets)
	var addrs []string
	var nodes []*backend.Server
	var cleanup []func()
	for i := 0; i < backends; i++ {
		be := backend.New(backend.Config{
			Store:         store,
			CacheBytes:    nodeCacheSize,
			DiskTimeScale: diskTimeScale,
		})
		ln, err := handoff.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		srv := be.HTTPServer()
		go srv.Serve(ln)
		cleanup = append(cleanup, func() { srv.Close(); ln.Close() })
		addrs = append(addrs, ln.Addr().String())
		nodes = append(nodes, be)
	}
	defer func() {
		for _, f := range cleanup {
			f()
		}
	}()

	fe, err := frontend.New(frontend.Config{Backends: addrs, Strategy: strategy})
	if err != nil {
		log.Fatal(err)
	}
	feLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go fe.Serve(feLn)
	defer fe.Close()

	st, err := loadgen.Run(context.Background(), loadgen.Config{
		BaseURL: "http://" + feLn.Addr().String(),
		Trace:   tr,
		Clients: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	if st.Errors > 0 {
		log.Fatalf("load generation errors: %d", st.Errors)
	}

	var hits, reqs uint64
	for _, n := range nodes {
		s := n.Stats()
		hits += s.Hits
		reqs += s.Requests
	}
	return st.Throughput, float64(hits) / float64(reqs)
}
