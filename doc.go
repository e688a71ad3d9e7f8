// Package lard reproduces "Locality-Aware Request Distribution in
// Cluster-based Network Servers" (Pai, Aron, Banga, Svendsen, Druschel,
// Zwaenepoel, Nahum — ASPLOS VIII, 1998).
//
// The repository contains:
//
//   - pkg/lard — the public API: lard.New builds one of six strategies
//     by name into a concurrency-safe, optionally sharded Dispatcher that
//     owns load accounting and admission control. Every consumer below
//     dispatches through it.
//   - internal/core — the paper's contribution: the WRR, LB, LB/GC, LARD
//     and LARD/R request-distribution strategies (plus WLARD for mixed
//     fleets) as three Select skeletons and the LB/GC model behind
//     one Strategy interface; the pure, single-threaded policy layer
//     beneath the public Dispatcher.
//   - internal/sim, internal/cache, internal/trace, internal/cluster —
//     the trace-driven cluster simulator of Section 3 (event engine,
//     GDS/LRU caches, synthetic Rice/IBM/Chess workloads, cost model,
//     back-end nodes, GMS).
//   - internal/handoff, internal/frontend, internal/backend,
//     internal/loadgen — the live prototype of Sections 5 and 6 (handoff
//     protocol, dispatching front end, caching back end whose handler
//     takes each pooled transport over from net/http and answers its
//     sessions' requests from a loop of its own, load generator).
//   - internal/experiments — regeneration code for every figure and
//     table in the paper's evaluation.
//   - cmd/… — lardsim, lardfe, lardbe, loadgen, tracegen binaries.
//   - examples/… — runnable walk-throughs of the public pieces.
//
// The benchmark harness in bench_test.go regenerates each paper artifact
// at a reduced scale; `go run ./cmd/lardsim -experiment all -scale 1.0`
// performs full, paper-length runs. See README.md for a quickstart of the
// public API and DESIGN.md for the layering and its concurrency story.
package lard
