//go:build ignore

// Benchgate is the allocation-regression gate: it compares B/op and
// allocs/op for the handoff and relay hot-path benchmarks between two
// bench.sh JSON reports and fails when the new numbers regress past
// tolerance.
//
//	go run scripts/benchgate.go BENCH_PR9.json BENCH_PR10.json
//
// A benchmark regresses when its bytes/op exceed the baseline by more
// than 15% and by more than 16 bytes absolute, or its allocs/op by more
// than 15% and more than one allocation — the absolute floors keep
// near-zero baselines (0 or a few words) from turning measurement noise
// into failures. Benchmarks are matched by name without go test's
// -GOMAXPROCS suffix, so reports from hosts with different CPU counts
// compare. Dispatcher benchmarks (ns/op-dominated, already
// tracked by eye across PRs) are out of scope; the gate watches exactly
// the paths the //lard:noalloc annotations guard. Exit status: 0 within
// tolerance, 1 regression or missing benchmark, 2 operational error.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
)

type report struct {
	Benchmarks []benchmark `json:"benchmarks"`
}

type benchmark struct {
	Name       string  `json:"name"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp float64 `json:"bytes_per_op"`
	AllocsOp   float64 `json:"allocs_per_op"`
}

// gated reports whether the benchmark belongs to the allocation-gated
// set: the handoff dial path and the relay copy paths.
func gated(name string) bool {
	return strings.HasPrefix(name, "BenchmarkHandoff") || strings.HasPrefix(name, "BenchmarkRelay")
}

func load(path string) (map[string]benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	m := make(map[string]benchmark)
	for _, b := range r.Benchmarks {
		if gated(b.Name) {
			m[procsSuffix.ReplaceAllString(b.Name, "")] = b
		}
	}
	return m, nil
}

// procsSuffix is the "-N" go test appends to a benchmark's name when
// GOMAXPROCS is not 1.
var procsSuffix = regexp.MustCompile(`-\d+$`)

// check compares one column of one benchmark against its baseline: a
// regression is a value past baseline+15% and past baseline+floor.
func check(name, unit string, now, old, floor float64) (ok bool) {
	limit := max(old*1.15, old+floor)
	switch {
	case now > limit:
		fmt.Printf("FAIL %s: %.0f %s, baseline %.0f (limit %.0f)\n", name, now, unit, old, limit)
		return false
	case now < old:
		fmt.Printf("ok   %s: %.0f %s, down from %.0f\n", name, now, unit, old)
	default:
		fmt.Printf("ok   %s: %.0f %s (baseline %.0f)\n", name, now, unit, old)
	}
	return true
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/benchgate.go BASELINE.json NEW.json")
		os.Exit(2)
	}
	base, err := load(os.Args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(os.Args[2])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if len(base) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no gated benchmarks in %s\n", os.Args[1])
		os.Exit(2)
	}

	bad := false
	for name, old := range base {
		now, ok := cur[name]
		if !ok {
			fmt.Printf("FAIL %s: present in baseline, missing from %s\n", name, os.Args[2])
			bad = true
			continue
		}
		if !check(name, "B/op", now.BytesPerOp, old.BytesPerOp, 16) {
			bad = true
		}
		if !check(name, "allocs/op", now.AllocsOp, old.AllocsOp, 1) {
			bad = true
		}
	}
	if bad {
		os.Exit(1)
	}
}
