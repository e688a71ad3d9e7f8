package main

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"

	"lard/internal/experiments"
)

// goldenArch is the GOARCH the digest below was captured on. Other
// architectures may fuse multiply-adds differently and move last digits.
const goldenArch = "amd64"

// goldenDigest is the sha256 of emit's output for goldenExperiments at
// goldenOptions. A change that moves any figure in these tables changes it.
const goldenDigest = "85d405e9156376f3b60aff3c7e1002e00c0bf49932407ccbe3a8d6dccedca420"

// goldenExperiments cover every strategy the paper's figures sweep
// (figure7), the heterogeneous-fleet strategies (hetero), persistent
// connections (phttp), membership churn (churn, failover), the CPU, cache
// and disk sweeps of one strategy each (figure11, figure13), the
// replacement-policy, cache-size and mapping-table ablations (lru, wrr10x,
// mapcap), the threshold sweep (sensitivity), the hot-target and chess
// workloads (hotspot, chess) and the trace distributions (figure5,
// figure6). Each runs in under a second at goldenOptions.
var goldenExperiments = []string{
	"figure7", "hetero", "phttp", "churn", "failover", "figure11", "figure13",
	"lru", "wrr10x", "mapcap", "sensitivity", "hotspot", "chess", "figure5", "figure6",
}

var goldenOptions = experiments.Options{Seed: 42, Scale: 0.01, Nodes: []int{1, 2, 4}}

// TestGoldenTables pins the simulator's tables: the shape tests check
// inequalities between strategies, this one fails if any printed number
// moves.
func TestGoldenTables(t *testing.T) {
	if raceEnabled {
		t.Skip("too slow under the race detector")
	}
	if runtime.GOARCH != goldenArch {
		t.Skipf("digest captured on %s", goldenArch)
	}
	var sb strings.Builder
	for _, id := range goldenExperiments {
		e, ok := experiments.Lookup(id)
		if !ok {
			t.Fatalf("no experiment %q", id)
		}
		if err := emit(&sb, goldenOptions, e); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256([]byte(sb.String()))
	if got := hex.EncodeToString(sum[:]); got != goldenDigest {
		t.Fatalf("tables digest = %s, want %s; output:\n%s", got, goldenDigest, sb.String())
	}
}
