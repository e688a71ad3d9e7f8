package main

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"

	"lard/internal/experiments"
)

// goldenArch is the GOARCH the digests below were captured on. Other
// architectures may fuse multiply-adds differently and move last digits.
const goldenArch = "amd64"

// goldenExperiments pins, per experiment, the sha256 of emit's output at
// goldenOptions. A change that moves any figure in an experiment's tables
// changes its digest, and the failure names that experiment. They cover
// every strategy the paper's figures sweep (figure7), the
// heterogeneous-fleet strategies (hetero), persistent connections (phttp),
// membership churn (churn, failover), the CPU, cache and disk sweeps of one
// strategy each (figure11, figure13), the replacement-policy, cache-size and
// mapping-table ablations (lru, wrr10x, mapcap), the threshold sweep
// (sensitivity), the hot-target and chess workloads (hotspot, chess) and the
// trace distributions (figure5, figure6). Each runs in under a second at
// goldenOptions.
var goldenExperiments = []struct{ id, digest string }{
	{"figure7", "669ce2a7ad4cc9e4b99e10854209a204c347ba6ec45b7ac0b8dde3b88ffca961"},
	{"hetero", "ac195fbed242fc65be0d13ac89c09bd6105a1123dfe55944f583b545f975c21a"},
	{"phttp", "1bab1f5d15458dc480e2c0bc51d003e99b3b911bf17dd77a2748f6583181d567"},
	{"churn", "be6b3e94eff4ec270f38df560f13c4867cdd3f859e929faa1559a5f63b81c067"},
	{"failover", "5ead73e92dbe9f880f19bcae1b1f1834813d3b45b3a774e5770fa5d82419b1ac"},
	{"figure11", "0af7318b0e7e58e744ef8b28ec557ec47a0df4c1c8d9ab07888bca18b4f40420"},
	{"figure13", "0bbd9b4764440f9f768456bef06ce93cc196d98fa15b03a4ab8ab5a60acad4b6"},
	{"lru", "53a0a3b2f45193955b35334fd913e841d170507c3670aee30fda3fd864f0b4b5"},
	{"wrr10x", "3c5c68637a92c8e81eefda66772bad83296924cab2275652fec21e34c7489591"},
	{"mapcap", "717960023eb94752fa7933b5a351669eae89270cd767854ae96f3b8379434921"},
	{"sensitivity", "91f1da448e3d48f553c0c26b16498dcc4b96a456d44db5c176ca07307dd12cd7"},
	{"hotspot", "996182704e1c97e6b79f30b491c8e848bbd961ca67a93da53c14ee7de2642037"},
	{"chess", "a5af44f00ba135d0f2a1026813f031328290c6aaf45c33df02f17521a237f0a9"},
	{"figure5", "00c0f36d1f9d42ca7dea893805ed0ee7f3dec38ff1ad94443e1703855f6abc50"},
	{"figure6", "89172a662a1862c2d0bc1fc46ff90adefd4ec25d7170bf259d5fc6c8dfce1622"},
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
		t.Skipf("digests captured on %s", goldenArch)
	}
	for _, g := range goldenExperiments {
		e, ok := experiments.Lookup(g.id)
		if !ok {
			t.Fatalf("no experiment %q", g.id)
		}
		var sb strings.Builder
		if err := emit(&sb, goldenOptions, e); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(sb.String()))
		if got := hex.EncodeToString(sum[:]); got != g.digest {
			t.Errorf("%s: tables digest = %s, want %s; output:\n%s", g.id, got, g.digest, sb.String())
		}
	}
}
