package experiments

import (
	"fmt"
	"time"

	"lard/internal/cluster"
	"lard/internal/core"
	"lard/internal/trace"
)

// heteroOutstanding pins every variant's admission bound to the same
// offered concurrency (~50 per node on the 6-node fleet), below each
// policy's own derived S. Without this the closed loop saturates each
// policy at a *different* total backlog, and by Little's law average
// delay collapses to S/throughput regardless of placement — the
// uniform fleet's larger S would be charged against it as extra delay.
// Pinning the bound makes the comparison fair: identical offered load,
// and only where the connections sit — the thing the thresholds and
// weights govern — differs between runs.
const heteroOutstanding = 300

// heteroSLO is the per-request delay bound goodput is counted against,
// calibrated between the queue-drain times placement policy produces on
// the mixed fleet: weight-aware placement equalizes *relative* load, so
// every node drains its backlog in the same ~150-190 ms, while
// capacity-blind least-loaded placement equalizes raw connection
// counts, leaving a half-speed node a ~300 ms backlog (a full share at
// four times a big node's per-request cost). The bound sits between the
// two, so exactly the requests stuck behind a small node's over-deep
// queue miss it.
const heteroSLO = 230 * time.Millisecond

// heteroFleet builds a mixed fleet: the first small nodes at half weight
// and speed, the remaining big nodes at double. A 4+2 mix advertises the
// same nominal capacity as six standard nodes (4·0.5 + 2·2 = 6).
func heteroFleet(small, big int) []cluster.NodeProfile {
	fleet := make([]cluster.NodeProfile, 0, small+big)
	for i := 0; i < small; i++ {
		fleet = append(fleet, cluster.NodeProfile{Profile: core.Profile{Weight: 0.5}, Speed: 0.5})
	}
	for i := 0; i < big; i++ {
		fleet = append(fleet, cluster.NodeProfile{Profile: core.Profile{Weight: 2}, Speed: 2})
	}
	return fleet
}

// uniformThresholds strips a fleet's capacity advertisement while keeping
// its hardware: every node serves at its real speed but carries the fleet
// default weight-1 thresholds — the pre-profile dispatcher's view of a
// mixed fleet.
func uniformThresholds(fleet []cluster.NodeProfile) []cluster.NodeProfile {
	out := make([]cluster.NodeProfile, len(fleet))
	for i, p := range fleet {
		speed := p.Speed
		if speed == 0 {
			speed = p.Weight
		}
		if speed == 0 {
			speed = 1
		}
		out[i] = cluster.NodeProfile{Profile: core.Profile{Weight: 1}, Speed: speed}
	}
	return out
}

// heteroTrace builds the workload for the heterogeneity experiment: a
// catalog small enough that the fleet's aggregate cache covers it, with
// a narrow file-size spread. Unlike the Rice trace (whose working set
// dwarfs memory, making runs disk-bound, and whose heavy-tailed sizes
// swamp queueing delay with service-time variance), this keeps the back
// ends CPU-bound and per-request cost near-constant, so request delay
// is queueing behind a node's connection backlog — the quantity the
// T_low/T_high thresholds govern, and the one heterogeneous capacity
// distorts.
func heteroTrace(alpha float64) trace.SyntheticConfig {
	return trace.SyntheticConfig{
		Name:             fmt.Sprintf("hetero-a%.2g", alpha),
		Catalog:          "hetero",
		Targets:          1000,
		Requests:         2_300_000,
		DataSetBytes:     32 << 20,
		ZipfAlpha:        alpha,
		ZipfShift:        10,
		SizeSigma:        0.25,
		PopularSmallBias: 0,
		MinFileBytes:     8 << 10,
		MaxFileBytes:     128 << 10,
	}
}

// Hetero measures capacity-profile awareness on a heterogeneous fleet:
// four half-capacity and two double-capacity nodes serving a cache-warm
// Zipf workload across a skew sweep, every variant at the same pinned
// offered concurrency. The hardware is identical in every run; only
// what the dispatcher believes about it differs.
//
//   - "lard-uni" is LARD with uniform weight-1 thresholds — its raw
//     least-loaded placement equalizes connection counts, so a
//     half-speed node carries the same backlog as a double-speed one
//     and drains it four times slower; the requests stuck behind it
//     blow the delay SLO while raw throughput stays flat (the queued
//     requests do complete);
//   - "lard-prof" carries per-node scaled thresholds (T_high 33 on the
//     small nodes), which cap how deep a small node's backlog grows —
//     worth ~17% goodput — but its *picks* are still capacity-blind;
//   - "wlard" also scales the placement itself (least *relative* load,
//     imbalance tested against weight-scaled thresholds) and recovers
//     ~22% over uniform: the full profile-aware LARD;
//   - "lardr-prof" trades locality for replication; on a cache-warm
//     trace that costs misses and it trails even lard-uni — capacity
//     awareness does not rescue a policy that gives up locality.
//
// The second table reports raw throughput for the same runs (flat
// across variants — the collapse is purely a goodput effect), and the
// third sweeps the fleet mix at the Rice skew: the uniform-threshold
// goodput penalty grows with the number of small nodes.
func Hetero(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	const nodes = 6
	fleet := heteroFleet(4, 2)

	type variant struct {
		label string
		kind  string
		profs []cluster.NodeProfile
	}
	variants := []variant{
		{"lard-uni", "lard", uniformThresholds(fleet)},
		{"lard-prof", "lard", fleet},
		{"lardr-prof", "lard/r", fleet},
		{"wlard", "wlard", fleet},
	}

	goodput := &Table{
		ID: "hetero",
		Title: fmt.Sprintf("Goodput (requests within %v) on 4 half + 2 double nodes vs Zipf skew, cache-warm trace",
			heteroSLO),
		XLabel: "zipf-alpha",
		YLabel: "goodput (reqs/sec within SLO)",
	}
	tput := &Table{
		ID:     "hetero-tput",
		Title:  "Raw throughput for the same runs (uniform thresholds keep throughput while losing goodput)",
		XLabel: "zipf-alpha",
		YLabel: "requests/sec",
	}

	run := func(v variant, tr *trace.Trace) (cluster.Result, error) {
		cfg := cluster.DefaultConfig(v.kind, nodes)
		cfg.Profiles = v.profs
		cfg.DelaySLO = heteroSLO
		cfg.MaxOutstanding = heteroOutstanding
		return simulate(opt, cfg, tr)
	}

	for _, alpha := range []float64{0.8, 1.1, 1.4} {
		tr := generate(heteroTrace(alpha), opt)
		for _, v := range variants {
			res, err := run(v, tr)
			if err != nil {
				return nil, err
			}
			appendPoint(goodput, v.label, alpha, res.Goodput)
			appendPoint(tput, v.label, alpha, res.Throughput)
		}
	}

	mix := &Table{
		ID:     "hetero-mix",
		Title:  "Goodput vs fleet mix (small nodes of 6, rest double) at the Rice skew: the uniform-threshold penalty grows with every small node",
		XLabel: "small-nodes",
		YLabel: "goodput (reqs/sec within SLO)",
	}
	mixTrace := generate(heteroTrace(1.4), opt)
	for _, small := range []int{2, 3, 4, 5} {
		f := heteroFleet(small, nodes-small)
		for _, v := range []variant{
			{"lard-uni", "lard", uniformThresholds(f)},
			{"lard-prof", "lard", f},
		} {
			res, err := run(v, mixTrace)
			if err != nil {
				return nil, err
			}
			appendPoint(mix, v.label, float64(small), res.Goodput)
		}
	}

	return []*Table{goodput, tput, mix}, nil
}

// appendPoint adds (x, y) to the table's series with the given label,
// creating the series on first use.
func appendPoint(t *Table, label string, x, y float64) {
	for i := range t.Series {
		if t.Series[i].Label == label {
			t.Series[i].X = append(t.Series[i].X, x)
			t.Series[i].Y = append(t.Series[i].Y, y)
			return
		}
	}
	t.Series = append(t.Series, Series{Label: label, X: []float64{x}, Y: []float64{y}})
}
