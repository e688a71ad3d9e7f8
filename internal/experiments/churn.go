package experiments

import (
	"fmt"

	"lard/internal/cluster"
	"lard/internal/trace"
)

// Churn regenerates the paper's failure/recovery scenario (Section 2.6's
// recovery story, run the way Section 5.9 of cluster-availability studies
// present it) as a time series rather than a single aggregate: node 1
// fails one third into the run and rejoins with a cold cache at two
// thirds. The expected shape, for both LARD and LARD/R:
//
//   - throughput dips when the node fails (capacity loss plus the burst
//     of re-assignments for its targets);
//   - the cluster re-converges on the survivors (mappings re-built "as if
//     they had not been assigned before");
//   - on recovery, throughput climbs back while the windowed miss ratio
//     spikes and then decays as the rejoined node's cache re-warms.
func Churn(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	tr := generate(trace.RiceProfile(), opt)
	nodes := maxNodes(opt.Nodes, 4)

	// Calibrate the schedule against an undisturbed run of the same
	// trace, so the failure window covers the middle third regardless of
	// scale.
	baseline, err := simulate(opt, cluster.DefaultConfig("lard", nodes), tr)
	if err != nil {
		return nil, err
	}
	failAt := baseline.SimTime / 3
	recoverAt := baseline.SimTime * 2 / 3

	tput := &Table{
		ID: "churn",
		Title: fmt.Sprintf("Windowed throughput through node 1 failing at %v and rejoining cold at %v, %d nodes, Rice trace",
			failAt.Round(0), recoverAt.Round(0), nodes),
		XLabel: "seconds",
		YLabel: "requests/sec (window)",
	}
	miss := &Table{
		ID:     "churn-miss",
		Title:  "Windowed cache miss ratio through the same failure/recovery run (cold-cache spike decays as the rejoined node re-warms)",
		XLabel: "seconds",
		YLabel: "miss ratio (window)",
	}
	alive := &Table{
		ID:     "churn-alive",
		Title:  "Nodes eligible for new assignments through the same run (the membership ground truth under the curves)",
		XLabel: "seconds",
		YLabel: "alive nodes",
	}

	for _, k := range []string{"lard", "lard/r"} {
		cfg := cluster.DefaultConfig(k, nodes)
		cfg.SampleEvery = baseline.SimTime / 36
		cfg.Churn = []cluster.ChurnEvent{
			cluster.FailAt(1, failAt),
			cluster.RecoverAt(1, recoverAt),
		}
		res, err := simulate(opt, cfg, tr)
		if err != nil {
			return nil, err
		}
		var xs, ty, my, ay []float64
		for _, s := range res.Timeline {
			xs = append(xs, s.At.Seconds())
			ty = append(ty, s.Throughput)
			my = append(my, s.MissRatio)
			ay = append(ay, float64(s.AliveNodes))
		}
		tput.Series = append(tput.Series, Series{Label: cluster.Label(k), X: xs, Y: ty})
		miss.Series = append(miss.Series, Series{Label: cluster.Label(k), X: xs, Y: my})
		alive.Series = append(alive.Series, Series{Label: cluster.Label(k), X: xs, Y: ay})
	}
	return []*Table{tput, miss, alive}, nil
}
