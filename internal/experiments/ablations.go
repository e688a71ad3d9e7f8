package experiments

import (
	"lard/internal/cluster"
	"lard/internal/trace"
)

// This file holds the ablation experiments the paper describes in prose
// rather than in a numbered figure.

// WRRTenfoldCache reproduces the Section 4.1 verification: "with WRR it
// would take a ten times larger cache in each node to match the
// performance of LARD on this particular trace. We have verified this
// fact by simulating WRR with a tenfold node cache size."
func WRRTenfoldCache(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	tr := generate(trace.RiceProfile(), opt)
	table := &Table{
		ID:     "wrr10x",
		Title:  "WRR with a tenfold node cache vs LARD/R, Rice trace",
		XLabel: "nodes",
		YLabel: "requests/sec",
	}
	configs := []struct {
		label string
		kind  string
		cache int64
	}{
		{"WRR 32MB", "wrr", cluster.DefaultCacheBytes},
		{"WRR 320MB", "wrr", 10 * cluster.DefaultCacheBytes},
		{"LARD/R 32MB", "lard/r", cluster.DefaultCacheBytes},
	}
	for _, c := range configs {
		var xs, ys []float64
		for _, n := range opt.Nodes {
			cfg := cluster.DefaultConfig(c.kind, n)
			cfg.CacheBytes = c.cache
			res, err := simulate(opt, cfg, tr)
			if err != nil {
				return nil, err
			}
			xs = append(xs, float64(n))
			ys = append(ys, res.Throughput)
		}
		table.Series = append(table.Series, Series{Label: c.label, X: xs, Y: ys})
	}
	return []*Table{table}, nil
}

// LRUAblation reproduces the Section 3.1 replacement-policy check: "We
// have also performed simulations with LRU ... The relative performance
// of the various distribution strategies remained largely unaffected.
// However, the absolute throughput results were up to 30% lower with LRU
// than with GDS."
func LRUAblation(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	tr := generate(trace.RiceProfile(), opt)
	table := &Table{
		ID:     "lru",
		Title:  "GDS vs LRU back-end replacement policy, Rice trace",
		XLabel: "nodes",
		YLabel: "requests/sec",
	}
	for _, policy := range []cluster.CachePolicy{cluster.GDS, cluster.LRU} {
		for _, kind := range []string{"wrr", "lard/r"} {
			var xs, ys []float64
			for _, n := range opt.Nodes {
				cfg := cluster.DefaultConfig(kind, n)
				cfg.CachePolicy = policy
				res, err := simulate(opt, cfg, tr)
				if err != nil {
					return nil, err
				}
				xs = append(xs, float64(n))
				ys = append(ys, res.Throughput)
			}
			table.Series = append(table.Series, Series{
				Label: cluster.Label(kind) + "/" + policy.String(),
				X:     xs,
				Y:     ys,
			})
		}
	}
	return []*Table{table}, nil
}
