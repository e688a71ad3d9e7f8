package experiments

import (
	"fmt"
	"time"

	"lard/internal/cluster"
	"lard/internal/trace"
)

// generate materializes a profile at the requested scale.
func generate(profile trace.SyntheticConfig, opt Options) *trace.Trace {
	cfg := profile
	if opt.Scale != 1.0 {
		cfg = cfg.Scaled(opt.Scale)
	}
	return trace.MustGenerate(cfg, opt.Seed)
}

// simulate runs one configuration, reporting progress.
func simulate(opt Options, cfg cluster.Config, tr *trace.Trace) (cluster.Result, error) {
	res, err := cluster.Simulate(cfg, tr)
	if err != nil {
		return res, fmt.Errorf("experiments: %s on %d nodes: %w", cfg.Strategy, cfg.Nodes, err)
	}
	opt.progressf("  %s", res)
	return res, nil
}

// cdfTables renders a trace's Figure 5/6 content: the cumulative curves
// plus the memory-to-cover summary the paper quotes in prose.
func cdfTables(id, title string, tr *trace.Trace) []*Table {
	cdf := trace.ComputeCDF(tr)
	const points = 21
	curves := &Table{
		ID:     id,
		Title:  title + " — " + tr.String(),
		XLabel: "files(norm)",
		YLabel: "cumulative fraction",
	}
	var xs, reqs, sizes []float64
	n := len(cdf.Files)
	for i := 0; i < points; i++ {
		idx := (n - 1) * i / (points - 1)
		p := cdf.Files[idx]
		xs = append(xs, float64(p.Rank)/float64(n))
		reqs = append(reqs, float64(p.CumRequests)/float64(cdf.TotalRequests))
		sizes = append(sizes, float64(p.CumBytes)/float64(cdf.TotalBytes))
	}
	curves.Series = []Series{
		{Label: "requests", X: xs, Y: reqs},
		{Label: "file size", X: xs, Y: sizes},
	}

	coverage := &Table{
		ID:     id + "-coverage",
		Title:  "memory needed to cover a fraction of requests",
		XLabel: "req fraction",
		YLabel: "MB",
	}
	var cx, cy []float64
	for _, f := range []float64{0.90, 0.95, 0.97, 0.99} {
		cx = append(cx, f)
		cy = append(cy, float64(cdf.BytesToCover(f))/(1<<20))
	}
	coverage.Series = []Series{{Label: "MB needed", X: cx, Y: cy}}
	return []*Table{curves, coverage}
}

// Figure5 regenerates the Rice trace CDFs.
func Figure5(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	tr := generate(trace.RiceProfile(), opt)
	return cdfTables("figure5", "Rice University trace", tr), nil
}

// Figure6 regenerates the IBM trace CDFs.
func Figure6(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	tr := generate(trace.IBMProfile(), opt)
	return cdfTables("figure6", "IBM trace", tr), nil
}

// strategySweep runs every strategy over the node sweep and returns the
// throughput, miss-ratio, and idle-time tables (the paper's Figures 7-9
// triple for the given trace).
func strategySweep(opt Options, tr *trace.Trace, idPrefix, caption string) (tput, miss, idle *Table, err error) {
	mk := func(id, title, ylabel string) *Table {
		return &Table{ID: id, Title: title + ", " + caption, XLabel: "nodes", YLabel: ylabel}
	}
	tput = mk(idPrefix+"-throughput", "Throughput", "requests/sec")
	miss = mk(idPrefix+"-missratio", "Cache miss ratio", "% requests missed")
	idle = mk(idPrefix+"-idletime", "Node underutilization", "% time underutilized")

	for _, k := range cluster.PaperStrategies() {
		var xs, ty, my, iy []float64
		for _, n := range opt.Nodes {
			res, err := simulate(opt, cluster.DefaultConfig(k, n), tr)
			if err != nil {
				return nil, nil, nil, err
			}
			xs = append(xs, float64(n))
			ty = append(ty, res.Throughput)
			my = append(my, res.MissRatio*100)
			iy = append(iy, res.IdleFraction*100)
		}
		tput.Series = append(tput.Series, Series{Label: cluster.Label(k), X: xs, Y: ty})
		miss.Series = append(miss.Series, Series{Label: cluster.Label(k), X: xs, Y: my})
		idle.Series = append(idle.Series, Series{Label: cluster.Label(k), X: xs, Y: iy})
	}
	return tput, miss, idle, nil
}

// Figure7 regenerates throughput vs cluster size on the Rice trace.
func Figure7(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	tr := generate(trace.RiceProfile(), opt)
	tput, _, _, err := strategySweep(opt, tr, "figure7", "Rice trace")
	if err != nil {
		return nil, err
	}
	tput.ID = "figure7"
	return []*Table{tput}, nil
}

// Figure8 regenerates cache miss ratio vs cluster size on the Rice trace.
func Figure8(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	tr := generate(trace.RiceProfile(), opt)
	_, miss, _, err := strategySweep(opt, tr, "figure8", "Rice trace")
	if err != nil {
		return nil, err
	}
	miss.ID = "figure8"
	return []*Table{miss}, nil
}

// Figure9 regenerates idle time vs cluster size on the Rice trace.
func Figure9(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	tr := generate(trace.RiceProfile(), opt)
	_, _, idle, err := strategySweep(opt, tr, "figure9", "Rice trace")
	if err != nil {
		return nil, err
	}
	idle.ID = "figure9"
	return []*Table{idle}, nil
}

// RiceSweep runs the Rice strategy sweep once and returns all three
// Figure 7/8/9 tables — what `lardsim -experiment rice` and the benchmark
// harness use to avoid triplicating the heaviest simulation.
func RiceSweep(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	tr := generate(trace.RiceProfile(), opt)
	tput, miss, idle, err := strategySweep(opt, tr, "figure7", "Rice trace")
	if err != nil {
		return nil, err
	}
	tput.ID, miss.ID, idle.ID = "figure7", "figure8", "figure9"
	return []*Table{tput, miss, idle}, nil
}

// Figure10 regenerates throughput vs cluster size on the IBM trace
// (miss-ratio and idle tables included as supplements).
func Figure10(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	tr := generate(trace.IBMProfile(), opt)
	tput, miss, idle, err := strategySweep(opt, tr, "figure10", "IBM trace")
	if err != nil {
		return nil, err
	}
	tput.ID = "figure10"
	return []*Table{tput, miss, idle}, nil
}

// cpuSpeedSettings mirrors the paper: "twice, three and four times the
// default speed setting ... setting the node memory size to 1.5, 2 and 3
// times the base amount (32 MB)".
var cpuSpeedSettings = []struct {
	Label    string
	Speed    float64
	MemScale float64
}{
	{"1x cpu", 1, 1},
	{"2x cpu, 1.5x mem", 2, 1.5},
	{"3x cpu, 2x mem", 3, 2},
	{"4x cpu, 3x mem", 4, 3},
}

// cpuSweep regenerates Figure 11/12 for one strategy.
func cpuSweep(opt Options, kind, id string) ([]*Table, error) {
	opt = opt.withDefaults()
	tr := generate(trace.RiceProfile(), opt)
	table := &Table{
		ID:     id,
		Title:  fmt.Sprintf("%s throughput vs CPU speed, Rice trace", cluster.Label(kind)),
		XLabel: "nodes",
		YLabel: "requests/sec",
	}
	for _, s := range cpuSpeedSettings {
		var xs, ys []float64
		for _, n := range opt.Nodes {
			cfg := cluster.DefaultConfig(kind, n)
			cfg.Cost = cfg.Cost.WithCPUSpeed(s.Speed)
			cfg.CacheBytes = int64(float64(cluster.DefaultCacheBytes) * s.MemScale)
			res, err := simulate(opt, cfg, tr)
			if err != nil {
				return nil, err
			}
			xs = append(xs, float64(n))
			ys = append(ys, res.Throughput)
		}
		table.Series = append(table.Series, Series{Label: s.Label, X: xs, Y: ys})
	}
	return []*Table{table}, nil
}

// Figure11 regenerates WRR throughput under CPU scaling.
func Figure11(opt Options) ([]*Table, error) {
	return cpuSweep(opt, "wrr", "figure11")
}

// Figure12 regenerates LARD/R throughput under CPU scaling.
func Figure12(opt Options) ([]*Table, error) {
	return cpuSweep(opt, "lard/r", "figure12")
}

// diskSweep regenerates Figure 13/14 for one strategy.
func diskSweep(opt Options, kind, id string) ([]*Table, error) {
	opt = opt.withDefaults()
	tr := generate(trace.RiceProfile(), opt)
	table := &Table{
		ID:     id,
		Title:  fmt.Sprintf("%s throughput vs disks per node, Rice trace", cluster.Label(kind)),
		XLabel: "nodes",
		YLabel: "requests/sec",
	}
	for _, disks := range []int{1, 2, 3, 4} {
		var xs, ys []float64
		for _, n := range opt.Nodes {
			cfg := cluster.DefaultConfig(kind, n)
			cfg.Disks = disks
			res, err := simulate(opt, cfg, tr)
			if err != nil {
				return nil, err
			}
			xs = append(xs, float64(n))
			ys = append(ys, res.Throughput)
		}
		label := fmt.Sprintf("%d disks", disks)
		if disks == 1 {
			label = "1 disk"
		}
		table.Series = append(table.Series, Series{Label: label, X: xs, Y: ys})
	}
	return []*Table{table}, nil
}

// Figure13 regenerates WRR throughput with 1-4 disks per node.
func Figure13(opt Options) ([]*Table, error) {
	return diskSweep(opt, "wrr", "figure13")
}

// Figure14 regenerates LARD/R throughput with 1-4 disks per node.
func Figure14(opt Options) ([]*Table, error) {
	return diskSweep(opt, "lard/r", "figure14")
}

// Hotspot regenerates the Section 4.2 hot-target comparison: the Rice
// trace modified with artificial high-frequency targets whose combined
// request share sweeps 2-10%.
func Hotspot(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	base := generate(trace.RiceProfile(), opt)
	nodes := maxNodes(opt.Nodes, 8)

	table := &Table{
		ID:     "hotspot",
		Title:  fmt.Sprintf("Throughput with artificial hot targets, Rice trace, %d nodes", nodes),
		XLabel: "hot req %",
		YLabel: "requests/sec",
	}
	ratio := &Table{
		ID:     "hotspot-ratio",
		Title:  "LARD/R throughput advantage over LARD",
		XLabel: "hot req %",
		YLabel: "LARD/R / LARD",
	}
	var xs, lardY, lardrY, ratioY []float64
	for _, frac := range []float64{0.02, 0.04, 0.06, 0.08, 0.10} {
		hot, err := trace.InjectHotSpots(base, trace.HotSpotConfig{
			Count:           4,
			Size:            25 << 10, // paper: gains largest for hot targets > 20 KB
			RequestFraction: frac,
		}, opt.Seed+1)
		if err != nil {
			return nil, err
		}
		lard, err := simulate(opt, cluster.DefaultConfig("lard", nodes), hot)
		if err != nil {
			return nil, err
		}
		lardr, err := simulate(opt, cluster.DefaultConfig("lard/r", nodes), hot)
		if err != nil {
			return nil, err
		}
		xs = append(xs, frac*100)
		lardY = append(lardY, lard.Throughput)
		lardrY = append(lardrY, lardr.Throughput)
		ratioY = append(ratioY, lardr.Throughput/lard.Throughput)
	}
	table.Series = []Series{
		{Label: "LARD", X: xs, Y: lardY},
		{Label: "LARD/R", X: xs, Y: lardrY},
	}
	ratio.Series = []Series{{Label: "ratio", X: xs, Y: ratioY}}
	return []*Table{table, ratio}, nil
}

// Chess regenerates the Section 4.2 chess-trace comparison: a tiny
// working set where WRR is at its best and LARD must merely keep up.
func Chess(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	tr := generate(trace.ChessProfile(), opt)
	table := &Table{
		ID:     "chess",
		Title:  "Throughput on the chess (Deep Blue) trace — working set fits one node cache",
		XLabel: "nodes",
		YLabel: "requests/sec",
	}
	for _, k := range []string{"wrr", "lard", "lard/r"} {
		var xs, ys []float64
		for _, n := range opt.Nodes {
			res, err := simulate(opt, cluster.DefaultConfig(k, n), tr)
			if err != nil {
				return nil, err
			}
			xs = append(xs, float64(n))
			ys = append(ys, res.Throughput)
		}
		table.Series = append(table.Series, Series{Label: cluster.Label(k), X: xs, Y: ys})
	}
	return []*Table{table}, nil
}

// Delay regenerates the Section 4.4 average-delay comparison on both
// traces.
func Delay(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	var tables []*Table
	for _, p := range []trace.SyntheticConfig{trace.RiceProfile(), trace.IBMProfile()} {
		tr := generate(p, opt)
		table := &Table{
			ID:     "delay-" + p.Name,
			Title:  fmt.Sprintf("Average request delay, %s trace", p.Name),
			XLabel: "nodes",
			YLabel: "ms",
		}
		for _, k := range []string{"wrr", "lard/r"} {
			var xs, ys []float64
			for _, n := range opt.Nodes {
				res, err := simulate(opt, cluster.DefaultConfig(k, n), tr)
				if err != nil {
					return nil, err
				}
				xs = append(xs, float64(n))
				ys = append(ys, float64(res.AvgDelay)/float64(time.Millisecond))
			}
			table.Series = append(table.Series, Series{Label: cluster.Label(k), X: xs, Y: ys})
		}
		tables = append(tables, table)
	}
	return tables, nil
}

// Sensitivity regenerates the Section 2.4 T_high − T_low study on the
// Rice trace.
func Sensitivity(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	tr := generate(trace.RiceProfile(), opt)
	nodes := maxNodes(opt.Nodes, 8)

	tput := &Table{
		ID:     "sensitivity",
		Title:  fmt.Sprintf("LARD throughput vs T_high − T_low, Rice trace, %d nodes (T_low = 25)", nodes),
		XLabel: "Thigh-Tlow",
		YLabel: "requests/sec",
	}
	dd := &Table{
		ID:     "sensitivity-delaydiff",
		Title:  "max per-node average delay difference vs T_high − T_low",
		XLabel: "Thigh-Tlow",
		YLabel: "ms",
	}
	var xs, ty, dy []float64
	for _, gap := range []int{15, 40, 70, 105, 175, 275} {
		cfg := cluster.DefaultConfig("lard", nodes)
		cfg.Params.THigh = cfg.Params.TLow + gap
		res, err := simulate(opt, cfg, tr)
		if err != nil {
			return nil, err
		}
		xs = append(xs, float64(gap))
		ty = append(ty, res.Throughput)
		dy = append(dy, float64(res.NodeDelayDiff)/float64(time.Millisecond))
	}
	tput.Series = []Series{{Label: "LARD", X: xs, Y: ty}}
	dd.Series = []Series{{Label: "LARD", X: xs, Y: dy}}
	return []*Table{tput, dd}, nil
}

// Failover exercises the Section 2.6 recovery story: one back end fails
// mid-run and recovers later; LARD re-assigns its targets on demand.
func Failover(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	tr := generate(trace.RiceProfile(), opt)
	nodes := maxNodes(opt.Nodes, 4)

	baseline, err := simulate(opt, cluster.DefaultConfig("lard", nodes), tr)
	if err != nil {
		return nil, err
	}
	// Fail node 1 for the middle third of the baseline's duration.
	cfg := cluster.DefaultConfig("lard", nodes)
	cfg.Churn = []cluster.ChurnEvent{
		cluster.FailAt(1, baseline.SimTime/3),
		cluster.RecoverAt(1, baseline.SimTime*2/3),
	}
	failed, err := simulate(opt, cfg, tr)
	if err != nil {
		return nil, err
	}

	table := &Table{
		ID:     "failover",
		Title:  fmt.Sprintf("LARD with node 1 failed for the middle third of the run, %d nodes", nodes),
		XLabel: "run",
		YLabel: "value (see series)",
	}
	table.Series = []Series{
		{Label: "tput baseline", X: []float64{0}, Y: []float64{baseline.Throughput}},
		{Label: "tput failover", X: []float64{0}, Y: []float64{failed.Throughput}},
		{Label: "miss% baseline", X: []float64{0}, Y: []float64{baseline.MissRatio * 100}},
		{Label: "miss% failover", X: []float64{0}, Y: []float64{failed.MissRatio * 100}},
		{Label: "dropped", X: []float64{0}, Y: []float64{float64(failed.Dropped)}},
	}
	return []*Table{table}, nil
}

// MappingCapacity ablates the LRU bound on the front end's target mapping
// (Section 2.6): a bounded table should cost almost nothing, because
// discarded targets have usually been evicted from back-end caches anyway.
func MappingCapacity(opt Options) ([]*Table, error) {
	opt = opt.withDefaults()
	tr := generate(trace.RiceProfile(), opt)
	nodes := maxNodes(opt.Nodes, 8)

	tput := &Table{
		ID:     "mapcap",
		Title:  fmt.Sprintf("LARD/R throughput vs front-end mapping capacity, Rice trace, %d nodes", nodes),
		XLabel: "capacity",
		YLabel: "requests/sec",
	}
	miss := &Table{
		ID:     "mapcap-miss",
		Title:  "cache miss ratio vs front-end mapping capacity",
		XLabel: "capacity",
		YLabel: "% requests missed",
	}
	var xs, ty, my []float64
	for _, capacity := range []int{500, 2000, 8000, 20000, 0} {
		cfg := cluster.DefaultConfig("lard/r", nodes)
		cfg.Params.MappingCapacity = capacity
		res, err := simulate(opt, cfg, tr)
		if err != nil {
			return nil, err
		}
		x := float64(capacity)
		if capacity == 0 {
			x = float64(tr.TargetCount()) // unbounded ≈ whole catalog
		}
		xs = append(xs, x)
		ty = append(ty, res.Throughput)
		my = append(my, res.MissRatio*100)
	}
	tput.Series = []Series{{Label: "LARD/R", X: xs, Y: ty}}
	miss.Series = []Series{{Label: "LARD/R", X: xs, Y: my}}
	return []*Table{tput, miss}, nil
}

// maxNodes returns the largest value in nodes no greater than limit, or
// limit if the sweep contains larger entries only.
func maxNodes(nodes []int, limit int) int {
	best := 0
	for _, n := range nodes {
		if n <= limit && n > best {
			best = n
		}
	}
	if best == 0 {
		return limit
	}
	return best
}
