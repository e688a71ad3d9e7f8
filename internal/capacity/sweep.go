package capacity

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"lard/internal/trace"
)

// SweepConfig drives RunSweep.
type SweepConfig struct {
	// SLO is the objective each configuration is ramped against
	// (zero value = DefaultSLO).
	SLO SLO

	// Search tunes the knee search (zero value = defaults).
	Search SearchConfig

	// Fleet is the cluster template; Shards, ConnPolicy and
	// ProbeDuration are overridden per sweep point. A nil Trace gets a
	// default synthetic workload.
	Fleet FleetConfig

	// Policies are the connection policies swept (default pin, perreq,
	// costaware).
	Policies []string

	// Procs are the GOMAXPROCS values swept (default 1 and 4).
	Procs []int

	// ShardCounts are the dispatcher variants swept: 1 = locked,
	// >1 = sharded (default 1 and 8).
	ShardCounts []int

	// Smoke shrinks everything — one policy, the current GOMAXPROCS,
	// short probes, low rate ceiling — so CI can exercise the whole
	// harness in seconds.
	Smoke bool

	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// ConfigResult is the knee for one swept configuration.
type ConfigResult struct {
	Name       string  `json:"name"` // e.g. "sharded8/procs4/perreq"
	Dispatcher string  `json:"dispatcher"`
	Shards     int     `json:"shards"`
	Procs      int     `json:"gomaxprocs"`
	Policy     string  `json:"policy"`
	KneeRPS    float64 `json:"knee_rps"`

	Result SearchResult `json:"search"`
}

// Report is the sweep's machine-readable outcome, stored by
// scripts/bench.sh as the "capacity" section of BENCH_PR10.json.
type Report struct {
	Date    string         `json:"date"`
	NumCPU  int            `json:"num_cpu"` // physical parallelism available to the run
	Nodes   int            `json:"nodes"`
	Clients int            `json:"clients"`
	SLO     SLO            `json:"slo"`
	Smoke   bool           `json:"smoke,omitempty"`
	Results []ConfigResult `json:"results"`
}

// MaxSustainable returns the best knee in the report and its
// configuration name — the headline number.
func (r Report) MaxSustainable() (float64, string) {
	best, name := 0.0, ""
	for _, cr := range r.Results {
		if cr.KneeRPS > best {
			best, name = cr.KneeRPS, cr.Name
		}
	}
	return best, name
}

// defaultSweepTrace is the workload used when the caller supplies none:
// a Zipf-popular catalog small enough to stay cache-resident, so the
// knee measures the dispatch + handoff + relay path.
func defaultSweepTrace() *trace.Trace {
	return trace.MustGenerate(trace.SyntheticConfig{
		Name:         "capacity",
		Targets:      256,
		Requests:     4096,
		DataSetBytes: 256 * 8192,
		ZipfAlpha:    0.9,
		SizeSigma:    0.3,
		MinFileBytes: 512,
	}, 7)
}

// RunSweep measures the saturation knee for every configuration in the
// cross product {ShardCounts} × {Procs} × {Policies} and returns the
// report. GOMAXPROCS is set per configuration and restored before
// returning.
func RunSweep(ctx context.Context, cfg SweepConfig) (Report, error) {
	if cfg.SLO == (SLO{}) {
		cfg.SLO = DefaultSLO
	}
	if cfg.Fleet.Trace == nil {
		cfg.Fleet.Trace = defaultSweepTrace()
	}
	if len(cfg.Policies) == 0 {
		cfg.Policies = []string{"pin", "perreq", "costaware"}
	}
	if len(cfg.Procs) == 0 {
		cfg.Procs = []int{1, 4}
	}
	if len(cfg.ShardCounts) == 0 {
		cfg.ShardCounts = []int{1, 8}
	}
	if cfg.Smoke {
		cfg.Policies = cfg.Policies[:1]
		cfg.Procs = []int{runtime.GOMAXPROCS(0)}
		if cfg.Fleet.ProbeDuration <= 0 {
			cfg.Fleet.ProbeDuration = 150 * time.Millisecond
		}
		if cfg.Search.MaxRate <= 0 {
			cfg.Search.MaxRate = 400
		}
		if cfg.Search.StartRate <= 0 {
			cfg.Search.StartRate = 100
		}
		if cfg.Search.Tolerance <= 0 {
			cfg.Search.Tolerance = 0.5
		}
	}

	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, format+"\n", args...)
		}
	}

	rep := Report{
		Date:    time.Now().UTC().Format(time.RFC3339),
		NumCPU:  runtime.NumCPU(),
		SLO:     cfg.SLO,
		Smoke:   cfg.Smoke,
		Results: []ConfigResult{},
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, shards := range cfg.ShardCounts {
		for _, procs := range cfg.Procs {
			for _, policy := range cfg.Policies {
				if err := ctx.Err(); err != nil {
					return rep, err
				}
				disp := "locked"
				if shards > 1 {
					disp = fmt.Sprintf("sharded%d", shards)
				}
				name := fmt.Sprintf("%s/procs%d/%s", disp, procs, policy)

				runtime.GOMAXPROCS(procs)
				fc := cfg.Fleet
				fc.Shards = shards
				fc.ConnPolicy = policy
				fleet, err := NewFleet(fc)
				if err != nil {
					runtime.GOMAXPROCS(prev)
					return rep, fmt.Errorf("capacity: fleet for %s: %w", name, err)
				}
				rep.Nodes, rep.Clients = fleet.cfg.Nodes, fleet.cfg.Clients
				logf("capacity: probing %s", name)
				res, err := FindKnee(cfg.Search, cfg.SLO, fleet.Prober(ctx))
				fleet.Close()
				runtime.GOMAXPROCS(prev)
				if err != nil {
					return rep, fmt.Errorf("capacity: %s: %w", name, err)
				}
				logf("capacity: %s knee = %.0f req/s (p99 %v, %d probes)",
					name, res.Knee.OfferedRate, res.Knee.P99.Round(time.Millisecond), len(res.Probes))
				rep.Results = append(rep.Results, ConfigResult{
					Name:       name,
					Dispatcher: disp,
					Shards:     shards,
					Procs:      procs,
					Policy:     policy,
					KneeRPS:    res.Knee.OfferedRate,
					Result:     res,
				})
			}
		}
	}
	return rep, nil
}
