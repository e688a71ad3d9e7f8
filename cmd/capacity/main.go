// Command capacity runs the saturation harness: it ramps offered load
// against a live in-process cluster per configuration (locked vs
// sharded dispatcher × GOMAXPROCS × connection policy), binary-searches
// each configuration's SLO knee, and writes the report.
//
// Usage:
//
//	capacity                     # full sweep, writes BENCH_PR10.json
//	capacity -smoke              # seconds-long smoke (CI)
//	capacity -herd               # sweep, then the thundering-herd run
//	                             # at 10x the measured knee
//	capacity -o report.json
//
// -herd follows the sweep with the overload-protection experiment: the
// fleet is offered -herdmult times the sweep's best knee, with one
// abusive client identity supplying nearly all of it, and the report
// gains a "herd" section recording each cohort's goodput and sheds. The
// run exits nonzero if the well-behaved cohort's goodput falls under the
// 90% bar or the abuser's sheds lack Retry-After.
//
// When the output file already exists and holds a JSON object, the
// report is merged in under the "capacity" key (scripts/bench.sh writes
// the microbenchmark sections of BENCH_PR10.json first and then invokes
// this command to append the end-to-end numbers).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"lard/internal/capacity"
)

func main() {
	var (
		out      = flag.String("o", "BENCH_PR10.json", "output file (merged under \"capacity\" if it already holds a JSON object)")
		smoke    = flag.Bool("smoke", false, "seconds-long smoke sweep (one policy, current GOMAXPROCS, short probes)")
		herd     = flag.Bool("herd", false, "after the sweep, run the thundering-herd overload experiment at the measured knee")
		herdMult = flag.Float64("herdmult", 10, "herd offered load as a multiple of the measured knee")
		nodes    = flag.Int("nodes", 4, "back-end nodes per fleet")
		clients  = flag.Int("clients", 32, "load-generator clients")
		probeDur = flag.Duration("probe", 2*time.Second, "measurement window per offered rate")
		sloP99   = flag.Duration("slo-p99", capacity.DefaultSLO.P99, "SLO: max p99 latency")
		sloErr   = flag.Float64("slo-err", capacity.DefaultSLO.ErrRate, "SLO: max error fraction")
		maxRate  = flag.Float64("maxrate", 0, "ramp ceiling in req/s (0 = default)")
		verbose  = flag.Bool("v", true, "log sweep progress to stderr")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := capacity.SweepConfig{
		SLO:    capacity.SLO{P99: *sloP99, ErrRate: *sloErr},
		Search: capacity.SearchConfig{MaxRate: *maxRate},
		Fleet: capacity.FleetConfig{
			Nodes:         *nodes,
			Clients:       *clients,
			ProbeDuration: *probeDur,
		},
		Smoke: *smoke,
	}
	if *smoke {
		// The flag default (2s) is a full-sweep window; smoke picks its
		// own short one unless the user set -probe explicitly.
		if !flagWasSet("probe") {
			cfg.Fleet.ProbeDuration = 0
		}
	}
	if *verbose {
		cfg.Log = os.Stderr
	}

	rep, err := capacity.RunSweep(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "capacity:", err)
		os.Exit(1)
	}
	if err := writeSection(*out, "capacity", rep); err != nil {
		fmt.Fprintln(os.Stderr, "capacity:", err)
		os.Exit(1)
	}
	best, name := rep.MaxSustainable()
	fmt.Printf("max sustainable: %.0f req/s (%s); wrote %s\n", best, name, *out)

	if !*herd {
		return
	}
	hc := capacity.HerdConfig{
		Fleet:      cfg.Fleet,
		KneeRPS:    best,
		Multiplier: *herdMult,
	}
	if *smoke {
		hc.Duration = 1500 * time.Millisecond
		hc.WellClients = 4
	}
	if *verbose {
		hc.Log = os.Stderr
	}
	hres, err := capacity.RunHerd(ctx, hc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "capacity: herd:", err)
		os.Exit(1)
	}
	if err := writeSection(*out, "herd", hres); err != nil {
		fmt.Fprintln(os.Stderr, "capacity:", err)
		os.Exit(1)
	}
	fmt.Printf("herd at %.0f req/s: well goodput %.1f%%, abuser shed %.1f%% (protected=%v); wrote %s\n",
		hres.HerdRPS, 100*hres.Well.GoodputFraction, 100*hres.Abuser.ShedFraction, hres.Protected, *out)
	if !hres.Protected {
		fmt.Fprintln(os.Stderr, "capacity: herd verdict NOT protected")
		os.Exit(1)
	}
}

func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// writeSection stores v under the named key of the JSON object at path,
// preserving any other members already there (scripts/bench.sh writes
// the microbenchmark sections first; the sweep and herd append theirs).
func writeSection(path, key string, v any) error {
	doc := map[string]json.RawMessage{}
	if prev, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(prev, &doc); err != nil {
			return fmt.Errorf("existing %s is not a JSON object: %w", path, err)
		}
	}
	enc, err := json.MarshalIndent(v, "  ", "  ")
	if err != nil {
		return err
	}
	doc[key] = enc
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
