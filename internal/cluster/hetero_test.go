package cluster

import (
	"math"
	"testing"
	"time"

	"lard/internal/core"
)

// Satellite regression for runtime joins with explicit profiles: a
// half-capacity node joining mid-run must be admitted under its own
// thresholds — the dispatcher's recomputed bound uses T_high 33, not the
// fleet default 65 — and still pick up traffic.
func TestJoinWithProfileHalfCapacity(t *testing.T) {
	tr := zipfTrace(32, 4<<10, 30000, 0.8, 11)
	base, err := Simulate(churnConfig("lard"), tr)
	if err != nil {
		t.Fatal(err)
	}

	cfg := churnConfig("lard")
	half := NodeProfile{Profile: core.Profile{Weight: 0.5}, Speed: 0.5}
	cfg.Churn = []ChurnEvent{JoinWithProfileAt(half, base.SimTime/4)}
	c, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run()

	if res.Nodes != 5 {
		t.Fatalf("Result.Nodes = %d, want 5 after join", res.Nodes)
	}
	if res.PerNode[4].Requests == 0 {
		t.Fatal("half-capacity joined node never served a request")
	}
	if res.Dropped != 0 {
		t.Fatalf("dropped %d requests", res.Dropped)
	}

	// The dispatcher must hold the joined node's filled profile: weight
	// 0.5 scales the paper thresholds to T_low 13 / T_high 33.
	profiles := c.Dispatcher().Profiles()
	if len(profiles) != 5 {
		t.Fatalf("dispatcher tracks %d profiles", len(profiles))
	}
	got := profiles[4]
	if got.Weight != 0.5 || got.TLow != 13 || got.THigh != 33 {
		t.Fatalf("joined node profile = %+v, want {TLow:13 THigh:33 Weight:0.5}", got)
	}

	// Generalized bound over 4 standard + 1 half node:
	// S = (4·65 + 33) − 65 + 13 + 1 = 242, below the uniform 5-node 286.
	wantS := core.MaxOutstandingOver([]core.Profile{
		{TLow: 25, THigh: 65, Weight: 1}, {TLow: 25, THigh: 65, Weight: 1},
		{TLow: 25, THigh: 65, Weight: 1}, {TLow: 25, THigh: 65, Weight: 1},
		{TLow: 13, THigh: 33, Weight: 0.5},
	})
	if wantS != 242 {
		t.Fatalf("generalized bound = %d, want 242", wantS)
	}
	if res.PeakOutstanding > wantS {
		t.Fatalf("peak outstanding %d exceeds the half-capacity bound %d", res.PeakOutstanding, wantS)
	}
}

// A Speed-2 node under weight-aware WRR must actually absorb roughly
// double the work of a standard node: the profile steers double the
// connections its way, and the scaled cost model serves them in half the
// time.
func TestProfileSpeedServesProportionally(t *testing.T) {
	tr := zipfTrace(64, 4<<10, 40000, 0.6, 3)
	cfg := DefaultConfig("wrr", 2)
	cfg.CacheBytes = 1 << 20
	cfg.Profiles = []NodeProfile{{Profile: core.Profile{Weight: 2}}, {}}
	res, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	big := float64(res.PerNode[0].Requests)
	small := float64(res.PerNode[1].Requests)
	if small == 0 {
		t.Fatal("standard node served nothing")
	}
	if ratio := big / small; ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("big/small request ratio = %.2f, want ≈2", ratio)
	}
}

// Goodput accounting: with a DelaySLO every request of an unloaded run
// completes in bound, so Goodput equals Throughput; without one both
// stay zero.
func TestGoodputAccounting(t *testing.T) {
	tr := zipfTrace(16, 4<<10, 5000, 0.6, 5)
	cfg := DefaultConfig("lard", 4)
	cfg.DelaySLO = 10 * time.Second
	res, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.WithinSLO != res.Requests {
		t.Fatalf("WithinSLO = %d of %d requests under a 10s SLO", res.WithinSLO, res.Requests)
	}
	if res.Goodput != res.Throughput {
		t.Fatalf("Goodput %.1f != Throughput %.1f with every request in SLO", res.Goodput, res.Throughput)
	}

	cfg.DelaySLO = 0
	res, err = Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.WithinSLO != 0 || res.Goodput != 0 {
		t.Fatalf("WithinSLO/Goodput nonzero (%d, %.1f) without a DelaySLO", res.WithinSLO, res.Goodput)
	}
}

func TestHeteroConfigValidation(t *testing.T) {
	tr := zipfTrace(8, 4<<10, 100, 0.6, 5)
	bad := []func(*Config){
		func(c *Config) { c.Profiles = make([]NodeProfile, c.Nodes+1) },
		func(c *Config) { c.Profiles = []NodeProfile{{Profile: core.Profile{Weight: -1}}} },
		func(c *Config) { c.Profiles = []NodeProfile{{Speed: -2}} },
		func(c *Config) { c.Profiles = []NodeProfile{{Profile: core.Profile{Weight: math.NaN()}}} },
		func(c *Config) { c.Profiles = []NodeProfile{{Speed: math.NaN()}} },
		func(c *Config) { c.Profiles = []NodeProfile{{Speed: math.Inf(1)}} },
		func(c *Config) { c.Profiles = []NodeProfile{{Profile: core.Profile{TLow: 50, THigh: 40}}} },
		func(c *Config) { c.DelaySLO = -time.Second },
		func(c *Config) {
			// A profile on a non-join churn event is meaningless.
			p := NodeProfile{}
			c.Churn = []ChurnEvent{{At: time.Second, Op: ChurnDrain, Node: 0, Profile: &p}}
		},
	}
	for i, mutate := range bad {
		cfg := DefaultConfig("lard", 4)
		mutate(&cfg)
		if _, err := New(cfg, tr); err == nil {
			t.Fatalf("case %d: invalid hetero config accepted", i)
		}
	}
}

// WLARD runs end-to-end through the simulator.
func TestHeteroStrategiesSimulate(t *testing.T) {
	tr := zipfTrace(32, 4<<10, 10000, 0.8, 9)
	cfg := DefaultConfig("wlard", 4)
	cfg.CacheBytes = 64 << 10
	res, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != tr.Len() {
		t.Fatalf("served %d of %d", res.Requests, tr.Len())
	}
	if res.Strategy != "WLARD" {
		t.Fatalf("Strategy = %q, want WLARD", res.Strategy)
	}
}
