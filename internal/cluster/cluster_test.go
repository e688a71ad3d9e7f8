package cluster

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"lard/internal/trace"
	"lard/pkg/lard"
)

// repeatTrace builds a trace of n requests cycling over the given targets.
func repeatTrace(n int, targets ...trace.Target) *trace.Trace {
	tr := &trace.Trace{Name: "test", Targets: targets}
	for i := 0; i < n; i++ {
		tr.Requests = append(tr.Requests, int32(i%len(targets)))
	}
	return tr
}

// zipfTrace builds a cache-pressure workload: files of fileSize bytes with
// Zipf(alpha) popularity.
func zipfTrace(files int, fileSize int64, reqs int, alpha float64, seed int64) *trace.Trace {
	cfg := trace.SyntheticConfig{
		Name:         "zipf",
		Targets:      files,
		Requests:     reqs,
		DataSetBytes: int64(files) * fileSize,
		ZipfAlpha:    alpha,
		SizeSigma:    0.3,
		MinFileBytes: fileSize / 2,
	}
	return trace.MustGenerate(cfg, seed)
}

func TestSingleNodeCachedThroughputMatchesCostModel(t *testing.T) {
	// One 8 KB target requested repeatedly: after the first (cold) miss
	// everything is a CPU-bound cache hit, so throughput must approach the
	// paper's ≈1075 req/s calibration point.
	cfg := DefaultConfig("wrr", 1)
	tr := repeatTrace(5000, trace.Target{Name: "/doc.html", Size: 8 << 10})
	res, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 5000 {
		t.Fatalf("Requests = %d", res.Requests)
	}
	if res.Throughput < 1000 || res.Throughput > 1100 {
		t.Fatalf("throughput = %.1f req/s, want ≈1075", res.Throughput)
	}
	// The initial closed-loop burst admits S = 26 requests before the
	// first (coalesced) disk read completes; all of them count as misses,
	// everything afterwards hits.
	s := cfg.Params.MaxOutstanding(1)
	if res.PerNode[0].Misses != uint64(s) {
		t.Fatalf("misses = %d, want %d (initial burst)", res.PerNode[0].Misses, s)
	}
	if res.MissRatio > 0.01 {
		t.Fatalf("miss ratio = %v", res.MissRatio)
	}
}

func TestAdmissionBoundRespected(t *testing.T) {
	cfg := DefaultConfig("wrr", 4)
	tr := repeatTrace(20000, trace.Target{Name: "/x", Size: 4 << 10})
	res, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	s := cfg.Params.MaxOutstanding(4)
	if res.PeakOutstanding > s {
		t.Fatalf("peak outstanding %d exceeds S = %d", res.PeakOutstanding, s)
	}
	// The closed loop should actually reach the bound on a long trace.
	if res.PeakOutstanding < s {
		t.Fatalf("peak outstanding %d never reached S = %d", res.PeakOutstanding, s)
	}
}

func TestMissCoalescing(t *testing.T) {
	// Many concurrent requests for the same cold file must trigger exactly
	// one disk read ("multiple requests waiting on the same file from disk
	// can be satisfied with only one disk read").
	cfg := DefaultConfig("wrr", 1)
	tr := repeatTrace(50, trace.Target{Name: "/cold.bin", Size: 4 << 10})
	c, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run()
	// All S initially admitted requests miss (the file is cold), but they
	// coalesce onto a single disk read: one 4 KB file = one block = one
	// disk job for the whole run.
	if got := c.nodes[0].disks[0].Jobs(); got != 1 {
		t.Fatalf("disk jobs = %d, want 1", got)
	}
	s := cfg.Params.MaxOutstanding(1)
	if res.PerNode[0].Misses != uint64(s) {
		t.Fatalf("misses = %d, want %d", res.PerNode[0].Misses, s)
	}
}

func TestUncacheableFileAlwaysMisses(t *testing.T) {
	cfg := DefaultConfig("wrr", 1)
	cfg.CacheBytes = 1 << 20
	tr := repeatTrace(10, trace.Target{Name: "/huge.bin", Size: 2 << 20})
	res, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRatio != 0 {
		t.Fatalf("hit ratio = %v for uncacheable file", res.HitRatio)
	}
}

func TestWRRBalancesLoadAcrossNodes(t *testing.T) {
	cfg := DefaultConfig("wrr", 4)
	tr := zipfTrace(200, 8<<10, 20000, 0.9, 1)
	res, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	var min, max uint64 = math.MaxUint64, 0
	for _, n := range res.PerNode {
		if n.Requests < min {
			min = n.Requests
		}
		if n.Requests > max {
			max = n.Requests
		}
	}
	// WRR balances *active connections*, not exact request counts; with
	// heterogeneous service times the counts drift a little.
	if float64(max-min) > 0.15*float64(max) {
		t.Fatalf("WRR imbalance: min %d, max %d requests", min, max)
	}
}

func TestLARDBeatsWRRWhenWorkingSetExceedsNodeCache(t *testing.T) {
	// The paper's headline: with a working set far above one node's cache
	// but near the cluster's aggregate, LARD achieves a much lower miss
	// ratio and much higher throughput than WRR.
	const nodes = 4
	tr := zipfTrace(2000, 16<<10, 60000, 0.7, 2) // ~32 MB working set

	mk := func(k string) Result {
		cfg := DefaultConfig(k, nodes)
		cfg.CacheBytes = 8 << 20 // 8 MB per node, 32 MB aggregate
		res, err := Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wrr, lard := mk("wrr"), mk("lard")
	if lard.MissRatio >= wrr.MissRatio/2 {
		t.Fatalf("LARD miss %.3f not well below WRR miss %.3f", lard.MissRatio, wrr.MissRatio)
	}
	if lard.Throughput <= wrr.Throughput*1.5 {
		t.Fatalf("LARD throughput %.0f not well above WRR %.0f", lard.Throughput, wrr.Throughput)
	}
}

func TestAllStrategiesServeEveryRequest(t *testing.T) {
	tr := zipfTrace(300, 8<<10, 5000, 0.9, 3)
	for _, k := range PaperStrategies() {
		cfg := DefaultConfig(k, 3)
		cfg.CacheBytes = 2 << 20
		res, err := Simulate(cfg, tr)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if res.Requests != tr.Len() || res.Dropped != 0 {
			t.Fatalf("%v: served %d/%d, dropped %d", k, res.Requests, tr.Len(), res.Dropped)
		}
		var nodeReqs uint64
		for _, n := range res.PerNode {
			nodeReqs += n.Requests
		}
		if nodeReqs != uint64(tr.Len()) {
			t.Fatalf("%v: node request sum %d != %d", k, nodeReqs, tr.Len())
		}
		if res.HitRatio+res.MissRatio < 0.999 || res.HitRatio+res.MissRatio > 1.001 {
			t.Fatalf("%v: hit+miss = %v", k, res.HitRatio+res.MissRatio)
		}
		if res.Throughput <= 0 || res.SimTime <= 0 {
			t.Fatalf("%v: degenerate result %+v", k, res)
		}
	}
}

func TestGMSAggregatesCacheAndCountsRemoteHits(t *testing.T) {
	// Working set fits the aggregate cache but not one node's: WRR/GMS
	// must hit mostly in (global) memory, with many remote hits.
	tr := zipfTrace(500, 16<<10, 20000, 0.5, 4) // ~8 MB working set
	cfg := DefaultConfig(WRRGMS, 4)
	cfg.CacheBytes = 3 << 20 // 12 MB aggregate
	res, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteFraction == 0 {
		t.Fatal("no remote hits recorded under GMS with WRR distribution")
	}
	// Plain WRR with the same node cache must miss far more often: the
	// global memory turns most of its disk reads into remote-memory hits.
	cfgW := DefaultConfig("wrr", 4)
	cfgW.CacheBytes = 3 << 20
	wrr, err := Simulate(cfgW, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissRatio >= wrr.MissRatio*0.7 {
		t.Fatalf("GMS miss %v not well below WRR miss %v", res.MissRatio, wrr.MissRatio)
	}
}

func TestGMSSlowerThanLARDFasterThanWRR(t *testing.T) {
	tr := zipfTrace(1500, 16<<10, 40000, 0.7, 5)
	run := func(k string) Result {
		cfg := DefaultConfig(k, 4)
		cfg.CacheBytes = 6 << 20
		res, err := Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wrr, gms, lard := run("wrr"), run(WRRGMS), run("lard/r")
	if gms.Throughput <= wrr.Throughput {
		t.Fatalf("GMS %.0f not above WRR %.0f", gms.Throughput, wrr.Throughput)
	}
	if gms.Throughput >= lard.Throughput {
		t.Fatalf("GMS %.0f not below LARD/R %.0f", gms.Throughput, lard.Throughput)
	}
}

func TestDeterministicReplay(t *testing.T) {
	tr := zipfTrace(300, 8<<10, 8000, 0.9, 6)
	cfg := DefaultConfig("lard/r", 3)
	cfg.CacheBytes = 2 << 20
	a, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.SimTime != b.SimTime || a.Throughput != b.Throughput ||
		a.HitRatio != b.HitRatio || a.AvgDelay != b.AvgDelay {
		t.Fatalf("replay diverged:\n%+v\n%+v", a, b)
	}
}

func TestFailureInjectionAndRecovery(t *testing.T) {
	tr := zipfTrace(200, 8<<10, 30000, 0.9, 7)
	cfg := DefaultConfig("lard", 3)
	cfg.CacheBytes = 4 << 20
	cfg.Churn = []ChurnEvent{FailAt(1, 2*time.Second), RecoverAt(1, 6*time.Second)}
	c, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	res := c.Run()
	if res.Dropped != 0 {
		t.Fatalf("dropped %d requests during partial failure", res.Dropped)
	}
	if res.Requests != tr.Len() {
		t.Fatalf("served %d of %d", res.Requests, tr.Len())
	}
	// The failed node must have served strictly fewer requests than its
	// peers, but some (before failure and after recovery).
	n1 := res.PerNode[1].Requests
	if n1 == 0 {
		t.Fatal("failed node served nothing despite recovery")
	}
	if n1 >= res.PerNode[0].Requests || n1 >= res.PerNode[2].Requests {
		t.Fatalf("failed node served %d, peers %d/%d — no failure effect visible",
			n1, res.PerNode[0].Requests, res.PerNode[2].Requests)
	}
}

func TestFailureValidation(t *testing.T) {
	tr := repeatTrace(10, trace.Target{Name: "/x", Size: 100})
	cfg := DefaultConfig("lard", 2)
	cfg.Churn = []ChurnEvent{FailAt(5, time.Second)}
	if _, err := New(cfg, tr); err == nil {
		t.Fatal("out-of-range failure node accepted")
	}
	// A failure and its recovery are two events ordered by At alone, so
	// "recovers before it fails" is a schedule, not a malformed pair.
	cfg = DefaultConfig("lard", 2)
	cfg.Churn = []ChurnEvent{FailAt(0, 2*time.Second), RecoverAt(0, time.Second)}
	if _, err := New(cfg, tr); err != nil {
		t.Fatalf("recovery scheduled ahead of the failure rejected: %v", err)
	}
	cfg = DefaultConfig(WRRGMS, 2)
	cfg.Churn = []ChurnEvent{FailAt(0, time.Second)}
	if _, err := New(cfg, tr); err == nil {
		t.Fatal("failure injection with GMS accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	tr := repeatTrace(10, trace.Target{Name: "/x", Size: 100})
	bad := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.CacheBytes = -1 },
		func(c *Config) { c.Disks = 0 },
		func(c *Config) { c.Cost.CPUSpeed = 0 },
		func(c *Config) { c.Params.TLow = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig("wrr", 2)
		mutate(&cfg)
		if _, err := New(cfg, tr); err == nil {
			t.Fatalf("case %d: invalid config accepted", i)
		}
	}
	if _, err := New(DefaultConfig("wrr", 2), nil); err == nil {
		t.Fatal("nil trace accepted")
	}
	if _, err := New(DefaultConfig("wrr", 2), &trace.Trace{Name: "empty"}); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestLRUPolicyRuns(t *testing.T) {
	cfg := DefaultConfig("lard", 2)
	cfg.CachePolicy = LRU
	cfg.CacheBytes = 2 << 20
	tr := zipfTrace(200, 8<<10, 5000, 0.9, 8)
	res, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != tr.Len() {
		t.Fatalf("served %d", res.Requests)
	}
}

func TestMultipleDisksIncreaseDiskBoundThroughput(t *testing.T) {
	// A 100% miss workload (cache too small) is disk-bound; doubling the
	// disks should raise throughput substantially (Figure 13's mechanism).
	files := 400
	tr := zipfTrace(files, 32<<10, 8000, 0.05, 9) // near-uniform: no locality
	run := func(disks int) Result {
		cfg := DefaultConfig("wrr", 2)
		cfg.CacheBytes = 1 << 20 // tiny: almost everything misses
		cfg.Disks = disks
		res, err := Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, four := run(1), run(4)
	if four.Throughput < one.Throughput*1.8 {
		t.Fatalf("4 disks %.0f req/s vs 1 disk %.0f req/s: want ≥1.8x", four.Throughput, one.Throughput)
	}
}

func TestCPUSpeedHelpsOnlyCacheBoundStrategies(t *testing.T) {
	// Figures 11/12: WRR stays disk-bound and gains little from CPU
	// speed; LARD/R's cache aggregation makes it CPU-bound, so it scales.
	// Working set (128 MB) far exceeds even the scaled node cache, as in
	// the paper's Rice trace.
	tr := zipfTrace(8000, 16<<10, 60000, 1.1, 10)
	run := func(k string, speed float64, cacheMul float64) Result {
		cfg := DefaultConfig(k, 4)
		cfg.CacheBytes = int64(4 * cacheMul * (1 << 20))
		cfg.Cost = cfg.Cost.WithCPUSpeed(speed)
		res, err := Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wrr1, wrr4 := run("wrr", 1, 1), run("wrr", 4, 3)
	lard1, lard4 := run("lard/r", 1, 1), run("lard/r", 4, 3)
	wrrGain := wrr4.Throughput / wrr1.Throughput
	lardGain := lard4.Throughput / lard1.Throughput
	if lardGain < wrrGain*1.2 {
		t.Fatalf("LARD/R CPU-scaling gain %.2fx not well above WRR's %.2fx", lardGain, wrrGain)
	}
	if lard4.Throughput < wrr4.Throughput*1.5 {
		t.Fatalf("at 4x CPU, LARD/R %.0f req/s not well above WRR %.0f req/s",
			lard4.Throughput, wrr4.Throughput)
	}
}

func TestIdleFractionOrdering(t *testing.T) {
	// WRR has the best load balancing (lowest idle time); LB the worst.
	tr := zipfTrace(800, 8<<10, 30000, 1.1, 11)
	run := func(k string) Result {
		cfg := DefaultConfig(k, 4)
		cfg.CacheBytes = 4 << 20
		res, err := Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	wrr, lb := run("wrr"), run("lb")
	if wrr.IdleFraction >= lb.IdleFraction {
		t.Fatalf("WRR idle %.3f not below LB idle %.3f", wrr.IdleFraction, lb.IdleFraction)
	}
}

func TestResultString(t *testing.T) {
	res := Result{Strategy: "LARD", Nodes: 4, Throughput: 1234.5, MissRatio: 0.05}
	s := res.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func TestDiskAssignmentStripesByFrequency(t *testing.T) {
	tr := &trace.Trace{
		Name: "stripe",
		Targets: []trace.Target{
			{Name: "/hot", Size: 1}, {Name: "/warm", Size: 1}, {Name: "/cold", Size: 1},
		},
		Requests: []int32{0, 0, 0, 1, 1, 2},
	}
	assign := diskAssignment(tr, 2)
	// Frequency order: /hot(3), /warm(2), /cold(1) → disks 0, 1, 0.
	if assign("/hot") != 0 || assign("/warm") != 1 || assign("/cold") != 0 {
		t.Fatalf("assignment = %d %d %d", assign("/hot"), assign("/warm"), assign("/cold"))
	}
	if diskAssignment(tr, 1) != nil {
		t.Fatal("single-disk assignment should be nil")
	}
}

func TestStrategyNames(t *testing.T) {
	tr := repeatTrace(10, trace.Target{Name: "/x", Size: 100})
	_, want := lard.New("bogus", lard.WithNodes(2))
	if _, err := New(DefaultConfig("bogus", 2), tr); err == nil || err.Error() != "cluster: "+want.Error() {
		t.Fatalf("unknown strategy: err = %v, want the registry's %v", err, want)
	}
	for _, name := range []string{"lard/gms", "lb/gms", "WRR/GMS", "gms/gms"} {
		if _, err := New(DefaultConfig(name, 2), tr); err == nil {
			t.Fatalf("%q accepted; the one GMS configuration is %q", name, WRRGMS)
		}
	}
	for _, name := range append(lard.Strategies(), WRRGMS) {
		if _, err := New(DefaultConfig(name, 2), tr); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
	}
	// The paper's figure sweep must not pick up the extensions.
	for _, name := range PaperStrategies() {
		if name == "wlard" {
			t.Fatalf("PaperStrategies includes the extension %q", name)
		}
	}
}

func TestLabel(t *testing.T) {
	var got []string
	for _, name := range append(lard.Strategies(), WRRGMS) {
		got = append(got, Label(name))
	}
	sort.Strings(got)
	want := []string{"LARD", "LARD/R", "LB", "LB/GC", "WLARD", "WRR", "WRR/GMS"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("labels = %v, want %v", got, want)
	}
}

func TestDelayAccounting(t *testing.T) {
	cfg := DefaultConfig("wrr", 1)
	tr := repeatTrace(100, trace.Target{Name: "/x", Size: 8 << 10})
	res, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgDelay <= 0 || res.MaxDelay < res.AvgDelay {
		t.Fatalf("delays: avg %v max %v", res.AvgDelay, res.MaxDelay)
	}
	// With S=26 admitted to a single FIFO CPU, the max delay is roughly
	// S × service time; it must exceed a single service time.
	if res.MaxDelay < 930*time.Microsecond {
		t.Fatalf("max delay %v below one service time", res.MaxDelay)
	}
}

func TestPerNodeCacheStatsExposed(t *testing.T) {
	cfg := DefaultConfig("lard", 2)
	tr := zipfTrace(100, 8<<10, 2000, 0.9, 12)
	res, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	var entries int
	for _, n := range res.PerNode {
		entries += n.CacheEntries
		if n.CacheUsed > cfg.CacheBytes {
			t.Fatalf("cache used %d exceeds capacity", n.CacheUsed)
		}
	}
	if entries == 0 {
		t.Fatal("no cached entries reported")
	}
}

func ExampleSimulate() {
	tr := repeatTrace(1000, trace.Target{Name: "/index.html", Size: 8 << 10})
	res, err := Simulate(DefaultConfig("lard", 2), tr)
	if err != nil {
		panic(err)
	}
	// The initial burst of S = 91 admitted requests misses (coalesced to
	// one disk read); the remaining 909 hit.
	fmt.Printf("served %d requests, miss ratio %.4f\n", res.Requests, res.MissRatio)
	// Output: served 1000 requests, miss ratio 0.0910
}
