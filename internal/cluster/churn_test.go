package cluster

import (
	"testing"
	"time"
)

// churnConfig is the shared setup of the churn tests: a cache-pressure
// workload (working set ≈ 3 node caches over 4 nodes) with timeline
// sampling on.
func churnConfig(k string) Config {
	cfg := DefaultConfig(k, 4)
	cfg.CacheBytes = 64 << 10
	return cfg
}

// TestChurnFailRecoverRewarmsCache pins the Section 2.6 recovery story
// numerically on the scripted fail-at-T/recover-at-2T schedule: when the
// failed node rejoins with a cold cache, LARD's windowed miss ratio spikes
// (the node's targets were re-assigned at failure and now re-assign back
// to it as first-time assignments) and then decays as the cache re-warms.
// WRR, which never had cache aggregation to lose, shows no comparable
// recovery dynamics — its miss ratio is high throughout.
func TestChurnFailRecoverRewarmsCache(t *testing.T) {
	tr := zipfTrace(48, 4<<10, 60000, 0.8, 7)

	run := func(k string) Result {
		t.Helper()
		base, err := Simulate(churnConfig(k), tr)
		if err != nil {
			t.Fatal(err)
		}
		cfg := churnConfig(k)
		failAt := base.SimTime / 3
		recoverAt := 2 * base.SimTime / 3
		cfg.Churn = []ChurnEvent{FailAt(1, failAt), RecoverAt(1, recoverAt)}
		cfg.SampleEvery = base.SimTime / 60
		res, err := Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dropped != 0 {
			t.Fatalf("%s dropped %d requests with 3 surviving nodes", k, res.Dropped)
		}
		return res
	}

	lard := run("lard")
	wrr := run("wrr")

	// Locate the recovery point in LARD's timeline: AliveNodes goes
	// 4 → 3 → 4.
	recIdx := -1
	sawFailure := false
	for i, s := range lard.Timeline {
		if s.AliveNodes == 3 {
			sawFailure = true
		}
		if sawFailure && s.AliveNodes == 4 {
			recIdx = i
			break
		}
	}
	if !sawFailure || recIdx < 0 {
		t.Fatalf("LARD timeline never showed failure+recovery: %+v", lard.Timeline)
	}
	tail := lard.Timeline[recIdx:]
	if len(tail) < 6 {
		t.Fatalf("only %d samples after recovery; lengthen the trace", len(tail))
	}

	// The rejoined node's cold cache must spike the windowed miss ratio
	// right after recovery...
	spike := maxMiss(tail[:3])
	if spike < 0.10 {
		t.Fatalf("post-recovery miss spike = %.3f, want a visible cold-cache spike", spike)
	}
	// ...and the spike must decay as LARD re-warms the cache: the last
	// third of the run settles well below the spike.
	settled := avgMiss(tail[2*len(tail)/3:])
	if settled > spike*0.5 {
		t.Fatalf("miss ratio did not decay after recovery: spike %.3f, settled %.3f", spike, settled)
	}

	// WRR has no locality to rebuild: with the working set over the node
	// cache, its steady-state miss ratio stays above LARD's settled one.
	if wrr.MissRatio < lard.MissRatio {
		t.Fatalf("WRR overall miss %.3f below LARD %.3f despite churn", wrr.MissRatio, lard.MissRatio)
	}
	if settled > wrr.MissRatio {
		t.Fatalf("LARD settled windowed miss %.3f above WRR average %.3f — cache never re-aggregated",
			settled, wrr.MissRatio)
	}
}

func maxMiss(ss []TimelineSample) float64 {
	m := 0.0
	for _, s := range ss {
		if s.MissRatio > m {
			m = s.MissRatio
		}
	}
	return m
}

func avgMiss(ss []TimelineSample) float64 {
	if len(ss) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range ss {
		sum += s.MissRatio
	}
	return sum / float64(len(ss))
}

// TestChurnJoinDrainLeave exercises the remaining scripted operations in
// one run: a node joins mid-run and picks up traffic, a draining node
// stops receiving new work, and a removed node never serves again.
func TestChurnJoinDrainLeave(t *testing.T) {
	tr := zipfTrace(32, 4<<10, 30000, 0.8, 11)
	base, err := Simulate(churnConfig("lard/r"), tr)
	if err != nil {
		t.Fatal(err)
	}

	cfg := churnConfig("lard/r")
	cfg.Churn = []ChurnEvent{
		JoinAt(base.SimTime / 4),     // node 4 appears
		DrainAt(1, base.SimTime/2),   // node 1 drains...
		LeaveAt(1, 3*base.SimTime/4), // ...and leaves for good
		UndrainAt(0, base.SimTime/3), // no-op: node 0 was never draining
	}
	cfg.SampleEvery = base.SimTime / 30
	res, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}

	if res.Nodes != 5 {
		t.Fatalf("Result.Nodes = %d, want 5 after join", res.Nodes)
	}
	if len(res.PerNode) != 5 {
		t.Fatalf("PerNode has %d entries", len(res.PerNode))
	}
	if res.PerNode[4].Requests == 0 {
		t.Fatal("joined node never served a request")
	}
	if res.Dropped != 0 {
		t.Fatalf("dropped %d requests", res.Dropped)
	}
	if res.Requests != tr.Len() {
		t.Fatalf("served %d of %d requests", res.Requests, tr.Len())
	}

	// The timeline's alive count must reflect the schedule: up to 5 after
	// the join, down to 4 after the drain, and still 4 after the leave
	// (drain and leave overlap on node 1).
	peak := 0
	for _, s := range res.Timeline {
		if s.AliveNodes > peak {
			peak = s.AliveNodes
		}
	}
	if peak != 5 {
		t.Fatalf("timeline peak alive = %d, want 5", peak)
	}
	last := res.Timeline[len(res.Timeline)-1]
	if last.AliveNodes != 4 {
		t.Fatalf("final alive = %d, want 4", last.AliveNodes)
	}
}

// TestSamplingDoesNotAlterMetrics pins that turning the timeline sampler
// on is purely observational: the pending tick after the last completion
// is cancelled, so SimTime and Throughput match the unsampled run
// exactly (the engine is deterministic).
func TestSamplingDoesNotAlterMetrics(t *testing.T) {
	tr := zipfTrace(16, 4<<10, 5000, 0.8, 3)
	plain, err := Simulate(DefaultConfig("lard", 2), tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig("lard", 2)
	// A coarse window: without cancellation the trailing tick would
	// inflate SimTime by up to half the run.
	cfg.SampleEvery = plain.SimTime / 2
	sampled, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if sampled.SimTime != plain.SimTime {
		t.Fatalf("SimTime %v with sampling, %v without", sampled.SimTime, plain.SimTime)
	}
	if sampled.Throughput != plain.Throughput {
		t.Fatalf("Throughput %v with sampling, %v without", sampled.Throughput, plain.Throughput)
	}
	if len(sampled.Timeline) == 0 {
		t.Fatal("no timeline recorded")
	}
	total := 0
	for _, s := range sampled.Timeline {
		total += s.Completed
	}
	if total != sampled.Requests {
		t.Fatalf("timeline windows cover %d of %d requests", total, sampled.Requests)
	}
}

// TestChurnValidation covers the new Config.Validate paths.
func TestChurnValidation(t *testing.T) {
	cfg := DefaultConfig("lard", 2)
	cfg.Churn = []ChurnEvent{FailAt(5, time.Second)}
	if err := cfg.Validate(); err == nil {
		t.Fatal("out-of-range churn node accepted")
	}
	cfg.Churn = []ChurnEvent{JoinAt(time.Second), FailAt(2, 2*time.Second)}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("join-extended index rejected: %v", err)
	}
	// Referencing the joined node before its join must be rejected, not
	// silently dropped at runtime.
	cfg.Churn = []ChurnEvent{JoinAt(2 * time.Second), FailAt(2, time.Second)}
	if err := cfg.Validate(); err == nil {
		t.Fatal("fail-before-join accepted")
	}
	cfg.Churn = []ChurnEvent{{At: -time.Second, Op: ChurnFail, Node: 0}}
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative churn time accepted")
	}
	cfg.Churn = nil
	cfg.SampleEvery = -time.Second
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative SampleEvery accepted")
	}
	gms := DefaultConfig(WRRGMS, 2)
	gms.Churn = []ChurnEvent{JoinAt(time.Second)}
	if err := gms.Validate(); err == nil {
		t.Fatal("churn with WRR/GMS accepted")
	}
}
