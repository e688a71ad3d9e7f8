package cluster

import (
	"testing"
	"time"

	"lard/pkg/lard"
)

// phttpConfig builds a persistent-connection config over a cache-pressure
// trace, dispatching connections under the named lard.ConnPolicy.
func phttpConfig(kind string, nodes, reqsPerConn int, policy string) Config {
	cfg := DefaultConfig(kind, nodes)
	cfg.CacheBytes = 64 << 10 // force real cache pressure at test scale
	cfg.ReqsPerConn = reqsPerConn
	cfg.ConnPolicy = policy
	return cfg
}

func TestPersistentValidation(t *testing.T) {
	cfg := DefaultConfig("lard", 2)
	cfg.ReqsPerConn = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative ReqsPerConn accepted")
	}
	cfg = DefaultConfig(WRRGMS, 2)
	cfg.ReqsPerConn = 4
	if err := cfg.Validate(); err == nil {
		t.Fatal("persistent connections with WRR/GMS accepted")
	}
	cfg = DefaultConfig("lard", 2)
	cfg.Cost.HandoffCost = -time.Microsecond
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative HandoffCost accepted")
	}
	cfg = DefaultConfig("lard", 2)
	cfg.ReqsPerConn = 4
	cfg.ConnPolicy = "sticky-ish"
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown ConnPolicy accepted")
	}
	// Sessions re-dispatch when their node fails or drains, so every
	// policy — pinned included — now composes with scripted churn (PR 3
	// had to reject pin + churn).
	for _, policy := range []string{lard.ConnPin, lard.ConnPerRequest, lard.ConnCostAware} {
		cfg = DefaultConfig("lard", 2)
		cfg.ReqsPerConn = 4
		cfg.ConnPolicy = policy
		cfg.Churn = []ChurnEvent{FailAt(1, time.Second)}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s persistent connections with churn rejected: %v", policy, err)
		}
	}
}

func TestConnPolicyNameResolution(t *testing.T) {
	cfg := DefaultConfig("lard", 2)
	if got := cfg.connPolicyName(); got != lard.ConnPin {
		t.Fatalf("default policy = %q, want pin", got)
	}
	cfg.ConnPolicy = lard.ConnCostAware
	if got := cfg.connPolicyName(); got != lard.ConnCostAware {
		t.Fatalf("explicit policy = %q, want costaware", got)
	}
}

func TestPersistentServesWholeTrace(t *testing.T) {
	tr := zipfTrace(40, 8<<10, 2000, 0.8, 7)
	for _, policy := range []string{lard.ConnPin, lard.ConnPerRequest, lard.ConnCostAware} {
		res, err := Simulate(phttpConfig("lard", 4, 8, policy), tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Requests != tr.Len() || res.Dropped != 0 {
			t.Fatalf("%s: served %d of %d (%d dropped)",
				policy, res.Requests, tr.Len(), res.Dropped)
		}
		var nodeReqs uint64
		for _, n := range res.PerNode {
			nodeReqs += n.Requests
		}
		if nodeReqs != uint64(tr.Len()) {
			t.Fatalf("%s: node requests %d != trace %d", policy, nodeReqs, tr.Len())
		}
		if res.Throughput <= 0 || res.SimTime <= 0 {
			t.Fatalf("%s: degenerate result %+v", policy, res)
		}
		if policy != lard.ConnPin && res.Rehandoffs == 0 {
			t.Fatalf("%s recorded no back-end switches", policy)
		}
		if policy == lard.ConnPin && res.Rehandoffs != 0 {
			t.Fatalf("pinned mode recorded %d re-handoffs", res.Rehandoffs)
		}
	}
}

func TestPersistentAffinityCostsLARDLocality(t *testing.T) {
	// The locality-vs-affinity trade-off in one assertion pair: pinning a
	// persistent connection to its first request's node scatters the
	// remaining requests across the wrong caches, so LARD's miss ratio
	// under per-connection handoff must exceed per-request re-handoff,
	// and re-handoff must recover (most of) the HTTP/1.0 miss ratio.
	tr := zipfTrace(120, 8<<10, 4000, 0.7, 11)

	baseline, err := Simulate(phttpConfig("lard", 4, 0, ""), tr) // HTTP/1.0 model
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := Simulate(phttpConfig("lard", 4, 16, lard.ConnPin), tr)
	if err != nil {
		t.Fatal(err)
	}
	rehandoff, err := Simulate(phttpConfig("lard", 4, 16, lard.ConnPerRequest), tr)
	if err != nil {
		t.Fatal(err)
	}

	if pinned.MissRatio <= rehandoff.MissRatio {
		t.Fatalf("pinned miss %.3f not above re-handoff miss %.3f",
			pinned.MissRatio, rehandoff.MissRatio)
	}
	if rehandoff.MissRatio > baseline.MissRatio*1.5 {
		t.Fatalf("re-handoff miss %.3f lost the HTTP/1.0 locality %.3f",
			rehandoff.MissRatio, baseline.MissRatio)
	}
	if rehandoff.Throughput <= pinned.Throughput {
		t.Fatalf("re-handoff throughput %.1f not above pinned %.1f (misses cost more than handoffs)",
			rehandoff.Throughput, pinned.Throughput)
	}
}

func TestCostAwareHoldsLocalityWithFewerMoves(t *testing.T) {
	// The cost-aware middle on a trace with a real cold tail: it must
	// land between the extremes — fewer back-end switches than
	// per-request, better miss ratio than pinning.
	tr := zipfTrace(600, 8<<10, 4000, 0.7, 11)

	pinned, err := Simulate(phttpConfig("lard", 4, 8, lard.ConnPin), tr)
	if err != nil {
		t.Fatal(err)
	}
	perreq, err := Simulate(phttpConfig("lard", 4, 8, lard.ConnPerRequest), tr)
	if err != nil {
		t.Fatal(err)
	}
	costaware, err := Simulate(phttpConfig("lard", 4, 8, lard.ConnCostAware), tr)
	if err != nil {
		t.Fatal(err)
	}

	if costaware.Rehandoffs >= perreq.Rehandoffs {
		t.Fatalf("cost-aware switched %d times, per-request %d: no moves saved",
			costaware.Rehandoffs, perreq.Rehandoffs)
	}
	if costaware.Rehandoffs == 0 {
		t.Fatal("cost-aware never moved: warm targets should justify switches")
	}
	if costaware.MissRatio >= pinned.MissRatio {
		t.Fatalf("cost-aware miss %.3f not below pinned %.3f",
			costaware.MissRatio, pinned.MissRatio)
	}
}

func TestPinnedSessionMovesOnChurn(t *testing.T) {
	// A pinned connection whose node fails moves on its next request —
	// the session semantics that made pin + churn supportable. One of two
	// nodes fails mid-run and recovers later; the whole trace must still
	// be served, with the forced moves visible as re-handoffs.
	tr := zipfTrace(40, 8<<10, 2000, 0.8, 7)
	cfg := phttpConfig("lard", 2, 16, lard.ConnPin)
	cfg.Churn = []ChurnEvent{FailAt(0, 200*time.Millisecond), RecoverAt(0, 2*time.Second)}
	res, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 {
		t.Fatalf("%d requests dropped with one node always alive", res.Dropped)
	}
	if res.Rehandoffs == 0 {
		t.Fatal("no forced moves recorded: pinned sessions served through the failure")
	}
}

// TestPersistentFixedLengthRuns: connections of ReqsPerConn requests, the
// last one cut short by the end of the trace (1500 = 214·7 + 2), serve
// every request, and an identical run gives an identical result.
func TestPersistentFixedLengthRuns(t *testing.T) {
	tr := zipfTrace(40, 8<<10, 1500, 0.8, 3)
	cfg := phttpConfig("lard/r", 4, 7, lard.ConnPerRequest)
	res, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != tr.Len() || res.Dropped != 0 {
		t.Fatalf("served %d of %d (%d dropped)", res.Requests, tr.Len(), res.Dropped)
	}
	// Reproducibility: identical config and trace, identical result.
	res2, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput != res2.Throughput || res.MissRatio != res2.MissRatio {
		t.Fatalf("non-deterministic persistent run: %v vs %v", res, res2)
	}
}

func TestPersistentAdmissionBoundHolds(t *testing.T) {
	// The closed loop must still respect S even when connections hold
	// slots for many requests (pinned) or re-dispatch mid-stream.
	tr := zipfTrace(30, 8<<10, 1200, 0.9, 13)
	for _, policy := range []string{lard.ConnPin, lard.ConnPerRequest, lard.ConnCostAware} {
		cfg := phttpConfig("lard", 2, 8, policy)
		s := cfg.Params.MaxOutstanding(2)
		res, err := Simulate(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.PeakOutstanding > s {
			t.Fatalf("%s: peak %d exceeds S=%d", policy, res.PeakOutstanding, s)
		}
	}
}
