package cluster

import (
	"testing"

	"lard/internal/breaker"
	"lard/internal/trace"
)

// TestQuotaShedsAbuserInSim attributes half the trace to one abusive
// client identity and the rest to 8 well-behaved ones, with a per-client
// quota sized between the two offered rates: the abuser must be shed
// heavily while the well-behaved clients lose nothing.
func TestQuotaShedsAbuserInSim(t *testing.T) {
	cfg := DefaultConfig("lard", 2)
	cfg.QuotaRate = 500 // req/s per client: well clients offer ~150, the abuser >1000
	cfg.QuotaClients = 8
	cfg.AbuseShare = 0.5
	tr := repeatTrace(30000,
		trace.Target{Name: "/a.html", Size: 8 << 10},
		trace.Target{Name: "/b.html", Size: 8 << 10})
	res, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests+res.Dropped+res.Sheds != tr.Len() {
		t.Fatalf("accounting: %d served + %d dropped + %d shed != %d trace requests",
			res.Requests, res.Dropped, res.Sheds, tr.Len())
	}
	if res.Sheds == 0 {
		t.Fatal("abusive load was never shed")
	}
	// The abuser offers far over quota, each well-behaved client far
	// under: every shed should land on the abuser.
	if res.AbuserSheds != res.Sheds {
		t.Fatalf("%d of %d sheds hit well-behaved clients", res.Sheds-res.AbuserSheds, res.Sheds)
	}
	// Most of the abuser's ~15000 attributed requests exceed its quota.
	if res.AbuserSheds < tr.Len()/10 {
		t.Fatalf("abuser shed only %d of %d requests — quota not biting", res.AbuserSheds, tr.Len())
	}
	if res.Dropped != 0 {
		t.Fatalf("dropped %d requests with all nodes healthy", res.Dropped)
	}
}

// TestQuotaOffShedsNothing: without QuotaRate the sim behaves exactly as
// before the subsystem existed.
func TestQuotaOffShedsNothing(t *testing.T) {
	cfg := DefaultConfig("lard", 2)
	tr := repeatTrace(2000, trace.Target{Name: "/x", Size: 4 << 10})
	res, err := Simulate(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sheds != 0 || res.AbuserSheds != 0 || res.BreakerTrips != 0 || res.BreakerDrops != 0 {
		t.Fatalf("overload counters nonzero with the subsystem off: %+v", res)
	}
	if res.Requests != tr.Len() {
		t.Fatalf("Requests = %d, want %d", res.Requests, tr.Len())
	}
}

// TestBreakerDetectsFailureWithoutOracle replaces the simulator's failure
// oracle with breaker detection: a node scripted unresponsive is never
// reported to the dispatcher, yet after a handful of failed dispatches
// its breaker trips and the gate detours traffic — the cluster loses only
// the requests that fed the detection, not a third of the trace.
func TestBreakerDetectsFailureWithoutOracle(t *testing.T) {
	tr := zipfTrace(48, 4<<10, 60000, 0.8, 7)

	run := func(recover bool) (Result, *Cluster) {
		t.Helper()
		base, err := Simulate(churnConfig("lard"), tr)
		if err != nil {
			t.Fatal(err)
		}
		cfg := churnConfig("lard")
		cfg.Breaker = &breaker.Config{}
		cfg.Churn = []ChurnEvent{FailAt(1, base.SimTime/3)}
		if recover {
			cfg.Churn = append(cfg.Churn, RecoverAt(1, 2*base.SimTime/3))
		}
		c, err := New(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		return c.Run(), c
	}

	failOnly, cFail := run(false)
	recovered, cRec := run(true)

	for _, res := range []Result{failOnly, recovered} {
		if res.BreakerTrips == 0 {
			t.Fatalf("breaker never tripped: %+v", res)
		}
		if res.BreakerDrops == 0 || res.Dropped != res.BreakerDrops {
			t.Fatalf("drop accounting: dropped=%d breakerDrops=%d", res.Dropped, res.BreakerDrops)
		}
		// Detection costs a few requests per trip cycle (FailureThreshold
		// consecutive failures, then one probe burst per open window) —
		// not a sustained outage.
		if res.BreakerDrops > tr.Len()/100 {
			t.Fatalf("breaker detection lost %d of %d requests — gate not detouring", res.BreakerDrops, tr.Len())
		}
	}

	// With no recovery the failed node's breaker keeps re-opening on
	// probe failures; once recovered it must re-admit the node.
	if st := cRec.ov.breakers.State(1, cRec.eng.Now()); st == breaker.Open {
		t.Fatalf("breaker still open after recovery (state %v)", st)
	}
	if recovered.PerNode[1].Requests <= failOnly.PerNode[1].Requests {
		t.Fatalf("recovered node served %d requests, fail-only %d — recovery never re-admitted it",
			recovered.PerNode[1].Requests, failOnly.PerNode[1].Requests)
	}
	_ = cFail
}

// TestOverloadConfigValidation covers the new Validate rejections.
func TestOverloadConfigValidation(t *testing.T) {
	tr := repeatTrace(10, trace.Target{Name: "/x", Size: 1 << 10})

	cfg := DefaultConfig("lard", 2)
	cfg.QuotaRate = -1
	if _, err := New(cfg, tr); err == nil {
		t.Fatal("negative QuotaRate accepted")
	}

	cfg = DefaultConfig("lard", 2)
	cfg.AbuseShare = 0.5 // without QuotaRate
	if _, err := New(cfg, tr); err == nil {
		t.Fatal("AbuseShare without QuotaRate accepted")
	}

	cfg = DefaultConfig("lard", 2)
	cfg.QuotaRate = 10
	cfg.AbuseShare = 1.5
	if _, err := New(cfg, tr); err == nil {
		t.Fatal("AbuseShare outside [0,1) accepted")
	}

	cfg = DefaultConfig("lard", 2)
	cfg.QuotaRate = 10
	cfg.ReqsPerConn = 4
	if _, err := New(cfg, tr); err == nil {
		t.Fatal("quota with persistent connections accepted")
	}

	cfg = DefaultConfig(WRRGMS, 2)
	cfg.Breaker = &breaker.Config{}
	if _, err := New(cfg, tr); err == nil {
		t.Fatal("breaker with WRR/GMS accepted")
	}
}
