package breaker

import (
	"math/rand"
	"testing"
	"time"
)

// testConfig is small and fast so tests can walk the whole cycle.
func testConfig() Config {
	return Config{
		FailureThreshold: 3,
		OpenBase:         100 * time.Millisecond,
		HalfOpenProbes:   2,
		Ramp:             []int{25, 50, 100},
		RampStep:         50 * time.Millisecond,
	}
}

func trip(t *testing.T, s *Set, id int, now time.Duration) time.Duration {
	t.Helper()
	for i := 0; i < s.Config().FailureThreshold; i++ {
		s.Failure(id, now)
		now += time.Millisecond
	}
	if st := s.State(id, now); st != Open {
		t.Fatalf("after %d failures state = %v, want Open", s.Config().FailureThreshold, st)
	}
	return now
}

func TestTripOnConsecutiveFailures(t *testing.T) {
	s := New(testConfig())
	now := time.Duration(0)
	s.Failure(0, now)
	s.Failure(0, now)
	if st := s.State(0, now); st != Closed {
		t.Fatalf("state after 2 failures = %v, want Closed", st)
	}
	s.Success(0, now) // resets the consecutive count
	s.Failure(0, now)
	s.Failure(0, now)
	if st := s.State(0, now); st != Closed {
		t.Fatalf("success did not reset consecutive failures: %v", st)
	}
	s.Failure(0, now)
	if st := s.State(0, now); st != Open {
		t.Fatalf("state after 3 consecutive failures = %v, want Open", st)
	}
	if !s.Healthy(1, now) || !s.Allow(1, now) {
		t.Fatal("other node's breaker must be unaffected")
	}
}

func TestTripOnFailureRate(t *testing.T) {
	cfg := testConfig()
	cfg.FailureThreshold = 1000 // only the rate can trip
	s := New(cfg)
	now := time.Duration(0)
	// Alternate failure/success: just over failureRate, below
	// windowMinSamples.
	for i := 0; i < windowMinSamples-1; i++ {
		if i%2 == 0 {
			s.Failure(0, now)
		} else {
			s.Success(0, now)
		}
		if st := s.State(0, now); st != Closed {
			t.Fatalf("tripped before WindowMinSamples at i=%d", i)
		}
	}
	s.Failure(0, now) // the windowMinSamples-th sample: 11/20 ≥ 0.5
	if st := s.State(0, now); st != Open {
		t.Fatalf("state = %v, want Open on failure rate", st)
	}
}

func TestWindowExpiryForgetsRate(t *testing.T) {
	cfg := testConfig()
	cfg.FailureThreshold = 1000
	s := New(cfg)
	now := time.Duration(0)
	// One sample short of windowMinSamples, every one a failure: one more
	// in the same window would trip on the rate.
	for i := 0; i < windowMinSamples-1; i++ {
		s.Failure(0, now)
		now += 10 * time.Millisecond
	}
	// Window expires; old failures must not count toward the rate.
	now += window
	s.Failure(0, now)
	for i := 0; i < windowMinSamples-1; i++ {
		s.Success(0, now)
	}
	if st := s.State(0, now); st != Closed {
		t.Fatalf("state = %v, want Closed after window reset (1/%d failures)", st, windowMinSamples)
	}
}

func TestHalfOpenAdmitsExactlyProbeBudget(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	now := trip(t, s, 0, 0)
	if s.Allow(0, now) {
		t.Fatal("Open must not admit")
	}
	now += s.backoff(1)
	if st := s.State(0, now); st != HalfOpen {
		t.Fatalf("state after backoff = %v, want HalfOpen", st)
	}
	admitted := 0
	for i := 0; i < 50; i++ {
		if s.Allow(0, now) {
			admitted++
		}
	}
	if admitted != cfg.HalfOpenProbes {
		t.Fatalf("half-open admitted %d, want exactly %d", admitted, cfg.HalfOpenProbes)
	}
	// Healthy (non-consuming) must report unhealthy once the budget is
	// spent, but must never have consumed it itself.
	if s.Healthy(0, now) {
		t.Fatal("Healthy must be false once the probe budget is spent")
	}
}

func TestHealthyDoesNotConsumeBudget(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	now := trip(t, s, 0, 0)
	now += s.backoff(1)
	for i := 0; i < 100; i++ {
		if !s.Healthy(0, now) {
			t.Fatalf("Healthy consumed probe budget at call %d", i)
		}
	}
	admitted := 0
	for i := 0; i < 10; i++ {
		if s.Allow(0, now) {
			admitted++
		}
	}
	if admitted != cfg.HalfOpenProbes {
		t.Fatalf("admitted %d after Healthy calls, want %d", admitted, cfg.HalfOpenProbes)
	}
}

func TestHalfOpenFailureReopensWithDoubledBackoff(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	now := trip(t, s, 0, 0)
	now += s.backoff(1)
	if !s.Allow(0, now) {
		t.Fatal("half-open must admit a probe")
	}
	s.Failure(0, now)
	if st := s.State(0, now); st != Open {
		t.Fatalf("state = %v, want Open after probe failure", st)
	}
	// First backoff must not be enough the second time around.
	if st := s.State(0, now+s.backoff(1)); st != Open {
		t.Fatalf("reopened breaker came back after base backoff; want doubled")
	}
	if st := s.State(0, now+s.backoff(2)); st != HalfOpen {
		t.Fatalf("state = %v, want HalfOpen after doubled backoff", st)
	}
}

func TestBackoffCapped(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	if got := s.backoff(20); got != openMax {
		t.Fatalf("backoff(20) = %v, want cap %v", got, openMax)
	}
	// A first backoff longer than the cap is not cut down to it.
	cfg.OpenBase = time.Minute
	if got := New(cfg).backoff(20); got != cfg.OpenBase {
		t.Fatalf("backoff(20) with OpenBase %v = %v, want %v", cfg.OpenBase, got, cfg.OpenBase)
	}
}

func TestRecoveryRampMonotoneAndCloses(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	now := trip(t, s, 0, 0)
	now += s.backoff(1)
	for i := 0; i < cfg.HalfOpenProbes; i++ {
		if !s.Allow(0, now) {
			t.Fatal("probe budget exhausted early")
		}
		s.Success(0, now)
	}
	if st := s.State(0, now); st != Recovering {
		t.Fatalf("state = %v, want Recovering after successful probes", st)
	}

	// Sample the admitted fraction at each ramp level; it must be
	// monotone non-decreasing and end at full admission, then Closed.
	prev := -1.0
	for level := range cfg.Ramp {
		admitted := 0
		const trials = 400
		for i := 0; i < trials; i++ {
			if s.Allow(0, now) {
				admitted++
			}
		}
		frac := float64(admitted) / trials
		want := float64(cfg.Ramp[level]) / 100
		if frac < want-0.05 || frac > want+0.05 {
			t.Fatalf("level %d admitted fraction %.2f, want ≈%.2f", level, frac, want)
		}
		if frac < prev {
			t.Fatalf("recovery ramp not monotone: %.2f after %.2f", frac, prev)
		}
		prev = frac
		now += cfg.RampStep
	}
	if st := s.State(0, now); st != Closed {
		t.Fatalf("state = %v, want Closed after full ramp", st)
	}
	// A full close resets the trip count: next trip uses base backoff.
	now = trip(t, s, 0, now)
	if st := s.State(0, now+s.backoff(1)); st != HalfOpen {
		t.Fatalf("trip count not reset by full close: %v", st)
	}
}

func TestRecoveringFailureReopens(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	now := trip(t, s, 0, 0)
	now += s.backoff(1)
	for i := 0; i < cfg.HalfOpenProbes; i++ {
		s.Allow(0, now)
		s.Success(0, now)
	}
	s.Failure(0, now)
	if st := s.State(0, now); st != Open {
		t.Fatalf("state = %v, want Open after failure during recovery", st)
	}
}

func TestSuccessWhileOpenStartsProbeRound(t *testing.T) {
	// The front-end prober dials a marked-down node out of band; its
	// success is evidence even while the breaker is Open.
	cfg := testConfig()
	s := New(cfg)
	now := trip(t, s, 0, 0)
	s.Success(0, now) // prober got through: HalfOpen, 1 success credited
	if st := s.State(0, now); st != HalfOpen {
		t.Fatalf("state = %v, want HalfOpen after success while open", st)
	}
	s.Success(0, now) // second probe success completes the budget of 2
	if st := s.State(0, now); st != Recovering {
		t.Fatalf("state = %v, want Recovering", st)
	}
}

func TestHungHalfOpenReopensWithoutPenalty(t *testing.T) {
	cfg := testConfig()
	s := New(cfg)
	now := trip(t, s, 0, 0)
	now += s.backoff(1)
	s.Allow(0, now) // probe issued, outcome never reported
	now += s.backoff(1)
	if st := s.State(0, now); st != Open {
		t.Fatalf("state = %v, want Open after hung half-open round", st)
	}
	// Trip count unchanged: base backoff re-admits probes.
	now += s.backoff(1)
	if st := s.State(0, now); st != HalfOpen {
		t.Fatalf("state = %v, want HalfOpen (no backoff penalty for hung probes)", st)
	}
}

// TestNeverStuckOpen is the headline liveness property: whatever
// outcome sequence a breaker has absorbed, once failures stop, bounded
// time plus the node's own successful probes always bring it back to
// Closed.
func TestNeverStuckOpen(t *testing.T) {
	cfg := testConfig()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(cfg)
		now := time.Duration(0)
		// Arbitrary history: random outcomes and time steps.
		for i := 0; i < 500; i++ {
			switch rng.Intn(3) {
			case 0:
				s.Failure(0, now)
			case 1:
				s.Success(0, now)
			case 2:
				s.Allow(0, now)
			}
			now += time.Duration(rng.Intn(int(cfg.OpenBase)))
		}
		// Recovery phase: the node is healthy; every admitted request
		// succeeds. The breaker must reach Closed within a bounded
		// number of backoff spans.
		deadline := now + 20*openMax
		for now < deadline {
			if s.Allow(0, now) {
				s.Success(0, now)
			}
			now += cfg.RampStep / 2
			if s.State(0, now) == Closed {
				break
			}
		}
		if st := s.State(0, now); st != Closed {
			t.Fatalf("seed %d: breaker stuck in %v after healthy phase", seed, st)
		}
	}
}

func TestSnapshot(t *testing.T) {
	s := New(testConfig())
	now := trip(t, s, 1, 0)
	snap := s.Snapshot(now)
	if len(snap) != 2 {
		t.Fatalf("snapshot length = %d, want 2", len(snap))
	}
	if snap[0].State != Closed || snap[1].State != Open || snap[1].Trips != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestTransitionCallback(t *testing.T) {
	var seen []string
	cfg := testConfig()
	cfg.OnTransition = func(node int, from, to State, now time.Duration) {
		seen = append(seen, from.String()+"->"+to.String())
	}
	s := New(cfg)
	now := trip(t, s, 0, 0)
	now += s.backoff(1)
	s.State(0, now) // forces Open -> HalfOpen
	for i := 0; i < cfg.HalfOpenProbes; i++ {
		s.Allow(0, now)
		s.Success(0, now)
	}
	want := []string{"closed->open", "open->halfopen", "halfopen->recovering"}
	if len(seen) != len(want) {
		t.Fatalf("transitions %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transition[%d] = %q, want %q", i, seen[i], want[i])
		}
	}
}
