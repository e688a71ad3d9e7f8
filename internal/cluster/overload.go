package cluster

import (
	"fmt"
	"math/rand"
	"time"

	"lard/internal/breaker"
	"lard/internal/quota"
)

// This file is the simulated half of the overload-protection subsystem:
// the same internal/quota and internal/breaker state machines the live
// front end runs, driven by the simulator's virtual clock (sim.Engine
// time, never the wall clock — lardlint's wallclock analyzer checks all
// three packages).
//
// Quota: each admitted trace request is attributed to a client identity
// (QuotaClients well-behaved clients, drawn uniformly, plus one abuser
// taking AbuseShare of the stream) and charged against that client's
// token bucket; over-quota requests are shed at the front door.
//
// Breaker: with Config.Breaker set, ChurnFail stops telling the
// dispatcher (the oracle the paper's simulator assumes) and instead
// marks the node unresponsive. Requests dispatched to it fail like
// refused connections, feeding its breaker, until the breaker trips and
// its gate (lard.SetNodeGate) detours traffic — detection latency and
// the recovery ramp become visible in the timeline. The simulation
// meters only detection and gating; the live front end additionally
// consumes Allow() admissions per new back-end connection.

// abuserClient is the abusive identity's quota key.
const abuserClient = "abuser"

// overloadSim is the Cluster's overload-protection state.
type overloadSim struct {
	quota    *quota.Limiter // nil = quota off
	breakers *breaker.Set   // nil = breaker detection off
	rng      *rand.Rand
	cfg      Config

	failed []bool // breaker mode: nodes scripted unresponsive

	sheds        int // quota sheds, total
	abuserSheds  int // quota sheds attributed to the abuser
	breakerDrops int // requests lost to an unresponsive node pre-trip
	breakerTrips int // breaker transitions to Open
}

// initOverload wires the quota and breaker simulations; called from New
// after the dispatcher exists.
func (c *Cluster) initOverload() {
	c.ov.cfg = c.cfg
	if c.cfg.QuotaRate > 0 {
		c.ov.rng = rand.New(rand.NewSource(1))
		c.ov.quota = quota.New(quota.Config{
			Rate:  c.cfg.QuotaRate,
			Burst: c.cfg.QuotaBurst,
		})
	}
	if c.cfg.Breaker != nil {
		bcfg := *c.cfg.Breaker
		prev := bcfg.OnTransition
		bcfg.OnTransition = func(node int, from, to breaker.State, now time.Duration) {
			if to == breaker.Open {
				c.ov.breakerTrips++
			}
			if prev != nil {
				prev(node, from, to, now)
			}
		}
		c.ov.breakers = breaker.New(bcfg)
		c.d.SetNodeGate(func(node int) bool {
			return c.ov.breakers.Healthy(node, c.eng.Now())
		})
	}
}

// drawClient attributes the next admitted request to a client identity.
func (s *overloadSim) drawClient() string {
	if s.cfg.AbuseShare > 0 && s.rng.Float64() < s.cfg.AbuseShare {
		return abuserClient
	}
	n := s.cfg.QuotaClients
	if n <= 0 {
		n = 16
	}
	return fmt.Sprintf("client%d", s.rng.Intn(n))
}

// setFailed flags a node (un)responsive for the breaker-detection mode,
// growing the slice for runtime joins.
func (s *overloadSim) setFailed(node int, failed bool) {
	for node >= len(s.failed) {
		s.failed = append(s.failed, false)
	}
	s.failed[node] = failed
}

// nodeFailed reports whether the node is scripted unresponsive.
func (s *overloadSim) nodeFailed(node int) bool {
	return node < len(s.failed) && s.failed[node]
}
