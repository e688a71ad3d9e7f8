// Package capacity is the saturation harness: it answers "how many
// requests per second can this cluster configuration sustain?" the way
// the paper's Section 6 throughput figures do, but closed-loop against
// the live prototype. A probe offers a fixed request rate (loadgen's
// paced mode) for a measurement window and checks the result against a
// service-level objective — p99 latency and error rate. The harness
// ramps the offered rate geometrically until the SLO breaks, then
// binary-searches the knee: the highest rate the SLO still holds at.
// The sweep driver (sweep.go) repeats the search across dispatcher
// configurations (locked vs sharded, GOMAXPROCS, connection policy) and
// emits the machine-readable report scripts/bench.sh stores as
// BENCH_PR10.json.
package capacity

import (
	"fmt"
	"time"
)

// SLO is the service-level objective a measurement must meet for its
// offered rate to count as sustained.
type SLO struct {
	// P99 is the highest acceptable 99th-percentile request latency.
	P99 time.Duration `json:"p99_ns"`

	// ErrRate is the highest acceptable error fraction
	// (errors / (requests + errors)).
	ErrRate float64 `json:"err_rate"`
}

// DefaultSLO is the sweep's objective when none is given: a generous
// 250ms p99 (an interactive-page budget, far above the healthy-cluster
// latencies on loopback) and at most 1% errors. The knee is insensitive
// to the exact p99 bound because latency explodes, not creeps, past
// saturation.
var DefaultSLO = SLO{P99: 250 * time.Millisecond, ErrRate: 0.01}

// Measurement is one probe: the cluster observed at one offered rate.
type Measurement struct {
	OfferedRate float64       `json:"offered_rps"`
	Throughput  float64       `json:"throughput_rps"` // successful requests per second
	P99         time.Duration `json:"p99_ns"`
	ErrRate     float64       `json:"err_rate"`
	Requests    uint64        `json:"requests"`
	Errors      uint64        `json:"errors"`

	// Sheds counts quota-shed requests (429s): offered but deliberately
	// rejected by the overload-protection layer. Sheds are excluded from
	// ErrRate — shedding is the SLO being defended, not broken.
	Sheds uint64 `json:"sheds,omitempty"`
}

// Meets reports whether the measurement satisfies the SLO.
func (m Measurement) Meets(slo SLO) bool {
	if slo.P99 > 0 && m.P99 > slo.P99 {
		return false
	}
	return m.ErrRate <= slo.ErrRate
}

// A Prober measures the system at one offered rate. Implementations are
// expected to be stateful but resettable: each call is an independent
// measurement window (Fleet.Prober runs the load generator against a
// live cluster; tests substitute analytic models).
type Prober func(rate float64) (Measurement, error)

// SearchConfig tunes FindKnee.
type SearchConfig struct {
	// StartRate is the first offered rate (default 50 req/s). It should
	// be comfortably below any plausible knee.
	StartRate float64

	// MaxRate caps the ramp (default 1<<20 req/s): a system that meets
	// the SLO at MaxRate reports the measurement there as the knee.
	MaxRate float64

	// Tolerance ends the binary search when the bracket has narrowed to
	// this fraction of the breaking rate (default 0.05, i.e. the knee is
	// known to within 5%).
	Tolerance float64

	// Confirm is how many times an SLO-breaking probe is re-measured
	// before the break is believed (default 1; -1 disables). A short
	// measurement window can blow p99 past the bound on a GC pause or a
	// scheduler hiccup alone; requiring the break to reproduce keeps one
	// noisy probe from capping the ramp far below the true knee. Probes
	// that meet the SLO are never re-measured — noise only ever breaks
	// an SLO, it cannot un-break one.
	Confirm int
}

func (c *SearchConfig) fill() {
	if c.StartRate <= 0 {
		c.StartRate = 50
	}
	if c.MaxRate <= 0 {
		c.MaxRate = 1 << 20
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.05
	}
	if c.Confirm == 0 {
		c.Confirm = 1
	} else if c.Confirm < 0 {
		c.Confirm = 0
	}
}

// SearchResult is FindKnee's outcome.
type SearchResult struct {
	// Knee is the highest measured rate that met the SLO. A zero
	// OfferedRate means even the lowest probe broke the SLO.
	Knee Measurement `json:"knee"`

	// Saturated reports whether an SLO-breaking rate was found;
	// false means the ramp hit MaxRate with the SLO intact.
	Saturated bool `json:"saturated"`

	// Probes is every measurement taken, in order (ramp then bisection),
	// so a report reader can see the latency curve, not just its knee.
	Probes []Measurement `json:"probes"`
}

// FindKnee locates the saturation knee: it ramps the offered rate
// geometrically (×2) from StartRate until a probe breaks the SLO (or
// MaxRate is reached), then binary-searches the bracket between the last
// sustained and first breaking rates until it is within Tolerance.
func FindKnee(cfg SearchConfig, slo SLO, probe Prober) (SearchResult, error) {
	cfg.fill()
	var res SearchResult

	// measure probes the rate, re-measuring an SLO break up to Confirm
	// times; the returned bool is the confirmed verdict (true = meets).
	measure := func(rate float64) (Measurement, bool, error) {
		m, err := probe(rate)
		if err != nil {
			return m, false, fmt.Errorf("capacity: probe at %.1f req/s: %w", rate, err)
		}
		res.Probes = append(res.Probes, m)
		if m.Meets(slo) {
			return m, true, nil
		}
		for i := 0; i < cfg.Confirm; i++ {
			m, err = probe(rate)
			if err != nil {
				return m, false, fmt.Errorf("capacity: probe at %.1f req/s: %w", rate, err)
			}
			res.Probes = append(res.Probes, m)
			if m.Meets(slo) {
				return m, true, nil
			}
		}
		return m, false, nil
	}

	// Ramp until the SLO breaks.
	lo, hi := 0.0, 0.0 // highest sustained / lowest breaking rate
	for rate := cfg.StartRate; ; rate *= 2 {
		if rate > cfg.MaxRate {
			rate = cfg.MaxRate
		}
		m, meets, err := measure(rate)
		if err != nil {
			return res, err
		}
		if meets {
			lo, res.Knee = rate, m
			if rate >= cfg.MaxRate {
				return res, nil // never saturated within the ramp
			}
			continue
		}
		hi = rate
		res.Saturated = true
		break
	}

	// Bisect (lo, hi): lo is the highest rate known to hold the SLO
	// (0 if even StartRate broke it), hi the lowest known to break it.
	for hi-lo > cfg.Tolerance*hi {
		mid := (lo + hi) / 2
		m, meets, err := measure(mid)
		if err != nil {
			return res, err
		}
		if meets {
			lo, res.Knee = mid, m
		} else {
			hi = mid
		}
	}
	return res, nil
}
