package trace

import (
	"fmt"
	"math"
	"math/rand"
)

// Requests-per-connection distributions for the live load generator's
// persistent-connection (P-HTTP) workloads (internal/loadgen, loadgen
// -conndist). The simulator (internal/cluster) gives every connection
// ReqsPerConn requests, the fixed distribution.
const (
	// ConnDistFixed gives every connection exactly the mean number of
	// requests.
	ConnDistFixed = "fixed"
	// ConnDistGeometric draws each connection's request count from a
	// geometric distribution with the given mean (the memoryless
	// browser-session model: most connections short, a long tail).
	ConnDistGeometric = "geometric"
)

// ConnLenDraw returns a requests-per-connection generator for the named
// distribution ("" selects ConnDistFixed). The mean is clamped to at
// least 1; every draw is at least 1. Geometric draws use inverse-CDF
// sampling from rng, so a seeded rng reproduces the sequence.
func ConnLenDraw(dist string, mean int, rng *rand.Rand) (func() int, error) {
	if mean < 1 {
		mean = 1
	}
	switch dist {
	case "", ConnDistFixed:
		return func() int { return mean }, nil
	case ConnDistGeometric:
		p := 1.0 / float64(mean)
		return func() int {
			u := rng.Float64()
			for u == 0 {
				u = rng.Float64()
			}
			k := int(math.Ceil(math.Log(u) / math.Log(1-p)))
			if k < 1 {
				k = 1
			}
			return k
		}, nil
	default:
		return nil, fmt.Errorf("trace: unknown connection-length distribution %q (want %q or %q)",
			dist, ConnDistFixed, ConnDistGeometric)
	}
}
