package experiments

import (
	"testing"
	"time"

	"lard/internal/cache"
	"lard/internal/trace"
	"lard/pkg/lard"
)

// localityTrace is the benchmark's locality_disk workload (bench/spec.go):
// a 64 MB catalog of 8 KB documents at Zipf 0.8, to be served from 32 MB
// of cache in all.
func localityTrace(t *testing.T, seed int64) *trace.Trace {
	t.Helper()
	const targets, docBytes = 8192, 8 << 10
	tr, err := trace.Generate(trace.SyntheticConfig{
		Name:         "locality_disk",
		Catalog:      "b",
		Targets:      targets,
		Requests:     1 << 16,
		DataSetBytes: targets * docBytes,
		ZipfAlpha:    0.8,
		SizeSigma:    0.1,
		MinFileBytes: 512,
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// replayHitRatio plays tr four times — two passes to warm, two measured —
// through caches the way the live cluster would: place picks the node,
// whose cache is looked up and filled on a miss. It returns the measured
// passes' hit ratio.
func replayHitRatio(tr *trace.Trace, caches []cache.Cache, place func(i int, r lard.Request) int) float64 {
	var hits, lookups int
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < tr.Len(); i++ {
			rq := tr.At(i)
			c := caches[place(pass*tr.Len()+i, lard.Request{Target: rq.Target, Size: rq.Size})]
			_, hit := c.Lookup(rq.Target)
			if !hit {
				c.Insert(rq.Target, rq.Size)
			}
			if pass >= 2 {
				lookups++
				if hit {
					hits++
				}
			}
		}
	}
	return float64(hits) / float64(lookups)
}

// TestLocalityGapIsReplacementNotPlacement: on the locality_disk trace
// lard/r over four 8 MB caches already is one 32 MB cache of the same
// policy, so no placement change can raise cache_hit_ratio; what does is
// a replacement policy that counts hits.
func TestLocalityGapIsReplacementNotPlacement(t *testing.T) {
	const nodes, perNode, outstanding = 4, 8 << 20, 2
	policies := []struct {
		name string
		mk   func(int64) cache.Cache
	}{
		{"GDS", func(b int64) cache.Cache { return cache.NewGDS(b) }},
		{"GDSF", func(b int64) cache.Cache { return cache.NewGDSF(b) }},
	}
	for _, seed := range []int64{1, 2, 7} {
		tr := localityTrace(t, seed)
		ratio := map[string]float64{}
		for _, p := range policies {
			one := replayHitRatio(tr, []cache.Cache{p.mk(nodes * perNode)},
				func(int, lard.Request) int { return 0 })

			d, err := lard.New("lard/r", lard.WithNodes(nodes))
			if err != nil {
				t.Fatal(err)
			}
			caches := make([]cache.Cache, nodes)
			for i := range caches {
				caches[i] = p.mk(perNode)
			}
			// A closed loop of `outstanding` clients: a request's slot is
			// released as the one `outstanding` later is dispatched.
			var inFlight [outstanding]func()
			split := replayHitRatio(tr, caches, func(i int, r lard.Request) int {
				if done := inFlight[i%outstanding]; done != nil {
					done()
				}
				node, done, err := d.Dispatch(time.Duration(i)*time.Millisecond, r)
				if err != nil {
					t.Fatalf("seed %d, request %d: %v", seed, i, err)
				}
				inFlight[i%outstanding] = done
				return node
			})
			t.Logf("seed %d %s: one 32 MB cache %.4f, lard/r over 4 x 8 MB %.4f", seed, p.name, one, split)
			if diff := split - one; diff > 0.005 || diff < -0.005 {
				t.Errorf("seed %d %s: lard/r over 4 x 8 MB hits %.4f, one 32 MB cache %.4f: placement is worth more than 0.005", seed, p.name, split, one)
			}
			ratio[p.name] = split
		}
		if ratio["GDSF"] < ratio["GDS"]+0.02 {
			t.Errorf("seed %d: GDSF %.4f, GDS %.4f: counting hits should be worth at least 0.02", seed, ratio["GDSF"], ratio["GDS"])
		}
	}
}
