package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// implementations returns fresh instances of every Cache policy at the
// given capacity, for conformance testing.
func implementations(capacity int64) map[string]Cache {
	return map[string]Cache{
		"LRU":        NewLRU(capacity),
		"LRU/cutoff": NewLRUWithCutoff(capacity, capacity/2+1),
		"GDS":        NewGDS(capacity),
		"GDSF":       NewGDSF(capacity),
	}
}

// TestConformanceCapacityInvariant drives every policy with a random
// workload and checks the shared invariants:
//
//	used <= capacity at all times
//	used == sum of sizes of contained keys
//	len == number of contained keys
//	hits+misses == number of lookups
func TestConformanceCapacityInvariant(t *testing.T) {
	const capacity = 1000
	for name, c := range implementations(capacity) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			live := map[string]int64{}
			c.SetEvictCallback(func(key string, size int64) {
				if live[key] != size {
					t.Fatalf("evict callback (%s,%d) does not match model %d", key, size, live[key])
				}
				delete(live, key)
			})
			lookups := 0
			for i := 0; i < 5000; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(300))
				switch rng.Intn(4) {
				case 0, 1:
					_, _ = c.Lookup(key)
					lookups++
				case 2:
					size := int64(rng.Intn(200))
					if c.Insert(key, size) {
						live[key] = size
					}
				case 3:
					if c.Remove(key) {
						delete(live, key)
					} else if _, ok := live[key]; ok {
						t.Fatalf("Remove(%s) = false but model has it", key)
					}
				}
				if c.Used() > c.Capacity() {
					t.Fatalf("used %d exceeds capacity %d", c.Used(), c.Capacity())
				}
				var wantUsed int64
				for _, s := range live {
					wantUsed += s
				}
				if c.Used() != wantUsed {
					t.Fatalf("used %d, model %d", c.Used(), wantUsed)
				}
				if c.Len() != len(live) {
					t.Fatalf("len %d, model %d", c.Len(), len(live))
				}
			}
			st := c.Stats()
			if got := st.Hits + st.Misses; got != uint64(lookups) {
				t.Fatalf("hits+misses = %d, lookups = %d", got, lookups)
			}
		})
	}
}

// TestConformanceLookupAfterInsert: an object small enough to be admitted
// is immediately visible.
func TestConformanceLookupAfterInsert(t *testing.T) {
	for name, c := range implementations(100) {
		t.Run(name, func(t *testing.T) {
			if !c.Insert("x", 10) {
				t.Fatal("insert of admissible object failed")
			}
			if size, ok := c.Lookup("x"); !ok || size != 10 {
				t.Fatalf("Lookup = (%d,%v) right after Insert", size, ok)
			}
			if !c.Contains("x") {
				t.Fatal("Contains = false right after Insert")
			}
		})
	}
}

// TestConformanceContainsHasNoSideEffects: Contains must not alter stats or
// replacement state observably.
func TestConformanceContainsHasNoSideEffects(t *testing.T) {
	for name, c := range implementations(100) {
		t.Run(name, func(t *testing.T) {
			c.Insert("x", 10)
			before := c.Stats()
			for i := 0; i < 10; i++ {
				c.Contains("x")
				c.Contains("nope")
			}
			if c.Stats() != before {
				t.Fatalf("Contains changed stats: %+v -> %+v", before, c.Stats())
			}
		})
	}
}

// Property: the hit ratio computation is consistent with the counters.
func TestPropertyStatsRatios(t *testing.T) {
	f := func(hits, misses uint16) bool {
		s := Stats{Hits: uint64(hits), Misses: uint64(misses)}
		if s.Requests() == 0 {
			return s.HitRatio() == 0 && s.MissRatio() == 0
		}
		sum := s.HitRatio() + s.MissRatio()
		return sum > 0.9999999 && sum < 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a single-entry workload never evicts the working object, for
// any policy and any admissible size.
func TestPropertySingleObjectNeverEvicted(t *testing.T) {
	f := func(sizes []uint8) bool {
		for _, c := range implementations(256) {
			for _, s := range sizes {
				// Stay below every policy's admission bound (the cutoff
				// variant refuses sizes above capacity/2).
				if !c.Insert("only", int64(s%128)) {
					return false
				}
				if _, ok := c.Lookup("only"); !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: with unit-size objects both policies behave identically to a
// count-bounded cache: they hold exactly min(inserted, capacity) objects.
func TestPropertyUnitSizeCountBound(t *testing.T) {
	f := func(n uint8) bool {
		const capacity = 64
		for _, c := range implementations(capacity) {
			for i := 0; i < int(n); i++ {
				c.Insert(fmt.Sprintf("k%d", i), 1)
			}
			want := int(n)
			if want > capacity {
				want = capacity
			}
			if c.Len() != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
