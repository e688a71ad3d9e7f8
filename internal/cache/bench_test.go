package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchWorkload drives a cache with a Zipf-ish mix of lookups and inserts
// typical of the simulator's per-node access pattern.
func benchWorkload(b *testing.B, c Cache) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, 4096)
	sizes := make([]int64, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("/doc%04d.html", i)
		sizes[i] = int64(512 + rng.Intn(64<<10))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := rng.Intn(len(keys))
		if _, ok := c.Lookup(keys[k]); !ok {
			c.Insert(keys[k], sizes[k])
		}
	}
}

func BenchmarkGDSLookupInsert(b *testing.B)  { benchWorkload(b, NewGDS(16<<20)) }
func BenchmarkGDSFLookupInsert(b *testing.B) { benchWorkload(b, NewGDSF(16<<20)) }
func BenchmarkLRULookupInsert(b *testing.B)  { benchWorkload(b, NewLRU(16<<20)) }

func benchHitPath(b *testing.B, c Cache) {
	c.Insert("/hot", 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup("/hot")
	}
}

func BenchmarkGDSHitPath(b *testing.B)  { benchHitPath(b, NewGDS(1<<20)) }
func BenchmarkGDSFHitPath(b *testing.B) { benchHitPath(b, NewGDSF(1<<20)) }

func BenchmarkLRUHitPath(b *testing.B) {
	c := NewLRU(1 << 20)
	c.Insert("/hot", 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Lookup("/hot")
	}
}
