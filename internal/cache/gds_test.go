package cache

import (
	"fmt"
	"testing"
)

func TestGDSBasicHitMiss(t *testing.T) {
	c := NewGDS(100)
	if _, ok := c.Lookup("a"); ok {
		t.Fatal("lookup on empty cache hit")
	}
	if !c.Insert("a", 10) {
		t.Fatal("insert failed")
	}
	size, ok := c.Lookup("a")
	if !ok || size != 10 {
		t.Fatalf("Lookup(a) = (%d,%v), want (10,true)", size, ok)
	}
}

func TestGDSPrefersSmallObjectsUnderUniformCost(t *testing.T) {
	// With cost=1, H = L + 1/size: a large object has lower priority than a
	// small one inserted at the same inflation level, so it is evicted
	// first even if more recently inserted.
	c := NewGDS(100)
	c.Insert("small", 1)
	c.Insert("large", 90)
	c.Insert("trigger", 20) // overflow: evict lowest H
	if c.Contains("large") {
		t.Fatal("large object survived; GDS(1) should evict it first")
	}
	if !c.Contains("small") || !c.Contains("trigger") {
		t.Fatal("wrong victim evicted")
	}
}

func TestGDSHitRestoresPriority(t *testing.T) {
	// A hit sets H = L + 1/size again. Once the inflation value L has
	// risen above a stale object's H, a touched object survives while an
	// equally sized untouched one is evicted.
	c := NewGDS(100)
	c.Insert("touched", 10) // H = 0 + 1/10
	c.Insert("stale", 10)   // H = 0 + 1/10
	// Churn large fillers to drive L upward: each filler has H = L + 1/50
	// and is evicted by the next, raising L by 1/50 per round.
	for i := 0; i < 20; i++ {
		c.Insert(fmt.Sprintf("filler%d", i), 50)
		c.Lookup("touched") // refresh: H = L + 1/10
	}
	// L is now ~20/50 = 0.4, far above stale's H of 0.1.
	if c.Contains("stale") {
		t.Fatal("stale object survived churn; inflation not working")
	}
	if !c.Contains("touched") {
		t.Fatal("frequently hit object was evicted")
	}
}

func TestGDSInflationMonotone(t *testing.T) {
	// The L value must never decrease: evicted Hs are non-decreasing.
	c := NewGDS(50)
	var lastH float64 = -1
	c.SetEvictCallback(func(key string, size int64) {
		// At eviction time, inflate equals the evicted entry's H.
		if c.inflate < lastH {
			t.Fatalf("inflation decreased: %v -> %v", lastH, c.inflate)
		}
		lastH = c.inflate
	})
	for i := 0; i < 200; i++ {
		c.Insert(fmt.Sprintf("k%d", i), int64(1+i%25))
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("test exercised no evictions")
	}
}

func TestGDSVictim(t *testing.T) {
	c := NewGDS(100)
	if _, _, ok := c.Victim(); ok {
		t.Fatal("Victim on empty cache returned ok")
	}
	c.Insert("small", 2)
	c.Insert("large", 50)
	key, size, ok := c.Victim()
	if !ok || key != "large" || size != 50 {
		t.Fatalf("Victim = (%s,%d,%v), want (large,50,true)", key, size, ok)
	}
}

func TestGDSUpdateExistingKey(t *testing.T) {
	c := NewGDS(100)
	c.Insert("a", 10)
	c.Insert("a", 70)
	if c.Used() != 70 || c.Len() != 1 {
		t.Fatalf("Used=%d Len=%d, want 70, 1", c.Used(), c.Len())
	}
	c.Insert("b", 20)
	c.Insert("a", 90) // growing a over capacity evicts b
	if c.Contains("b") {
		t.Fatal("b survived overflow caused by growing a")
	}
	if !c.Contains("a") {
		t.Fatal("a lost while growing")
	}
}

func TestGDSRejectsOversizedAndNegative(t *testing.T) {
	c := NewGDS(100)
	c.Insert("a", 50)
	if c.Insert("huge", 101) {
		t.Fatal("oversized insert accepted")
	}
	if c.Insert("neg", -5) {
		t.Fatal("negative insert accepted")
	}
	if !c.Contains("a") {
		t.Fatal("rejection disturbed existing entries")
	}
	if c.Stats().Rejected != 2 {
		t.Fatalf("Rejected = %d, want 2", c.Stats().Rejected)
	}
}

func TestGDSRemove(t *testing.T) {
	c := NewGDS(100)
	c.Insert("a", 10)
	c.Insert("b", 20)
	if !c.Remove("a") {
		t.Fatal("Remove(a) = false")
	}
	if c.Remove("a") {
		t.Fatal("double remove = true")
	}
	if c.Used() != 20 || c.Len() != 1 {
		t.Fatalf("Used=%d Len=%d", c.Used(), c.Len())
	}
}

func TestGDSZeroSizeObject(t *testing.T) {
	// Zero-size objects must not divide by zero.
	c := NewGDS(100)
	if !c.Insert("empty", 0) {
		t.Fatal("zero-size insert rejected")
	}
	if _, ok := c.Lookup("empty"); !ok {
		t.Fatal("zero-size object not found")
	}
}

func TestGDSNegativeCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewGDS(-1)
}

func TestGDSEvictCallback(t *testing.T) {
	c := NewGDS(20)
	evictions := map[string]int64{}
	c.SetEvictCallback(func(key string, size int64) { evictions[key] = size })
	c.Insert("a", 15)
	c.Insert("b", 15) // evicts a
	if evictions["a"] != 15 {
		t.Fatalf("evictions = %v", evictions)
	}
}

// TestGDSFScanDoesNotEvictPopular: a run of documents asked for once each
// (more of them than the cache holds) flushes a plain GDS cache of equal
// sizes, which is LRU; the counting variant keeps the document with ten
// hits throughout.
func TestGDSFScanDoesNotEvictPopular(t *testing.T) {
	scan := func(c *GDS) bool {
		c.Insert("/popular", 10)
		for i := 0; i < 10; i++ {
			c.Lookup("/popular")
		}
		for i := 0; i < 50; i++ {
			key := fmt.Sprintf("/once%02d", i)
			if _, ok := c.Lookup(key); !ok {
				c.Insert(key, 10)
			}
			if c.Used() > c.Capacity() {
				t.Fatalf("used %d exceeds capacity %d", c.Used(), c.Capacity())
			}
		}
		return c.Contains("/popular")
	}
	if scan(NewGDS(100)) {
		t.Fatal("GDS(1) kept the popular document through the scan: the test does not distinguish the policies")
	}
	if !scan(NewGDSF(100)) {
		t.Fatal("GDSF evicted a document with ten hits for documents with one")
	}
}

// TestGDSFCountLifetime: the hit count survives a re-Insert and is lost
// on eviction. Three documents fit; sizes of 8 keep every credit an exact
// binary fraction, so ties fall to the older entry.
func TestGDSFCountLifetime(t *testing.T) {
	c := NewGDSF(24)
	insert := func(keys ...string) {
		for _, k := range keys {
			c.Insert(k, 8)
		}
	}
	insert("a")
	c.Lookup("a")
	c.Lookup("a")
	insert("a", "b", "c", "d", "e") // the re-Insert keeps a's three hits
	if !c.Contains("a") {
		t.Fatal("a re-Insert reset the hit count: a was evicted before newer one-hit entries")
	}
	// Inflation catches up with a's credit and a is evicted.
	insert("f", "g", "h")
	if c.Contains("a") {
		t.Fatal("a was never evicted: the test does not reach re-admission")
	}
	// Re-admitted, a is a one-hit entry like its neighbours and leaves in
	// its turn; with its old count it would outlive i.
	insert("a", "i", "j", "k")
	if c.Contains("a") || !c.Contains("i") {
		t.Fatalf("after re-admission: a cached %v, i cached %v; want a evicted first: its count died with its entry", c.Contains("a"), c.Contains("i"))
	}
}
