package cache

import "container/heap"

// GDS is a Greedy-Dual-Size cache (Cao & Irani, USITS '97), the replacement
// policy the LARD paper uses for all reported simulations.
//
// Each cached object p carries a credit value H(p). When an object is
// inserted or hit, H(p) is set to L + 1/size(p), where L is a global
// inflation value. On eviction the object with the minimum H is removed and
// L is raised to that minimum. The inflation makes recently-touched objects
// more valuable without requiring per-access aging of every entry.
//
// Every object costs 1 to fetch, which is GDS(1): the policy maximizes
// object hit ratio, the paper's figure of merit.
//
// NewGDSF builds the policy's successor, GDS-Frequency (Cherkasova,
// HPL-98-69): the credit becomes L + f(p)/size(p), f(p) the
// requests p has answered since it was admitted. With documents of one size GDS(1) is
// LRU; the count is what keeps a popular document through a run of
// documents asked for once.
type GDS struct {
	capacity int64
	used     int64
	inflate  float64 // L
	byFreq   bool    // GDS-Frequency: Lookup counts hits
	pq       gdsHeap
	entries  map[string]*gdsEntry
	stats    Stats
	onEvict  func(string, int64)
}

type gdsEntry struct {
	key   string
	size  int64
	freq  uint64  // f(p): 1 on admission; only a GDS-Frequency cache raises it
	h     float64 // credit H(p)
	seq   uint64  // tie-break: older entries evicted first
	index int
}

// NewGDS returns a Greedy-Dual-Size cache. It panics if capacity is
// negative.
func NewGDS(capacity int64) *GDS {
	if capacity < 0 {
		panic("cache: negative GDS capacity")
	}
	return &GDS{capacity: capacity, entries: make(map[string]*gdsEntry)}
}

// NewGDSF returns a GDS-Frequency cache: GDS whose credit is scaled by
// the entry's hit count. The count starts at 1 on admission, survives a
// re-Insert and is lost on eviction. It panics if capacity is negative.
func NewGDSF(capacity int64) *GDS {
	c := NewGDS(capacity)
	c.byFreq = true
	return c
}

// priority computes a fresh H value for ent at its current size and
// count. The count is 1 for plain GDS, which leaves 1/size as it is.
func (c *GDS) priority(ent *gdsEntry) float64 {
	size := ent.size
	if size <= 0 {
		size = 1
	}
	return c.inflate + float64(ent.freq)/float64(size)
}

// Lookup implements Cache.
func (c *GDS) Lookup(key string) (int64, bool) {
	if ent, ok := c.entries[key]; ok {
		if c.byFreq {
			ent.freq++
		}
		ent.h = c.priority(ent)
		heap.Fix(&c.pq, ent.index)
		c.stats.Hits++
		c.stats.BytesHit += uint64(ent.size)
		return ent.size, true
	}
	c.stats.Misses++
	return 0, false
}

// Contains implements Cache.
func (c *GDS) Contains(key string) bool {
	_, ok := c.entries[key]
	return ok
}

// Insert implements Cache.
//
// Following the canonical algorithm, room is made by evicting minimum-H
// objects before the new object is admitted, so the incoming object is
// never its own insertion's victim.
func (c *GDS) Insert(key string, size int64) bool {
	if size < 0 || size > c.capacity {
		c.stats.Rejected++
		return false
	}
	if ent, ok := c.entries[key]; ok {
		// Re-admission of an existing key: take it out of the running,
		// make room for the new size, then put it back refreshed.
		heap.Remove(&c.pq, ent.index)
		c.used -= ent.size
		c.makeRoom(size)
		ent.size = size
		ent.h = c.priority(ent)
		ent.seq = c.pq.nextSeq()
		heap.Push(&c.pq, ent)
		c.used += size
		return true
	}
	c.makeRoom(size)
	ent := &gdsEntry{key: key, size: size, freq: 1, seq: c.pq.nextSeq()}
	ent.h = c.priority(ent)
	heap.Push(&c.pq, ent)
	c.entries[key] = ent
	c.used += size
	c.stats.Insertions++
	return true
}

// makeRoom evicts minimum-H entries until an object of the given size fits,
// raising the inflation value L to each evicted entry's H.
func (c *GDS) makeRoom(need int64) {
	for c.used+need > c.capacity {
		ent := c.pq.min()
		if ent == nil {
			return
		}
		c.inflate = ent.h
		c.removeEntry(ent)
		c.stats.Evictions++
		c.stats.BytesEvicted += uint64(ent.size)
		if c.onEvict != nil {
			c.onEvict(ent.key, ent.size)
		}
	}
}

// Remove implements Cache.
func (c *GDS) Remove(key string) bool {
	ent, ok := c.entries[key]
	if !ok {
		return false
	}
	c.removeEntry(ent)
	return true
}

func (c *GDS) removeEntry(ent *gdsEntry) {
	heap.Remove(&c.pq, ent.index)
	delete(c.entries, ent.key)
	c.used -= ent.size
}

// Len implements Cache.
func (c *GDS) Len() int { return len(c.entries) }

// Used implements Cache.
func (c *GDS) Used() int64 { return c.used }

// Capacity implements Cache.
func (c *GDS) Capacity() int64 { return c.capacity }

// Stats implements Cache.
func (c *GDS) Stats() Stats { return c.stats }

// SetEvictCallback implements Cache.
func (c *GDS) SetEvictCallback(fn func(string, int64)) { c.onEvict = fn }

// Victim returns the key that would be evicted next (minimum H), or ""
// if the cache is empty. The LB/GC front-end model uses it to route misses.
func (c *GDS) Victim() (key string, size int64, ok bool) {
	ent := c.pq.min()
	if ent == nil {
		return "", 0, false
	}
	return ent.key, ent.size, true
}

var _ Cache = (*GDS)(nil)

// gdsHeap is a min-heap on (h, seq).
type gdsHeap struct {
	items []*gdsEntry
	seq   uint64
}

func (h *gdsHeap) nextSeq() uint64 { h.seq++; return h.seq }

func (h *gdsHeap) min() *gdsEntry {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

func (h *gdsHeap) Len() int { return len(h.items) }

func (h *gdsHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.h != b.h {
		return a.h < b.h
	}
	return a.seq < b.seq
}

func (h *gdsHeap) Swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].index = i
	h.items[j].index = j
}

func (h *gdsHeap) Push(x any) {
	ent := x.(*gdsEntry)
	ent.index = len(h.items)
	h.items = append(h.items, ent)
}

func (h *gdsHeap) Pop() any {
	old := h.items
	n := len(old)
	ent := old[n-1]
	old[n-1] = nil
	h.items = old[:n-1]
	return ent
}
