// Package cache implements the whole-file main-memory caches used by the
// LARD paper's back-end nodes (Section 3.1).
//
// Two replacement policies are provided behind a single interface:
//
//   - GDS: Greedy-Dual-Size (Cao & Irani), the policy the paper uses for
//     all reported simulations because "it appears to be the best known
//     policy for Web workloads". NewGDSF is the same code counting hits
//     (GDS-Frequency), which the live back end runs.
//   - LRU: least-recently-used with an admission cutoff that never caches
//     files above a configurable size, the paper's alternative policy
//     (reported as up to ~30% lower absolute throughput, same relative
//     ordering of the distribution strategies).
//
// Caches are keyed by target name (URL) and account capacity in bytes of
// file content, matching the paper's whole-file caching model. The
// implementations are not safe for concurrent use; the simulator is
// single-goroutine and the live back end wraps its cache in a mutex.
package cache

// Stats counts cache activity since construction. Byte counters accumulate
// the sizes of the objects involved.
type Stats struct {
	Hits       uint64
	Misses     uint64
	Insertions uint64
	Evictions  uint64
	Rejected   uint64 // insertions refused (object larger than capacity)

	BytesHit     uint64
	BytesEvicted uint64
}

// Requests returns the total number of lookups recorded.
func (s Stats) Requests() uint64 { return s.Hits + s.Misses }

// HitRatio returns Hits / (Hits + Misses), or 0 if no lookups occurred.
func (s Stats) HitRatio() float64 {
	total := s.Requests()
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// MissRatio returns 1 − HitRatio for non-empty stats, else 0.
func (s Stats) MissRatio() float64 {
	if s.Requests() == 0 {
		return 0
	}
	return 1 - s.HitRatio()
}

// Cache is a byte-capacity-bounded mapping from target names to their
// sizes, with a replacement policy.
type Cache interface {
	// Lookup records a request for key. It returns the object's size and
	// true on a hit (updating the policy's replacement metadata), or 0 and
	// false on a miss.
	Lookup(key string) (size int64, ok bool)

	// Contains reports whether key is cached without updating replacement
	// metadata or stats.
	Contains(key string) bool

	// Insert adds key with the given size, evicting objects as needed. It
	// returns false — and caches nothing — if size exceeds the capacity or
	// is negative. Inserting an existing key updates its size and
	// replacement metadata.
	Insert(key string, size int64) bool

	// Remove evicts key if present, without counting it as an eviction in
	// Stats, and reports whether it was present. It is used for explicit
	// invalidation.
	Remove(key string) bool

	// Len returns the number of cached objects.
	Len() int

	// Used returns the total bytes of cached content.
	Used() int64

	// Capacity returns the configured capacity in bytes.
	Capacity() int64

	// Stats returns a copy of the activity counters.
	Stats() Stats

	// SetEvictCallback registers fn to be called with the key and size of
	// every object removed by the replacement policy (not by Remove).
	// Passing nil clears the callback.
	SetEvictCallback(fn func(key string, size int64))
}
