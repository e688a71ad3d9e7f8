package core

import (
	"container/list"
	"time"
)

// LBGC is the paper's idealized locality-based strategy with a front-end
// global-cache model ("LB/GC", Section 4): "the front end keeps track of
// each back end's cache state to achieve the effect of a global cache. On
// a cache hit the front end sends the request to the back end that caches
// the target. On a miss the front end sends the request to the back end
// that caches the globally 'oldest' target, thus causing eviction of that
// target."
//
// The model is deliberately idealized — the paper uses it as an upper
// bound on what cache-state tracking could buy, and finds that plain LB
// (and therefore LARD, which tracks no cache state) comes close.
type LBGC struct {
	nodeSet
	nodeCap  int64
	global   *list.List // front = most recently used modelled cache entry
	index    map[string]*list.Element
	nodeUsed []int64
}

type lbgcEntry struct {
	target string
	node   int
	size   int64
}

// NewLBGC returns an LB/GC strategy modelling a per-node cache of
// nodeCacheBytes. It panics if nodeCacheBytes is negative.
func NewLBGC(loads LoadReader, nodeCacheBytes int64) *LBGC {
	if nodeCacheBytes < 0 {
		panic("core: negative LB/GC node cache size")
	}
	return &LBGC{
		nodeSet:  newNodeSet(loads, DefaultProfile()),
		nodeCap:  nodeCacheBytes,
		global:   list.New(),
		index:    make(map[string]*list.Element),
		nodeUsed: make([]int64, loads.NodeCount()),
	}
}

// Name implements Strategy.
func (s *LBGC) Name() string { return "LB/GC" }

// Select implements Strategy.
func (s *LBGC) Select(_ time.Duration, r Request) int {
	if el, ok := s.index[r.Target]; ok {
		ent := el.Value.(*lbgcEntry)
		if s.Eligible(ent.node) {
			s.global.MoveToFront(el)
			return ent.node
		}
		// The caching node is ineligible; forget the stale entry and
		// re-place. For a draining node (whose entries are not dropped
		// eagerly) this mirrors that another node now caches the target;
		// only entries never touched during the drain survive an Undrain.
		s.evictElement(el)
	}

	// Miss. Objects too large for the modelled cache are served by the
	// least-loaded node and not tracked.
	if r.Size > s.nodeCap {
		return s.leastLoaded(rawLoad)
	}

	node := s.placeMiss(r.Size)
	if node < 0 {
		return -1
	}
	// Model the insertion, evicting the chosen node's globally oldest
	// entries until the object fits.
	s.makeRoom(node, r.Size)
	s.nodeUsed[node] += r.Size
	s.index[r.Target] = s.global.PushFront(&lbgcEntry{target: r.Target, node: node, size: r.Size})
	return node
}

// placeMiss picks the node for an uncached target: a node with modelled
// free space if one exists (most free space wins), otherwise the node
// caching the globally oldest target.
func (s *LBGC) placeMiss(size int64) int {
	best, bestFree := -1, int64(-1)
	for i := range s.nodeUsed {
		free := s.nodeCap - s.nodeUsed[i]
		if s.Eligible(i) && free >= size && free > bestFree {
			best, bestFree = i, free
		}
	}
	if best >= 0 {
		return best
	}
	// All full: route to the owner of the globally oldest entry.
	for el := s.global.Back(); el != nil; el = el.Prev() {
		ent := el.Value.(*lbgcEntry)
		if s.Eligible(ent.node) {
			return ent.node
		}
	}
	return s.leastLoaded(rawLoad)
}

// makeRoom evicts node's oldest modelled entries until size fits.
func (s *LBGC) makeRoom(node int, size int64) {
	for s.nodeUsed[node]+size > s.nodeCap {
		el := s.oldestOf(node)
		if el == nil {
			return
		}
		s.evictElement(el)
	}
}

// oldestOf returns the globally oldest modelled entry belonging to node.
func (s *LBGC) oldestOf(node int) *list.Element {
	for el := s.global.Back(); el != nil; el = el.Prev() {
		if el.Value.(*lbgcEntry).node == node {
			return el
		}
	}
	return nil
}

func (s *LBGC) evictElement(el *list.Element) {
	ent := el.Value.(*lbgcEntry)
	s.global.Remove(el)
	delete(s.index, ent.target)
	s.nodeUsed[ent.node] -= ent.size
}

// NodeDown implements Strategy: beyond the flag, the failed node's
// modelled cache contents are forgotten, so its targets are re-placed on
// demand exactly "as if they had not been assigned before".
func (s *LBGC) NodeDown(node int) {
	s.nodeSet.NodeDown(node)
	s.dropEntriesOf(node)
}

// AddNode implements Strategy: the new node starts with an empty
// modelled cache, so placeMiss favors it until it fills.
func (s *LBGC) AddNode() int {
	s.nodeUsed = append(s.nodeUsed, 0)
	return s.nodeSet.AddNode()
}

// RemoveNode implements Strategy: the removed node's modelled cache
// contents are forgotten, like a Section 2.6 failure with no recovery.
func (s *LBGC) RemoveNode(node int) {
	s.nodeSet.RemoveNode(node)
	s.dropEntriesOf(node)
}

// dropEntriesOf forgets every modelled entry belonging to node.
func (s *LBGC) dropEntriesOf(node int) {
	var next *list.Element
	for el := s.global.Front(); el != nil; el = next {
		next = el.Next()
		if el.Value.(*lbgcEntry).node == node {
			s.evictElement(el)
		}
	}
}

// ModelledEntries returns the number of targets currently tracked by the
// front-end cache model, for tests and diagnostics.
func (s *LBGC) ModelledEntries() int { return s.global.Len() }
