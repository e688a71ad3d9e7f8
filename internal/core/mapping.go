package core

import "container/list"

// mapping is a target→assignment table with an optional LRU capacity
// bound, implementing Section 2.6's observation that "the mappings can be
// maintained in an LRU cache where assignments for targets that have not
// been accessed recently are discarded": such targets have most likely been
// evicted from the back-end caches anyway, so forgetting them is harmless.
type mapping[V any] struct {
	capacity int // 0 = unbounded
	ll       *list.List
	index    map[string]*list.Element
}

type mappingEntry[V any] struct {
	key   string
	value V
}

func newMapping[V any](capacity int) *mapping[V] {
	if capacity < 0 {
		panic("core: negative mapping capacity")
	}
	return &mapping[V]{
		capacity: capacity,
		ll:       list.New(),
		index:    make(map[string]*list.Element),
	}
}

// get returns the assignment for key and refreshes its recency.
func (m *mapping[V]) get(key string) (V, bool) {
	if el, ok := m.index[key]; ok {
		m.ll.MoveToFront(el)
		return el.Value.(*mappingEntry[V]).value, true
	}
	var zero V
	return zero, false
}

// peek returns the assignment for key without refreshing its recency, so
// a diagnostic read never changes which target a bounded mapping evicts
// next.
func (m *mapping[V]) peek(key string) (V, bool) {
	if el, ok := m.index[key]; ok {
		return el.Value.(*mappingEntry[V]).value, true
	}
	var zero V
	return zero, false
}

// put stores the assignment for key, evicting the least-recently-used
// entry if the capacity bound is exceeded.
func (m *mapping[V]) put(key string, value V) {
	if el, ok := m.index[key]; ok {
		el.Value.(*mappingEntry[V]).value = value
		m.ll.MoveToFront(el)
		return
	}
	m.index[key] = m.ll.PushFront(&mappingEntry[V]{key: key, value: value})
	if m.capacity > 0 && m.ll.Len() > m.capacity {
		oldest := m.ll.Back()
		if oldest != nil {
			m.ll.Remove(oldest)
			delete(m.index, oldest.Value.(*mappingEntry[V]).key)
		}
	}
}

// remove deletes the assignment for key if present.
func (m *mapping[V]) remove(key string) {
	if el, ok := m.index[key]; ok {
		m.ll.Remove(el)
		delete(m.index, key)
	}
}

// len returns the number of tracked targets.
func (m *mapping[V]) len() int { return m.ll.Len() }

// each calls fn for every entry; fn may mutate the value in place through
// the pointer. Iteration order is most-recently-used first.
func (m *mapping[V]) each(fn func(key string, value *V)) {
	for el := m.ll.Front(); el != nil; el = el.Next() {
		ent := el.Value.(*mappingEntry[V])
		fn(ent.key, &ent.value)
	}
}
