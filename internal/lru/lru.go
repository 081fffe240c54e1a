// Package lru provides a generic fixed-capacity LRU cache.
//
// It backs every cache in the system: DDFS's locality-preserved cache of
// container metadata, SiLo's block-metadata cache, the index page cache, and
// the restore planner's LRU schedule. Eviction order is strict
// least-recently-used; both Get and Put refresh recency.
//
// A cache can optionally mirror its hit/miss/eviction counts into live
// telemetry counters (see Instrument), so each named cache in the system is
// observable on the /metrics endpoint while the local Stats stay per-cache.
package lru

import "repro/internal/telemetry"

// Cache is a fixed-capacity LRU map. The zero value is not usable; construct
// with New. Not safe for concurrent use.
type Cache[K comparable, V any] struct {
	cap     int
	items   map[K]*entry[K, V]
	head    *entry[K, V] // most recently used
	tail    *entry[K, V] // least recently used
	onEvict func(K, V)

	hits, misses, evictions uint64

	telHits, telMisses, telEvictions *telemetry.Counter
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// New creates a cache holding at most capacity entries. Panics if
// capacity <= 0.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity <= 0 {
		panic("lru: capacity must be positive")
	}
	return &Cache[K, V]{cap: capacity, items: make(map[K]*entry[K, V], capacity)}
}

// OnEvict registers a callback invoked with each evicted key/value (both on
// capacity eviction and Remove; not on Clear).
func (c *Cache[K, V]) OnEvict(fn func(K, V)) { c.onEvict = fn }

// Instrument mirrors the cache's hit/miss/capacity-eviction counts into
// telemetry counters. Any of the three may be nil to skip that count; this
// names the cache's behaviour on the live /metrics endpoint without coupling
// the generic cache to a metric catalog.
func (c *Cache[K, V]) Instrument(hits, misses, evictions *telemetry.Counter) {
	c.telHits, c.telMisses, c.telEvictions = hits, misses, evictions
}

// Get returns the value for key and refreshes its recency.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if e, ok := c.items[key]; ok {
		c.hits++
		if c.telHits != nil {
			c.telHits.Inc()
		}
		c.moveToFront(e)
		return e.val, true
	}
	c.misses++
	if c.telMisses != nil {
		c.telMisses.Inc()
	}
	var zero V
	return zero, false
}

// Peek returns the value without refreshing recency or counting stats.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	if e, ok := c.items[key]; ok {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Contains reports presence without refreshing recency or counting stats.
func (c *Cache[K, V]) Contains(key K) bool {
	_, ok := c.items[key]
	return ok
}

// Put inserts or updates key, refreshing recency. It evicts the LRU entry if
// the cache is full and reports whether an eviction occurred.
func (c *Cache[K, V]) Put(key K, val V) (evicted bool) {
	if e, ok := c.items[key]; ok {
		e.val = val
		c.moveToFront(e)
		return false
	}
	e := &entry[K, V]{key: key, val: val}
	c.items[key] = e
	c.pushFront(e)
	if len(c.items) > c.cap {
		c.evictLRU()
		return true
	}
	return false
}

// Remove deletes key, reporting whether it was present.
func (c *Cache[K, V]) Remove(key K) bool {
	e, ok := c.items[key]
	if !ok {
		return false
	}
	c.unlink(e)
	delete(c.items, key)
	if c.onEvict != nil {
		c.onEvict(e.key, e.val)
	}
	return true
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Cap returns the capacity.
func (c *Cache[K, V]) Cap() int { return c.cap }

// Clear drops all entries without invoking the eviction callback and resets
// statistics.
func (c *Cache[K, V]) Clear() {
	c.items = make(map[K]*entry[K, V], c.cap)
	c.head, c.tail = nil, nil
	c.hits, c.misses, c.evictions = 0, 0, 0
}

// Stats returns cumulative hit/miss/eviction counters.
func (c *Cache[K, V]) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}

// HitRate returns hits/(hits+misses), or 0 before any lookups.
func (c *Cache[K, V]) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

func (c *Cache[K, V]) evictLRU() {
	e := c.tail
	c.unlink(e)
	delete(c.items, e.key)
	c.evictions++
	if c.telEvictions != nil {
		c.telEvictions.Inc()
	}
	if c.onEvict != nil {
		c.onEvict(e.key, e.val)
	}
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache[K, V]) moveToFront(e *entry[K, V]) {
	if c.head == e {
		return
	}
	c.unlink(e)
	c.pushFront(e)
}
