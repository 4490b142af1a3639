// Package setupcache memoizes the seed-independent (and, for keyed
// variants, seed-keyed) setup work of the request path: generated graphs,
// per-graph artifacts (automorphisms, spanning trees), and constructed
// protocol instances. Before this layer existed every service request
// rebuilt the same instance from scratch — for the load-test workload the
// automorphism search alone was ~40% of each request's CPU.
//
// The design rules, in priority order:
//
//  1. Correctness over hit rate. Digest-keyed entries carry a verifier:
//     a candidate whose verifier rejects (a 64-bit collision, or a caller
//     that mutated a graph after caching) is treated as a miss and the
//     value is rebuilt — a collision costs a rebuild, never a wrong
//     answer. Everything cached is a deterministic function of its key
//     and verified content, so cached and cold paths are bit-identical by
//     construction (asserted end-to-end by TestCachedRunsByteIdentical in
//     the root package).
//  2. Short critical sections. Each cache is one map under one mutex; a
//     lookup holds it for a map read. Builds run outside the lock (an
//     automorphism search can take milliseconds) and re-check before
//     inserting, so concurrent misses for one key build twice but cache
//     once.
//  3. Bounded. Each cache holds at most its capacity, evicting in FIFO
//     order with a second chance: an entry hit since it was queued is
//     queued again once instead of evicted, so a hot entry (a seedless
//     protocol instance) outlives any stream of cold ones. Each cache
//     meters hits/misses/evictions/size through internal/obs so
//     cmd/dipserve can expose them on /metrics.
package setupcache

import (
	"sync"
	"sync/atomic"

	"dip/internal/obs"
)

// Key identifies one cached value: a kind tag, up to four integer
// parameters (sizes, seeds, repetition counts — unused ones stay zero),
// and a content digest for values keyed by graph content. Keys are
// comparable and cheap to build on the hot path.
type Key struct {
	Kind   string
	A      int64
	B      int64
	C      int64
	D      int64
	Digest uint64
}

// Cache is one named, bounded memo table: a map from key to slot under
// one mutex, and a ring of at most capacity slots that a clock hand sweeps
// in insertion order, which is FIFO with a second chance.
type Cache struct {
	meter    *obs.CacheMeter
	capacity int

	mu    sync.Mutex
	index map[Key]int // the slot of each cached key
	slots []slot      // filled in insertion order up to capacity
	// hand is the slot the next eviction looks at first once the ring is
	// full: the entry queued longest ago.
	hand int
}

// slot is one cached entry. ref is its reference bit: a hit sets it
// without taking the lock, and the clock hand clears it and passes the
// entry by once instead of evicting it.
type slot struct {
	key Key
	v   any
	ref atomic.Bool
}

// New returns a cache registered under name holding at most capacity
// entries (at least one).
func New(name string, capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache{meter: obs.Cache(name), capacity: capacity}
	c.meter.Capacity.Set(int64(capacity))
	return c
}

// Do returns the value cached under key, building and caching it on a
// miss. verify, when non-nil, must confirm a candidate actually matches
// the caller's inputs (digest keys are not injective); a rejected
// candidate is rebuilt and the cached entry left in place. build errors
// are returned without caching.
func (c *Cache) Do(key Key, verify func(v any) bool, build func() (any, error)) (any, error) {
	c.mu.Lock()
	var s *slot
	var v any
	if i, ok := c.index[key]; ok {
		s = &c.slots[i]
		v = s.v
	}
	c.mu.Unlock()
	if s != nil && (verify == nil || verify(v)) {
		c.meter.Hits.Add(1)
		// A stale s (its slot refilled since) only grants the newer
		// entry one early second chance.
		if !s.ref.Load() {
			s.ref.Store(true)
		}
		return v, nil
	}
	c.meter.Misses.Add(1)
	built, err := build()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[key]; ok {
		// Raced with another builder, or a verified collision holds the
		// slot: prefer the incumbent when it matches (bounding memory),
		// otherwise serve our build uncached.
		if cur := c.slots[i].v; verify == nil || verify(cur) {
			return cur, nil
		}
		return built, nil
	}
	if c.index == nil {
		c.index = make(map[Key]int, c.capacity)
		c.slots = make([]slot, 0, c.capacity)
	}
	i := len(c.slots)
	if i < c.capacity {
		c.slots = c.slots[:i+1]
	} else {
		i = c.evict()
	}
	s = &c.slots[i]
	s.key, s.v = key, built
	s.ref.Store(false)
	c.index[key] = i
	c.meter.Size.Add(1)
	return built, nil
}

// evict frees the slot of the entry queued longest ago that has not been
// hit since it was queued and returns it. The hand passes each entry it
// finds referenced, clearing its bit, which queues it again; it passes
// at most capacity of them, so concurrent hits cannot keep it sweeping.
// The caller holds c.mu and the ring is full.
func (c *Cache) evict() int {
	for n := 0; n < c.capacity && c.slots[c.hand].ref.Swap(false); n++ {
		c.hand = (c.hand + 1) % c.capacity
	}
	i := c.hand
	c.hand = (c.hand + 1) % c.capacity
	delete(c.index, c.slots[i].key)
	c.meter.Evictions.Add(1)
	c.meter.Size.Add(-1)
	return i
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// Reset drops every entry (tests and cold-path baselines).
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.meter.Size.Add(-int64(len(c.index)))
	c.index, c.slots, c.hand = nil, nil, 0
}
