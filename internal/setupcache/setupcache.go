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
//     order, and meters hits/misses/evictions/size through internal/obs
//     so cmd/dipserve can expose them on /metrics.
package setupcache

import (
	"sync"

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

// Cache is one named, bounded memo table: a map under one mutex plus the
// FIFO queue of its keys.
type Cache struct {
	meter    *obs.CacheMeter
	capacity int

	mu sync.Mutex
	m  map[Key]any
	// order is the FIFO eviction queue of the cached keys, oldest first.
	order []Key
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
	v, ok := c.m[key]
	c.mu.Unlock()
	if ok && (verify == nil || verify(v)) {
		c.meter.Hits.Add(1)
		return v, nil
	}
	c.meter.Misses.Add(1)
	built, err := build()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.m[key]; ok {
		// Raced with another builder, or a verified collision holds the
		// slot: prefer the incumbent when it matches (bounding memory),
		// otherwise serve our build uncached.
		if verify == nil || verify(cur) {
			return cur, nil
		}
		return built, nil
	}
	if c.m == nil {
		c.m = make(map[Key]any, c.capacity)
	}
	if len(c.m) >= c.capacity {
		oldest := c.order[0]
		c.order = c.order[1:]
		delete(c.m, oldest)
		c.meter.Evictions.Add(1)
		c.meter.Size.Add(-1)
	}
	c.m[key] = built
	c.order = append(c.order, key)
	c.meter.Size.Add(1)
	return built, nil
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Reset drops every entry (tests and cold-path baselines).
func (c *Cache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.meter.Size.Add(-int64(len(c.m)))
	c.m = nil
	c.order = nil
}
