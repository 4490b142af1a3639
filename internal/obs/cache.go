package obs

import (
	"sort"
	"sync"
)

// CacheMeter meters one named memo cache (the setup caches of the request
// path: graphs, graph artifacts, protocol instances).
// Hits/Misses/Evictions are monotone event counters; Size and Capacity are
// gauges the owning cache keeps current, so a /metrics snapshot can report
// occupancy next to the hit ratio. Like the rest of this package, meters
// are process-global: the caches they describe are process-global too.
type CacheMeter struct {
	Hits      Counter
	Misses    Counter
	Evictions Counter
	Size      Gauge
	Capacity  Gauge
}

var (
	cacheMu sync.Mutex
	caches  map[string]*CacheMeter
)

// Cache returns the meter registered under name, creating it on first use.
// Callers keep the returned pointer; lookups after the first are only for
// snapshots.
func Cache(name string) *CacheMeter {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if caches == nil {
		caches = make(map[string]*CacheMeter)
	}
	m, ok := caches[name]
	if !ok {
		m = &CacheMeter{}
		caches[name] = m
	}
	return m
}

// CacheMetricsRecord is the snapshot of one named cache.
type CacheMetricsRecord struct {
	Name      string `json:"name"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Evictions int64  `json:"evictions"`
	Size      int64  `json:"size"`
	Capacity  int64  `json:"capacity"`
}

// SnapshotCaches returns the current values of every registered cache
// meter, sorted by name (stable output for /metrics).
func SnapshotCaches() []CacheMetricsRecord {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	names := make([]string, 0, len(caches))
	for name := range caches {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]CacheMetricsRecord, 0, len(names))
	for _, name := range names {
		m := caches[name]
		out = append(out, CacheMetricsRecord{
			Name:      name,
			Hits:      m.Hits.Value(),
			Misses:    m.Misses.Value(),
			Evictions: m.Evictions.Value(),
			Size:      m.Size.Value(),
			Capacity:  m.Capacity.Value(),
		})
	}
	return out
}
