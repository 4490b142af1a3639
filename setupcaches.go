package dip

import (
	"dip/internal/graph"
	"dip/internal/setupcache"
)

// The request path memoizes its two setup stages here: validated graphs
// (keyed by vertex count and edge-list digest) and constructed protocol
// instances (keyed by name and every constructor parameter the instance
// depends on: the seed where it picks a prime, and no seed for sym-dam,
// whose prime is a function of n, or for the labeling schemes). Both
// caches hold values that are immutable after construction, so concurrent
// requests share them freely; both verify or exactly match their inputs,
// so a cached request is byte-identical to a cold one
// (TestCachedRunsByteIdentical pins this).
var (
	graphCache = setupcache.New("graphs", 64)
	protoCache = setupcache.New("protocols", 128)
)

// graphEntry pairs the cached graph with the exact edge list that built
// it, so a digest collision (or a semantically different ordering that
// happens to collide) is detected and rebuilt rather than served, and
// with its connectivity, found once when the graph is built.
type graphEntry struct {
	n         int
	edges     [][2]int
	g         *graph.Graph
	connected bool
}

func (e *graphEntry) matches(n int, edges [][2]int) bool {
	if e.n != n || len(e.edges) != len(edges) {
		return false
	}
	for i, ed := range edges {
		if e.edges[i] != ed {
			return false
		}
	}
	return true
}

func edgesDigest(edges [][2]int) uint64 {
	const fnvPrime = 1099511628211
	h := uint64(14695981039346656037)
	for _, e := range edges {
		h ^= uint64(e[0])
		h *= fnvPrime
		h ^= uint64(e[1])
		h *= fnvPrime
	}
	return h
}

// cachedGraph is buildGraph behind the graphs cache. The entry's graph is
// shared across requests and must be treated read-only (the engine and
// every prover already do).
func cachedGraph(n int, edges [][2]int) (*graphEntry, error) {
	key := setupcache.Key{
		Kind:   "graph",
		A:      int64(n),
		B:      int64(len(edges)),
		Digest: edgesDigest(edges),
	}
	v, err := graphCache.Do(key,
		func(v any) bool { return v.(*graphEntry).matches(n, edges) },
		func() (any, error) {
			g, err := buildGraph(n, edges)
			if err != nil {
				return nil, err
			}
			cp := make([][2]int, len(edges))
			copy(cp, edges)
			return &graphEntry{n: n, edges: cp, g: g, connected: g.IsConnected()}, nil
		})
	if err != nil {
		return nil, err
	}
	return v.(*graphEntry), nil
}

// networkGraph is cachedGraph for the graph a run's nodes talk over,
// which must be connected: the paper's network is, the spanning-tree
// checks fail on any other mid-run, and the labeling schemes' neighbor
// comparisons reach one component only, so their verdict would not be
// justified. A disconnected one is refused before a protocol is built.
func networkGraph(n int, edges [][2]int) (*graph.Graph, error) {
	e, err := cachedGraph(n, edges)
	if err != nil {
		return nil, err
	}
	if !e.connected {
		return nil, badRequestf("dip: the network graph on %d vertices is not connected", n)
	}
	return e.g, nil
}

// cachedProtocol memoizes one protocol constructor call. The key carries
// every constructor argument, so no verifier is needed: equal keys mean
// equal (deterministically constructed) instances. Constructor failures
// are parameter validation (n too small, inconsistent sizes), so they
// surface as request errors.
func cachedProtocol(kind string, a, b, c, seed int64, build func() (any, error)) (any, error) {
	key := setupcache.Key{Kind: kind, A: a, B: b, C: c, D: seed}
	v, err := protoCache.Do(key, nil, build)
	if err != nil {
		return nil, asBadRequest(err)
	}
	return v, nil
}

// ResetSetupCaches drops every request-path memo: graphs, protocol
// instances and per-graph artifacts (automorphisms, spanning trees).
// Tests use it to compare cold and warm runs; a server never needs it.
func ResetSetupCaches() {
	graphCache.Reset()
	protoCache.Reset()
	setupcache.ResetAll()
}
