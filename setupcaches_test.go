package dip

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/stats"
)

// cacheTestRequests is a mixed workload hitting every cache from several
// angles: two symmetry protocols on two instance sizes, repeated seeds
// (protocol-cache hits) and fresh seeds (misses), plus a baseline scheme.
func cacheTestRequests() []Request {
	var reqs []Request
	for _, n := range []int{8, 12} {
		edges := graph.Cycle(n).Edges()
		for _, proto := range []string{"sym-dmam", "sym-dam", "sym-rpls"} {
			for i := int64(0); i < 3; i++ {
				reqs = append(reqs, Request{
					Protocol: proto,
					N:        n,
					Edges:    edges,
					Options:  Options{Seed: stats.DeriveSeed(7, i)},
				})
			}
			// Repeat the first seed: the warm path must hit the protocol
			// cache and still answer identically.
			reqs = append(reqs, Request{
				Protocol: proto,
				N:        n,
				Edges:    edges,
				Options:  Options{Seed: stats.DeriveSeed(7, 0)},
			})
		}
	}
	return reqs
}

// encodeReport renders a run's outcome at the dip-report/v1 level — the
// byte stream a service client actually receives.
func encodeReport(t *testing.T, req Request) []byte {
	t.Helper()
	rep, err := Run(req)
	if err != nil {
		t.Fatalf("%s n=%d seed=%d: %v", req.Protocol, req.N, req.Options.Seed, err)
	}
	var buf bytes.Buffer
	if err := WireReportFrom(rep, req.Options.Seed).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCachedRunsByteIdentical is the setup-cache invariant: a request
// answered from warm caches is byte-identical at the dip-report/v1 level
// to the same request on fully cold caches. Every cache layer is in play —
// graphs, protocol instances, per-graph artifacts.
func TestCachedRunsByteIdentical(t *testing.T) {
	reqs := cacheTestRequests()

	ResetSetupCaches()
	cold := make([][]byte, len(reqs))
	for i, req := range reqs {
		// Reset between every cold run so no request warms a cache for a
		// later one: each cold answer is the from-scratch ground truth.
		ResetSetupCaches()
		cold[i] = encodeReport(t, req)
	}

	ResetSetupCaches()
	for round := 0; round < 3; round++ {
		for i, req := range reqs {
			warm := encodeReport(t, req)
			if !bytes.Equal(cold[i], warm) {
				t.Fatalf("round %d: %s n=%d seed=%d: warm report differs from cold\ncold: %s\nwarm: %s",
					round, req.Protocol, req.N, req.Options.Seed, cold[i], warm)
			}
		}
	}
}

// TestRunBatchMatchesSingleRuns: batching is a scheduling optimization,
// not a semantic one — each batch item's report is byte-identical to the
// same request run alone.
func TestRunBatchMatchesSingleRuns(t *testing.T) {
	reqs := cacheTestRequests()
	ResetSetupCaches()
	want := make([][]byte, len(reqs))
	for i, req := range reqs {
		want[i] = encodeReport(t, req)
	}

	results := RunBatch(reqs)
	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(results), len(reqs))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("item %d: %v", i, res.Err)
		}
		var buf bytes.Buffer
		if err := WireReportFrom(res.Report, reqs[i].Options.Seed).Encode(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want[i], buf.Bytes()) {
			t.Fatalf("item %d (%s): batch report differs from single run", i, reqs[i].Protocol)
		}
	}
}

// TestRunBatchPartialFailure: a bad item yields its own error and leaves
// the rest of the batch untouched.
func TestRunBatchPartialFailure(t *testing.T) {
	edges := graph.Cycle(6).Edges()
	reqs := []Request{
		{Protocol: "sym-dmam", N: 6, Edges: edges, Options: Options{Seed: 1}},
		{Protocol: "sym-dmam", N: 6, Edges: [][2]int{{0, 9}}, Options: Options{Seed: 1}},
		{Protocol: "sym-dmam", N: 6, Edges: edges, Options: Options{Seed: 2}},
	}
	results := RunBatch(reqs)
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("good items failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("bad item did not fail")
	}
}

// TestConcurrentMixedRequestStorm hammers the full request path — setup
// caches and the engine-state pool — with mixed (protocol, n) requests
// from many goroutines. Run under -race this is the cache/pool data-race
// check; in any mode it verifies every concurrent answer is bit-identical
// to the cold-path reference and that the state pool leaks nothing (free
// states never exceed capacity).
func TestConcurrentMixedRequestStorm(t *testing.T) {
	reqs := cacheTestRequests()

	ResetSetupCaches()
	ref := make([][]byte, len(reqs))
	for i, req := range reqs {
		ResetSetupCaches()
		ref[i] = encodeReport(t, req)
	}

	ResetSetupCaches()
	const workers = 8
	const rounds = 6
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Stagger the order per worker so different (protocol, n)
				// pairs collide in the caches at the same time.
				for k := range reqs {
					i := (k*7 + w*3 + r) % len(reqs)
					rep, err := Run(reqs[i])
					if err != nil {
						errCh <- fmt.Errorf("worker %d: %s: %v", w, reqs[i].Protocol, err)
						return
					}
					var buf bytes.Buffer
					if err := WireReportFrom(rep, reqs[i].Options.Seed).Encode(&buf); err != nil {
						errCh <- err
						return
					}
					if !bytes.Equal(ref[i], buf.Bytes()) {
						errCh <- fmt.Errorf("worker %d: %s n=%d seed=%d: concurrent report differs from cold reference",
							w, reqs[i].Protocol, reqs[i].N, reqs[i].Options.Seed)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st := network.StatePoolStats()
	if st.Free > st.Capacity {
		t.Fatalf("state pool leak: %d free states for capacity %d", st.Free, st.Capacity)
	}
}
