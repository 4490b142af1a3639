package dip

import (
	"bytes"
	"fmt"
	"math/big"
	"sync"
	"testing"

	"dip/internal/core"
	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/obs"
	"dip/internal/prime"
	"dip/internal/stats"
)

// cacheTestRequests is a mixed workload hitting every cache from several
// angles: two symmetry protocols on two instance sizes, repeated seeds
// (protocol-cache hits) and fresh seeds (misses, except for sym-dam,
// whose instance is one per n), plus a baseline scheme.
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

// TestSymDAMModulusPerN pins sym-dam's modulus as a function of n alone:
// for n = 2..66 the instance's modulus is the least prime at or above
// 10·n^{n+2}, found here by testing one candidate at a time, and seeds 1
// and 2 get the same one. Run of sym-dam at seeds 1–3 then makes one
// protocol-cache miss, and hits after it.
func TestSymDAMModulusPerN(t *testing.T) {
	for n := 2; n <= 66; n++ {
		lo, _, err := prime.PowerWindow(n)
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Int).Set(lo)
		for !prime.IsPrime(want) {
			want.Add(want, big.NewInt(1))
		}
		for _, seed := range []int64{1, 2} {
			dam, err := core.NewSymDAM(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			if dam.P().Cmp(want) != 0 {
				t.Fatalf("n=%d seed %d: modulus %v, want the least prime %v at or above 10·n^(n+2)", n, seed, dam.P(), want)
			}
		}
	}

	ResetSetupCaches()
	meter := obs.Cache("protocols")
	req := Request{Protocol: "sym-dam", N: 8, Edges: edgesOf(graph.Cycle(8))}
	for seed := int64(1); seed <= 3; seed++ {
		hits, misses := meter.Hits.Value(), meter.Misses.Value()
		req.Options.Seed = seed
		if _, err := Run(req); err != nil {
			t.Fatal(err)
		}
		wantMisses := int64(0)
		if seed == 1 {
			wantMisses = 1
		}
		if h, m := meter.Hits.Value()-hits, meter.Misses.Value()-misses; m != wantMisses || h+m != 1 {
			t.Fatalf("seed %d: %d protocol-cache hits and %d misses, want %d misses of one lookup", seed, h, m, wantMisses)
		}
	}
}
