package dip

import (
	"context"
	"math/rand"
	"testing"

	"dip/internal/core"
	"dip/internal/stats"
)

// cycleEdges returns the n-cycle edge list: the load generator's instance.
func cycleEdges(n int) [][2]int {
	edges := make([][2]int, n)
	for i := 0; i < n; i++ {
		edges[i] = [2]int{i, (i + 1) % n}
	}
	return edges
}

// BenchmarkRequestSymDMAM times the full service request path — dispatch,
// graph build, protocol setup, engine run, report assembly — on dipload's
// default workload (sym-dmam on a 64-cycle), the one request_bench in
// BENCH_seed1.json counts allocations of.
func BenchmarkRequestSymDMAM(b *testing.B) {
	edges := cycleEdges(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := Request{Protocol: "sym-dmam", N: 64, Edges: edges, Options: Options{Seed: int64(i)}}
		rep, err := Run(req)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Accepted {
			b.Fatal("rejected")
		}
	}
}

// BenchmarkRequestFleetSymDMAM times BenchmarkRequestSymDMAM's workload
// on a fleet: two in-process peer servers over loopback behind DialFleet,
// a fresh seed DeriveSeed(1, i) per op, so its time and allocations count
// the coordinator, the wire and both peers' sessions.
func BenchmarkRequestFleetSymDMAM(b *testing.B) {
	fleet, err := DialFleet(startDipPeers(b, 2), FleetOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer fleet.Close()
	edges := cycleEdges(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := Request{Protocol: "sym-dmam", N: 64, Edges: edges, Options: Options{Seed: stats.DeriveSeed(1, int64(i))}}
		rep, err := fleet.Run(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Accepted {
			b.Fatal("rejected")
		}
	}
}

// BenchmarkRequestSymDMAMFixedSeed is the same workload at one fixed seed:
// the batch-mode shape, where setup is fully amortizable.
func BenchmarkRequestSymDMAMFixedSeed(b *testing.B) {
	edges := cycleEdges(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := Request{Protocol: "sym-dmam", N: 64, Edges: edges, Options: Options{Seed: 7}}
		rep, err := Run(req)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Accepted {
			b.Fatal("rejected")
		}
	}
}

// BenchmarkRequestHeavyMix times the full request path on the benchmark's
// inproc-heavy stream: sym-dam, sym-lcp and sym-rpls round-robin on a
// 64-cycle, a fresh seed per op, as served requests arrive: every sym-rpls
// op pays its own prime search, and sym-dam's per-n instance is searched
// once and then hit.
func BenchmarkRequestHeavyMix(b *testing.B) {
	edges := cycleEdges(64)
	mix := [...]string{"sym-dam", "sym-lcp", "sym-rpls"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := Request{Protocol: mix[i%len(mix)], N: 64, Edges: edges, Options: Options{Seed: int64(i)}}
		rep, err := Run(req)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Accepted {
			b.Fatal("rejected")
		}
	}
}

// BenchmarkRequestHeavyProtocols times the heavy mix one protocol at a
// time, so that each protocol's cost shows apart from the others': each
// sub-benchmark runs its protocol on the 64-cycle with a fresh seed per
// op, as BenchmarkRequestHeavyMix does.
func BenchmarkRequestHeavyProtocols(b *testing.B) {
	edges := cycleEdges(64)
	for _, protocol := range []string{"sym-dam", "sym-lcp", "sym-rpls"} {
		b.Run(protocol, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := Request{Protocol: protocol, N: 64, Edges: edges, Options: Options{Seed: int64(i)}}
				rep, err := Run(req)
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Accepted {
					b.Fatal("rejected")
				}
			}
		})
	}
}

// BenchmarkRequestGNIProtocols times the full request path of the GNI
// protocols that hash with the Goldwasser–Sipser kit, one sub-benchmark
// each: gni-damam and gni-general at n = 6, gni-marked with two marked
// sets of k = 6 vertices in a 13-node network, and gni-damam at n = 8,
// where the hash's field prime q exceeds 2^32. Each runs one fixed
// instance (a non-isomorphic pair: two random rigid graphs, or C₆ against
// K₃,₃ for gni-general) at one fixed seed with 4 repetitions, so the
// protocol cache hits and each op is one run, most of it the honest
// prover's preimage search. It checks the error, not acceptance.
func BenchmarkRequestGNIProtocols(b *testing.B) {
	const reps = 4
	rigid := func(n int) (edges0, edges1 [][2]int) {
		inst, err := core.NewGNIYesInstance(n, rand.New(rand.NewSource(1)))
		if err != nil {
			b.Fatal(err)
		}
		return inst.G0.Edges(), inst.G1.Edges()
	}
	a6, b6 := rigid(6)
	a8, b8 := rigid(8)
	var k33 [][2]int
	for u := 0; u < 3; u++ {
		for v := 3; v < 6; v++ {
			k33 = append(k33, [2]int{u, v})
		}
	}
	// gni-marked: a6 on nodes 0–5 (marked 0), b6 on nodes 6–11 (marked
	// 1), and node 12 an unmarked hub joined to all of them.
	marks := make([]int, 13)
	marked := append([][2]int(nil), a6...)
	for v := 0; v < 6; v++ {
		marks[v+6] = 1
	}
	marks[12] = -1
	for _, e := range b6 {
		marked = append(marked, [2]int{e[0] + 6, e[1] + 6})
	}
	for v := 0; v < 12; v++ {
		marked = append(marked, [2]int{v, 12})
	}
	opts := Options{Seed: 7, Repetitions: reps}
	for _, c := range []struct {
		name string
		req  Request
	}{
		{"gni-damam/n=6", Request{Protocol: "gni-damam", N: 6, Edges: a6, Edges1: b6, Options: opts}},
		{"gni-general/n=6", Request{Protocol: "gni-general", N: 6, Edges: cycleEdges(6), Edges1: k33, Options: opts}},
		{"gni-marked/k=6", Request{Protocol: "gni-marked", N: 13, Edges: marked, Marks: marks, Options: opts}},
		{"gni-damam/n=8", Request{Protocol: "gni-damam", N: 8, Edges: a8, Edges1: b8, Options: opts}},
	} {
		b.Run(c.name, func(b *testing.B) {
			// The first run builds the protocol into the cache.
			if _, err := Run(c.req); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(c.req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
