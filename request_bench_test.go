package dip

import (
	"testing"
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
