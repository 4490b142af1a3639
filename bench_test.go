package dip

// One benchmark per experiment table (E1–E11, matching DESIGN.md's
// per-experiment index) plus micro-benchmarks for the engine and the
// substrate hot paths. Each experiment bench times one representative
// protocol run of that experiment's workload; the full sweeps (with
// acceptance statistics) are regenerated by cmd/dipbench.

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"dip/internal/core"
	"dip/internal/graph"
	"dip/internal/hashing"
	"dip/internal/lower"
	"dip/internal/network"
	"dip/internal/perm"
	"dip/internal/prime"
	"dip/internal/wire"
)

// benchState lazily builds the shared fixtures.
type benchState struct {
	sym66   *graph.Graph // doubled rigid graph, 66 vertices
	asym12  *graph.Graph
	dsym    *graph.Graph
	gniYes  *core.GNIInstance
	family6 []*graph.Graph
}

var (
	bsOnce sync.Once
	bs     benchState
	bsErr  error
)

func fixtures(b *testing.B) *benchState {
	b.Helper()
	bsOnce.Do(func() {
		rng := rand.New(rand.NewSource(99))
		core32, err := graph.RandomAsymmetricConnected(32, rng)
		if err != nil {
			bsErr = err
			return
		}
		bs.sym66 = graph.Doubled(core32, 0)
		if bs.asym12, err = graph.RandomAsymmetricConnected(12, rng); err != nil {
			bsErr = err
			return
		}
		bs.dsym = graph.DSymGraph(graph.ConnectedGNP(24, 0.5, rng), 1)
		if bs.gniYes, err = core.NewGNIYesInstance(6, rng); err != nil {
			bsErr = err
			return
		}
		if bs.family6, err = lower.Family(6); err != nil {
			bsErr = err
			return
		}
	})
	if bsErr != nil {
		b.Fatal(bsErr)
	}
	return &bs
}

// BenchmarkE1SymDMAM times one full Protocol 1 run (honest prover incl.
// automorphism search) on a 66-vertex symmetric graph.
func BenchmarkE1SymDMAM(b *testing.B) {
	f := fixtures(b)
	proto, err := core.NewSymDMAM(f.sym66.N(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := proto.Run(f.sym66, proto.HonestProver(), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Accepted {
			b.Fatal("rejected")
		}
	}
}

// BenchmarkE2SymDAM times one full Protocol 2 run (n^{n+2} modulus) on a
// 22-vertex symmetric graph.
func BenchmarkE2SymDAM(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	base, err := graph.RandomAsymmetricConnected(10, rng)
	if err != nil {
		b.Fatal(err)
	}
	g := graph.Doubled(base, 0)
	proto, err := core.NewSymDAM(g.N(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := proto.Run(g, proto.HonestProver(), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Accepted {
			b.Fatal("rejected")
		}
	}
}

// BenchmarkE3SeparationDSym times the cheap half of the separation: one
// DSym dAM run on a 51-vertex dumbbell.
func BenchmarkE3SeparationDSym(b *testing.B) {
	f := fixtures(b)
	proto, err := core.NewDSymDAM(24, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := proto.Run(f.dsym, proto.HonestProver(), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Accepted {
			b.Fatal("rejected")
		}
	}
}

// BenchmarkE3SeparationLCP times the expensive half: one Θ(n²) LCP run on
// the same dumbbell.
func BenchmarkE3SeparationLCP(b *testing.B) {
	f := fixtures(b)
	lcp, err := core.NewSymLCP(f.dsym.N())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lcp.Run(f.dsym, lcp.HonestProver(), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Accepted {
			b.Fatal("rejected")
		}
	}
}

// BenchmarkE4Packing times the Section 3.4 simple-protocol analysis on the
// exactly-enumerated 6-vertex family.
func BenchmarkE4Packing(b *testing.B) {
	f := fixtures(b)
	sides := lower.MakeSides(f.family6)
	p := lower.SimpleHashProtocol{L: 4, R: 1024}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.MaxNoAcceptance(sides) >= 1.0/3 {
			b.Fatal("protocol unexpectedly unsound")
		}
	}
}

// BenchmarkE5GNI times one distributed Goldwasser-Sipser run (8
// repetitions, each with a full 2·6! preimage search) on a yes-instance.
func BenchmarkE5GNI(b *testing.B) {
	f := fixtures(b)
	proto, err := core.NewGNIDAMAM(6, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proto.Run(f.gniYes.G0, f.gniYes.G1, proto.HonestProver(), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6HashRow times the per-node hash of Protocol 1: one row matrix
// under the Theorem 3.2 family at n = 64 parameters, from the index's
// power table (built once per host and run, outside the timed loop).
func BenchmarkE6HashRow(b *testing.B) {
	n := 64
	p, err := prime.ForCubicWindow(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	family, err := hashing.NewLinearFamily(n*n, p)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	seed := family.RandomSeed(rng)
	row := graph.Cycle(n).ClosedRow(7)
	tab := family.RowTable(seed, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Hash(7, row)
	}
}

// BenchmarkE7Adversary times one cheating-prover run (random mapping
// against Protocol 1 on a rigid graph).
func BenchmarkE7Adversary(b *testing.B) {
	f := fixtures(b)
	proto, err := core.NewSymDMAM(f.asym12.N(), 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := proto.Run(f.asym12, proto.RandomMappingProver(rng), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if res.Accepted {
			b.Fatal("cheater accepted")
		}
	}
}

// BenchmarkE8SpanTree times the [23] building block on a 256-vertex graph.
func BenchmarkE8SpanTree(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := graph.ConnectedGNP(256, 0.08, rng)
	lcp, err := core.NewSpanTreeLCP(256)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lcp.Run(g, lcp.HonestProver(), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Accepted {
			b.Fatal("rejected")
		}
	}
}

// BenchmarkE9Ablation times one post-hoc collision attack against the
// weakened (p = 10007) challenge-first protocol.
func BenchmarkE9Ablation(b *testing.B) {
	f := fixtures(b)
	weak, err := core.NewSymDAMWithPrime(f.asym12.N(), big.NewInt(10007))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := weak.Run(f.asym12, weak.PostHocCollisionProver(200, rng), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// echoBenchSpec is the raw proof-engine workload: one Arthur-Merlin echo
// round with 32-bit messages, identical for both engine benchmarks.
func echoBenchSpec() *network.Spec {
	return &network.Spec{
		Name: "bench-echo",
		Rounds: []network.Round{
			{Kind: network.Arthur, Challenge: func(_ int, rng *rand.Rand, _ *network.NodeView) wire.Message {
				var w wire.Writer
				w.WriteUint(rng.Uint64()&0xFFFFFFFF, 32)
				return w.Message()
			}},
			{Kind: network.Merlin},
		},
		Decide: func(int, *network.NodeView) bool { return true },
	}
}

// BenchmarkEngineSequential measures the default (sequential) executor on
// one echo round over a 256-node cycle — the workload whose allocs/op
// BENCH_seed1.json records and `make bench-check` gates.
func BenchmarkEngineSequential(b *testing.B) {
	g := graph.Cycle(256)
	spec := echoBenchSpec()
	prover := echoBenchProver{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := network.Options{Seed: int64(i)}
		if _, err := network.Run(spec, g, nil, prover, opts); err != nil {
			b.Fatal(err)
		}
	}
}

type echoBenchProver struct{}

func (echoBenchProver) Respond(_ int, view *network.ProverView) (*network.Response, error) {
	last := view.Challenges[len(view.Challenges)-1]
	resp := &network.Response{PerNode: make([]wire.Message, len(last))}
	copy(resp.PerNode, last)
	return resp, nil
}

// BenchmarkAutomorphismSearch measures the honest Sym prover's core
// computation: finding the mirror automorphism of a 130-vertex doubled
// graph.
func BenchmarkAutomorphismSearch(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	base, err := graph.RandomAsymmetricConnected(64, rng)
	if err != nil {
		b.Fatal(err)
	}
	g := graph.Doubled(base, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if graph.FindNontrivialAutomorphism(g) == nil {
			b.Fatal("no automorphism found")
		}
	}
}

// BenchmarkPermutationEnumeration measures the GNI prover's inner loop:
// lexicographic enumeration with Lehmer ranking round trips.
func BenchmarkPermutationEnumeration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := perm.Identity(8)
		count := 1
		for p.NextLex() {
			count++
		}
		if count != 40320 {
			b.Fatal("enumeration incomplete")
		}
	}
}

// BenchmarkE10GNIVariants times one run of the one-exchange GNI variant
// (the round-reduction extension) at 8 repetitions.
func BenchmarkE10GNIVariants(b *testing.B) {
	f := fixtures(b)
	proto, err := core.NewGNIDAM(6, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := proto.Run(f.gniYes.G0, f.gniYes.G1, proto.HonestProver(), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11RPLS times one fingerprinted-verification run on a 66-vertex
// symmetric graph.
func BenchmarkE11RPLS(b *testing.B) {
	f := fixtures(b)
	rpls, err := core.NewSymRPLS(f.sym66.N(), 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rpls.Run(f.sym66, rpls.HonestProver(), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Accepted {
			b.Fatal("rejected")
		}
	}
}
