package core

import (
	"testing"

	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/wire"
)

func TestSymRPLSCompleteness(t *testing.T) {
	g := symmetricGraph(t, 8, 70)
	rpls, err := NewSymRPLS(g.N(), 70)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		res, err := rpls.Run(g, rpls.HonestProver(), seed)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			t.Fatalf("seed %d: honest advice rejected: %v", seed, res.Decisions)
		}
	}
}

func TestSymRPLSVerificationCostIsLogarithmic(t *testing.T) {
	// The whole point of [4]: the node-to-node verification traffic drops
	// from Θ(deg·n²) to Θ(deg·log n) while the advice stays Θ(n²).
	g := symmetricGraph(t, 12, 71)
	n := g.N()

	rpls, err := NewSymRPLS(n, 71)
	if err != nil {
		t.Fatal(err)
	}
	lcp, err := NewSymLCP(n)
	if err != nil {
		t.Fatal(err)
	}

	rres, err := rpls.Run(g, rpls.HonestProver(), 1)
	if err != nil {
		t.Fatal(err)
	}
	lres, err := lcp.Run(g, lcp.HonestProver(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rres.Accepted || !lres.Accepted {
		t.Fatal("honest runs rejected")
	}

	// Advice (prover bits) identical; verification traffic exponentially
	// smaller for RPLS.
	if rres.Cost.FromProver[0] != lres.Cost.FromProver[0] {
		t.Fatalf("advice bits differ: %d vs %d",
			rres.Cost.FromProver[0], lres.Cost.FromProver[0])
	}
	rN2N := rres.Cost.MaxNodeToNodeBits()
	lN2N := lres.Cost.MaxNodeToNodeBits()
	if rN2N*10 > lN2N {
		t.Fatalf("fingerprinting saved too little: RPLS %d vs LCP %d node-to-node bits",
			rN2N, lN2N)
	}
	t.Logf("n=%d: advice %d bits; node-to-node RPLS %d vs LCP %d",
		n, rpls.AdviceBits(), rN2N, lN2N)
}

func TestSymRPLSCatchesInconsistentAdvice(t *testing.T) {
	// One node receives advice for a different graph: the random
	// fingerprint comparison must catch it with high probability.
	g := symmetricGraph(t, 8, 72)
	rpls, err := NewSymRPLS(g.N(), 72)
	if err != nil {
		t.Fatal(err)
	}
	accepts := 0
	const trials = 20
	for seed := int64(0); seed < trials; seed++ {
		res, err := rpls.Run(g, rpls.InconsistentAdviceProver(2), seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted {
			accepts++
		}
	}
	// Collision probability per comparison ≤ adviceBits/p ≪ 1/3.
	if accepts > 1 {
		t.Fatalf("inconsistent advice accepted %d/%d times", accepts, trials)
	}
}

func TestSymRPLSRejectsAsymmetric(t *testing.T) {
	g := asymmetricGraph(t, 9, 73)
	rpls, err := NewSymRPLS(g.N(), 73)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rpls.Run(g, rpls.HonestProver(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("rigid graph accepted")
	}
}

// TestSymRPLSFingerprintBits runs sym-rpls on the 64-cycle and checks
// every exchanged fingerprint, a hash seed and a hash value, against
// 2·⌈lg p⌉ = O(log n) bits, and the advice against Θ(n²).
func TestSymRPLSFingerprintBits(t *testing.T) {
	rpls, err := NewSymRPLS(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	widest := 0
	opts := network.Options{Seed: 1, CorruptExchange: func(_, _, _ int, m wire.Message) wire.Message {
		widest = max(widest, m.Bits)
		return m
	}}
	if _, err := network.Run(rpls.Spec(), graph.Cycle(64), nil, rpls.HonestProver(), opts); err != nil {
		t.Fatal(err)
	}
	// 2·⌈lg p⌉ with p ≤ 100·64³: at most 2·25 bits.
	if widest == 0 || widest > 50 {
		t.Fatalf("fingerprint %d bits, want O(log n)", widest)
	}
	if rpls.AdviceBits() < 64*63/2 {
		t.Fatal("advice not quadratic")
	}
}

// TestSymRPLSOverlongAdviceRejects hands node 3 of an 8-cycle its honest
// advice plus one extra set bit. The fingerprint must cover only the first
// AdviceBits() bits (so the digest step cannot index past the family's
// dimension), and node 3 must reject on its own length check: the run
// completes with a rejection, not a RunError.
func TestSymRPLSOverlongAdviceRejects(t *testing.T) {
	g := graph.Cycle(8)
	rpls, err := NewSymRPLS(g.N(), 5)
	if err != nil {
		t.Fatal(err)
	}
	prover := proverFunc(func(round int, view *network.ProverView) (*network.Response, error) {
		resp, err := rpls.HonestProver().Respond(round, view)
		if err != nil {
			return nil, err
		}
		var w wire.Writer
		w.WriteBits(resp.PerNode[3].Data, resp.PerNode[3].Bits)
		w.WriteBool(true)
		resp.PerNode[3] = w.Message()
		return resp, nil
	})
	for seed := int64(0); seed < 4; seed++ {
		res, err := rpls.Run(g, prover, seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Accepted || res.Decisions[3] {
			t.Fatalf("seed %d: overlong advice accepted: %v", seed, res.Decisions)
		}
	}
}
