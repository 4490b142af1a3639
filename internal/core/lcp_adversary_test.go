package core

import (
	"math/big"
	"math/rand"
	"testing"

	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/perm"
	"dip/internal/wire"
)

func bigPrime(v int64) *big.Int { return big.NewInt(v) }

func TestSymLCPCompleteness(t *testing.T) {
	g := symmetricGraph(t, 7, 30)
	lcp, err := NewSymLCP(g.N())
	if err != nil {
		t.Fatal(err)
	}
	res, err := lcp.Run(g, lcp.HonestProver(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("honest LCP rejected: %v", res.Decisions)
	}
	// The cost is the advice length, and it is Θ(n²).
	if got := res.Cost.FromProver[0]; got != lcp.AdviceBits() {
		t.Fatalf("advice bits = %d, want %d", got, lcp.AdviceBits())
	}
	n := g.N()
	if lcp.AdviceBits() < n*(n-1)/2 {
		t.Fatal("advice not quadratic")
	}
}

func TestSymLCPSoundness(t *testing.T) {
	// On an asymmetric graph, no advice makes all nodes accept: the
	// honest prover falls back to the identity (witness check fires), and
	// wrong-matrix advice is caught by the row owners. This scheme is
	// deterministic, so a single run each suffices.
	g := asymmetricGraph(t, 8, 31)
	lcp, err := NewSymLCP(g.N())
	if err != nil {
		t.Fatal(err)
	}
	res, err := lcp.Run(g, lcp.HonestProver(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("asymmetric graph accepted by SymLCP")
	}

	// A forged matrix (claiming a symmetric graph) is caught by some row
	// owner.
	forged := proverFunc(func(round int, view *network.ProverView) (*network.Response, error) {
		fake := graph.Cycle(g.N()) // symmetric, but not the real graph
		rho := graph.FindNontrivialAutomorphism(fake)
		adv := lcp.encode(symLCPAdvice{g: fake, rho: rho, witness: rho.Moved()})
		return network.Broadcast(g.N(), adv), nil
	})
	res, err = lcp.Run(g, forged, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("forged matrix accepted by SymLCP")
	}
}

func TestGNILCP(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	lcp, err := NewGNILCP(7)
	if err != nil {
		t.Fatal(err)
	}
	yes, err := NewGNIYesInstance(7, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lcp.Run(yes.G0, yes.G1, lcp.HonestProver(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("yes-instance rejected by GNILCP")
	}
	if got := res.Cost.FromProver[0]; got != lcp.AdviceBits() {
		t.Fatalf("advice bits = %d, want %d", got, lcp.AdviceBits())
	}

	no, err := NewGNINoInstance(7, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err = lcp.Run(no.G0, no.G1, lcp.HonestProver(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("isomorphic pair accepted by GNILCP")
	}
}

func TestSpanTreeLCP(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	g := graph.ConnectedGNP(20, 0.3, rng)
	lcp, err := NewSpanTreeLCP(20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := lcp.Run(g, lcp.HonestProver(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("honest spanning tree rejected")
	}
	if got := res.Cost.FromProver[3]; got != lcp.AdviceBits() {
		t.Fatalf("advice bits = %d, want %d", got, lcp.AdviceBits())
	}

	// Corrupted advice must be rejected.
	corrupt := func(round, node int, m wire.Message) wire.Message {
		if node != 5 {
			return m
		}
		out := wire.Message{Data: append([]byte(nil), m.Data...), Bits: m.Bits}
		out.Data[0] ^= 1
		return out
	}
	res, err = network.Run(lcp.Spec(), g, nil, lcp.HonestProver(),
		network.Options{Seed: 2, Corrupt: corrupt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("corrupted tree advice accepted")
	}
}

func TestLCPValidation(t *testing.T) {
	if _, err := NewSymLCP(1); err == nil {
		t.Fatal("SymLCP n=1 accepted")
	}
	if _, err := NewGNILCP(1); err == nil {
		t.Fatal("GNILCP n=1 accepted")
	}
	if _, err := NewSpanTreeLCP(0); err == nil {
		t.Fatal("SpanTreeLCP n=0 accepted")
	}
}

func TestEchoCheatingProverCaught(t *testing.T) {
	// The echo cheater finds a colliding index but the root's i = i_r
	// check catches it deterministically.
	g := asymmetricGraph(t, 8, 34)
	proto, err := NewSymDMAM(g.N(), 34)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 10; trial++ {
		rho := perm.RandomNonIdentity(g.N(), rng)
		res, err := proto.Run(g, proto.EchoCheatingProver(rho, rho.Moved()), int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted {
			t.Fatal("echo cheater accepted")
		}
	}
}

func TestInconsistentBroadcastCaught(t *testing.T) {
	g := asymmetricGraph(t, 8, 36)
	proto, err := NewSymDMAM(g.N(), 36)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 10; trial++ {
		res, err := proto.Run(g, proto.InconsistentBroadcastProver(rng), int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted {
			t.Fatal("inconsistent broadcast accepted")
		}
	}
}

func TestPostHocAttackFailsAgainstBigPrime(t *testing.T) {
	// Against the real Protocol 2 modulus the post-hoc search is hopeless.
	g := symmetricGraph(t, 6, 38) // symmetric: but the attacker doesn't use the automorphism
	proto, err := NewSymDAM(g.N(), 38)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(39))
	res, err := proto.Run(g, proto.PostHocCollisionProver(50, rng), 1)
	if err != nil {
		t.Fatal(err)
	}
	// The attacker commits to a random non-automorphism: rejected.
	if res.Accepted {
		t.Fatal("post-hoc attack succeeded against n^{n+2} modulus")
	}
}

func TestPostHocAttackBreaksSmallPrime(t *testing.T) {
	// E9 in miniature: the same attack against a weakened protocol whose
	// modulus is tiny succeeds with noticeable probability — demonstrating
	// why challenge-first protocols need the giant modulus.
	if testing.Short() {
		t.Skip("post-hoc sweep is slow")
	}
	g := asymmetricGraph(t, 8, 40)
	weak, err := NewSymDAMWithPrime(g.N(), bigPrime(101))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	accepts := 0
	const trials = 15
	for i := 0; i < trials; i++ {
		res, err := weak.Run(g, weak.PostHocCollisionProver(800, rng), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted {
			accepts++
		}
	}
	// With p = 101 and an 800-mapping budget the collision search should
	// essentially always succeed.
	if accepts < trials/2 {
		t.Fatalf("attack succeeded only %d/%d times against p=101", accepts, trials)
	}
}

func TestGarbageProverRejectedEverywhere(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := symmetricGraph(t, 6, 42)

	dmam, err := NewSymDMAM(g.N(), 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dmam.Run(g, GarbageProver([]int{64, 64}, rng), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("garbage accepted by SymDMAM")
	}

	dam, err := NewSymDAM(g.N(), 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err = dam.Run(g, GarbageProver([]int{256}, rng), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("garbage accepted by SymDAM")
	}
}
