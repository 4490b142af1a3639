package core

import (
	"fmt"
	"math/big"
	"math/rand"

	"dip/internal/bitset"
	"dip/internal/graph"
	"dip/internal/hashing"
	"dip/internal/network"
	"dip/internal/perm"
	"dip/internal/wire"
)

// This file collects cheating provers. Each one implements a concrete
// attack against a protocol; the soundness experiments (E7) measure their
// acceptance probabilities, and the ablation experiment (E9) shows which
// protocol design choice defeats which attack.

// fullMatrixHashes returns h_i(Σ_v [v, N(v)]) and h_i(Σ_v [ρ(v), ρ(N(v))])
// — the two quantities whose equality the Sym protocols test at the root.
func fullMatrixHashes(g *graph.Graph, family *hashing.LinearFamily, i *big.Int, rho perm.Perm) (*big.Int, *big.Int) {
	n := g.N()
	ha, hb := new(big.Int), new(big.Int)
	mapped := bitset.New(n)
	for v := 0; v < n; v++ {
		closed := g.ClosedRow(v)
		ha = family.AddModInto(ha, family.HashRowMatrix(i, n, v, closed))
		hb = family.AddModInto(hb, family.HashRowMatrix(i, n, rho[v], closed.PermuteInto(mapped, rho)))
	}
	return ha, hb
}

// RandomMappingProver attacks Protocol 1 on an asymmetric graph: it runs
// the honest strategy but commits to a random non-identity mapping. It is
// caught by the hash comparison with probability ≥ 1 - n²/p.
func (s *SymDMAM) RandomMappingProver(rng *rand.Rand) network.Prover {
	rho := perm.RandomNonIdentity(s.n, rng)
	return s.ProverWithMapping(rho, rho.Moved())
}

// symDMAMEchoCheater attacks Protocol 1 by ignoring the root's challenge:
// after the commitment round it scans hash indices for one under which its
// fake mapping collides, and echoes that index instead of the root's. The
// broadcast-echo check — the root verifies i = i_r — defeats this attack
// deterministically; experiment E7 confirms 0% acceptance.
type symDMAMEchoCheater struct {
	proto *SymDMAM
	inner *symDMAMProver
	rho   perm.Perm
	root  int
}

// EchoCheatingProver returns the echo-forging attacker committed to rho.
func (s *SymDMAM) EchoCheatingProver(rho perm.Perm, root int) network.Prover {
	return &symDMAMEchoCheater{
		proto: s,
		inner: &symDMAMProver{proto: s, fixedRho: rho, fixedRoot: root},
		rho:   rho,
		root:  root,
	}
}

func (c *symDMAMEchoCheater) Respond(round int, view *network.ProverView) (*network.Response, error) {
	if round == 0 {
		return c.inner.Respond(0, view)
	}
	if round != 1 {
		return nil, fmt.Errorf("core: echo cheater called for round %d", round)
	}
	s := c.proto
	g := c.inner.g

	// Search a budget of indices for a collision. (The difference
	// polynomial has ≤ n² roots in Z_p, so a small scan often finds one —
	// which is exactly why the echo must be verified.)
	var forged *big.Int
	for candidate := int64(0); candidate < 4096; candidate++ {
		i := big.NewInt(candidate)
		ha, hb := fullMatrixHashes(g, s.family, i, c.rho)
		if ha.Cmp(hb) == 0 {
			forged = i
			break
		}
	}
	if forged == nil {
		// No collision in budget: echo the real challenge and lose.
		var err error
		if forged, err = s.rootIndex(view, c.root); err != nil {
			return nil, err
		}
	}
	return s.respondSums(g, forged, c.rho, c.inner.advice), nil
}

// InconsistentBroadcastProver attacks Protocol 1 by telling different nodes
// different roots (splitting the network's view). Broadcast verification —
// every node compares the root field with its neighbors — defeats it on any
// connected graph.
func (s *SymDMAM) InconsistentBroadcastProver(rng *rand.Rand) network.Prover {
	inner := &symDMAMProver{proto: s, fixedRho: perm.RandomNonIdentity(s.n, rng), fixedRoot: 0}
	return proverFunc(func(round int, view *network.ProverView) (*network.Response, error) {
		resp, err := inner.Respond(round, view)
		if err != nil || round != 0 {
			return resp, err
		}
		// Rewrite node n-1's root field to a different vertex.
		m := resp.PerNode[s.n-1]
		first, err := s.decodeFirst(m)
		if err != nil {
			return nil, err
		}
		first.root = (first.root + 1) % s.n
		resp.PerNode[s.n-1] = s.encodeFirst(first)
		return resp, nil
	})
}

// PostHocCollisionProver attacks Protocol 2 (and its weakened E9 variants):
// it sees the challenge i *before* choosing the mapping, and searches up to
// budget random non-identity mappings for one whose permuted-matrix hash
// collides with the true matrix hash under i. Against the paper's
// n^{n+2}-sized modulus the search space is hopeless; against a small
// modulus (NewSymDAMWithPrime) the attack succeeds at rate ≈ budget/p —
// which is exactly the ablation E9 measures.
func (s *SymDAM) PostHocCollisionProver(budget int, rng *rand.Rand) network.Prover {
	p := &symDAMProver{proto: s}
	p.PostHoc = func(g *graph.Graph, i *big.Int) (perm.Perm, int) {
		fallback := perm.RandomNonIdentity(s.n, rng)
		if i == nil {
			// Root-selection call: any moved vertex works as root.
			return fallback, fallback.Moved()
		}
		for t := 0; t < budget; t++ {
			rho := perm.RandomNonIdentity(s.n, rng)
			ha, hb := fullMatrixHashes(g, s.family, i, rho)
			if ha.Cmp(hb) == 0 {
				return rho, rho.Moved()
			}
		}
		return fallback, fallback.Moved()
	}
	return p
}

// GarbageProver sends uniformly random bits of the given sizes in every
// Merlin round — the sanity-check adversary every protocol must reject.
func GarbageProver(bitsPerRound []int, rng *rand.Rand) network.Prover {
	return proverFunc(func(round int, view *network.ProverView) (*network.Response, error) {
		if round >= len(bitsPerRound) {
			return nil, fmt.Errorf("core: garbage prover has no size for round %d", round)
		}
		n := view.Graph.N()
		resp := &network.Response{PerNode: make([]wire.Message, n)}
		for v := 0; v < n; v++ {
			var w wire.Writer
			for i := 0; i < bitsPerRound[round]; i++ {
				w.WriteBool(rng.Intn(2) == 1)
			}
			resp.PerNode[v] = w.Message()
		}
		return resp, nil
	})
}

// OptimalGNICheater is the strongest adversary against the GNI protocol on
// a no-instance: the honest search itself, which claims a success whenever
// a hash preimage exists. No prover can do better (Lemma 3.9-style: success
// is exactly preimage existence), so measuring it measures the protocol's
// true soundness error.
func (g *GNIDAMAM) OptimalGNICheater() network.Prover {
	return g.HonestProver()
}
