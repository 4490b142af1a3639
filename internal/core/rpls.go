package core

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"

	"dip/internal/graph"
	"dip/internal/hashing"
	"dip/internal/network"
	"dip/internal/prime"
	"dip/internal/wire"
)

// SymRPLS is a randomized proof-labeling scheme for Symmetry, after
// Baruch–Fraigniaud–Patt-Shamir (reference [4] of the paper). The *advice*
// is the same Θ(n²) string as SymLCP (the full adjacency matrix, the
// automorphism, a moved witness) — [17]'s lower bound says that part cannot
// shrink — but the node-to-node *verification* traffic collapses
// exponentially: instead of relaying the whole advice to every neighbor,
// each node forwards a random linear fingerprint of O(log n) bits. A
// neighbor whose advice differs produces a different fingerprint except
// with probability ≤ m/p = O(1/n).
//
// This is the result of [4] in miniature (verification radius 1): any
// proof-labeling scheme's *verification* cost can be made exponentially
// smaller by randomization, while the advice length is untouched. The paper
// contrasts its own model with [4] by noting that interactive proofs charge
// the prover-to-node communication too — which RPLS cannot reduce, and
// Protocol 1 does.
type SymRPLS struct {
	n      int
	p      *big.Int
	family *hashing.LinearFamily // over advice-length bit vectors
	lcp    *SymLCP               // reuses SymLCP's advice codec and checks
}

// NewSymRPLS builds the scheme for graphs on n ≥ 2 vertices.
func NewSymRPLS(n int, seed int64) (*SymRPLS, error) {
	lcp, err := NewSymLCP(n)
	if err != nil {
		return nil, err
	}
	// Fingerprint modulus: collision probability adviceBits/p ≤ 1/(10n)
	// needs p ≥ 10n·adviceBits ≈ n³; reuse the Protocol 1 window.
	p, err := prime.ForCubicWindow(n, seed)
	if err != nil {
		return nil, fmt.Errorf("core: SymRPLS modulus: %w", err)
	}
	family, err := hashing.NewLinearFamily(lcp.AdviceBits(), p)
	if err != nil {
		return nil, fmt.Errorf("core: SymRPLS family: %w", err)
	}
	return &SymRPLS{n: n, p: p, family: family, lcp: lcp}, nil
}

// AdviceBits returns the advice length (identical to SymLCP's — the Θ(n²)
// part randomization cannot remove).
func (s *SymRPLS) AdviceBits() int { return s.lcp.AdviceBits() }

// FingerprintBits returns the per-neighbor verification message length:
// a hash seed and a hash value, 2·⌈lg p⌉ = O(log n) bits.
func (s *SymRPLS) FingerprintBits() int { return 2 * wire.WidthForBig(s.p) }

// adviceCoords converts the first AdviceBits() bits of an advice message
// into the indicator-coordinate form the linear family hashes (the
// positions of its one-bits, ascending). Bits past that length have no
// coordinate in the family; a node holding such advice rejects it on its
// own length check, so its fingerprint leaves them out rather than panic.
// It scans a byte at a time: one pass counts the set bits, so the second
// fills a slice of exactly that size.
func (s *SymRPLS) adviceCoords(m wire.Message) []int {
	nbits := max(min(m.Bits, s.AdviceBits()), 0)
	data := m.Data[:(nbits+7)/8]
	byteAt := func(k int) byte { // byte k, without bits at or past nbits
		if rest := nbits - 8*k; rest < 8 {
			return data[k] & (1<<rest - 1)
		}
		return data[k]
	}
	count := 0
	for k := range data {
		count += bits.OnesCount8(byteAt(k))
	}
	coords := make([]int, 0, count)
	for k := range data {
		for b := byteAt(k); b != 0; b &= b - 1 {
			coords = append(coords, 8*k+bits.TrailingZeros8(b))
		}
	}
	return coords
}

// digest produces node v's fingerprint message: a fresh random seed and
// the advice hashed under it.
func (s *SymRPLS) digest(rng *rand.Rand, m wire.Message) wire.Message {
	seed := s.family.RandomSeed(rng)
	fp := s.family.HashIndicator(seed, s.adviceCoords(m))
	var w wire.Writer
	width := wire.WidthForBig(s.p)
	w.WriteBig(seed, width)
	w.WriteBig(fp, width)
	return w.Message()
}

// Spec returns the scheme: one Merlin round whose neighbor exchange is
// fingerprinted.
func (s *SymRPLS) Spec() *network.Spec {
	return &network.Spec{
		Name: "sym-rpls",
		Rounds: []network.Round{{
			Kind: network.Merlin,
			Digest: func(_ int, rng *rand.Rand, m wire.Message) wire.Message {
				return s.digest(rng, m)
			},
		}},
		Decide: s.decide,
	}
}

func (s *SymRPLS) decide(v int, view *network.NodeView) bool {
	if view.NumVertices != s.n {
		return false
	}
	advice := view.Responses[0]
	if advice.Bits != s.lcp.AdviceBits() {
		return false
	}
	// Neighbor agreement via fingerprints: evaluate each neighbor's seed
	// on OUR advice and compare with the neighbor's fingerprint of theirs.
	coords := s.adviceCoords(advice)
	width := wire.WidthForBig(s.p)
	for _, u := range view.Neighbors {
		r := wire.NewReader(view.NeighborResponses[0][u])
		seed, err := r.ReadBig(width)
		if err != nil || seed.Cmp(s.p) >= 0 {
			return false
		}
		fp, err := r.ReadBig(width)
		if err != nil || fp.Cmp(s.p) >= 0 {
			return false
		}
		if err := r.Done(); err != nil {
			return false
		}
		mine := s.family.HashIndicator(seed, coords)
		if mine.Cmp(fp) != 0 {
			return false
		}
	}
	return s.lcp.checkAdvice(v, view)
}

// HonestProver returns the SymLCP prover (the advice is identical).
func (s *SymRPLS) HonestProver() network.Prover {
	return s.lcp.HonestProver()
}

// InconsistentAdviceProver hands one node an advice string for a different
// (symmetric) graph: the fingerprint comparison must catch the mismatch.
func (s *SymRPLS) InconsistentAdviceProver(at int) network.Prover {
	return proverFunc(func(round int, view *network.ProverView) (*network.Response, error) {
		resp, err := s.lcp.HonestProver().Respond(round, view)
		if err != nil {
			return nil, err
		}
		fake := graph.Cycle(s.n)
		rho := graph.FindNontrivialAutomorphism(fake)
		if rho == nil {
			return nil, errors.New("core: cycle has no automorphism?")
		}
		resp.PerNode[at] = s.lcp.encode(symLCPAdvice{g: fake, rho: rho, witness: rho.Moved()})
		return resp, nil
	})
}

// Run executes the scheme on g against the given prover.
func (s *SymRPLS) Run(g *graph.Graph, prover network.Prover, seed int64) (*network.Result, error) {
	return network.Run(s.Spec(), g, nil, prover, network.Options{Seed: seed})
}
