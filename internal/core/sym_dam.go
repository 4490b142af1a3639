package core

import (
	"fmt"
	"math/big"

	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/perm"
	"dip/internal/prime"
	"dip/internal/setupcache"
	"dip/internal/spantree"
	"dip/internal/wire"
)

// SymDAM is Protocol 2 of the paper (Section 3.2): the O(n log n)-bit dAM
// interactive proof for Symmetry. Unlike Protocol 1, the random challenge is
// issued *before* the prover speaks, so the prover cannot be forced to
// commit to ρ first. The protocol compensates in two ways (both visible in
// the cost):
//
//   - the prover broadcasts the entire mapping ρ (n·log n bits), and
//   - the hash modulus is a prime p ∈ [10·n^{n+2}, 100·n^{n+2}] — Θ(n log n)
//     bits — so small that a union bound over all n^n candidate mappings
//     still leaves collision probability below 1/3.
//
// Round structure:
//
//	Arthur  — per node v: random hash index i_v ∈ Z_p
//	Merlin  — per node v: [ρ (full) | echo i | root r]  (broadcast fields)
//	          ++ [parent t_v | dist d_v | a_v | b_v]     (unicast fields)
type SymDAM struct {
	symKit
}

// NewSymDAM builds the protocol for graphs on n ≥ 2 vertices, with the
// least prime of the window as its modulus (prime.ForPowerWindow): a
// function of n alone, since Theorem 3.2's bound holds for every prime in
// the window. The seed is unused: it stays in the signature for callers
// written against the earlier seed-keyed modulus, bench/trace.go among
// them.
func NewSymDAM(n int, _ int64) (*SymDAM, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: SymDAM needs n >= 2, got %d", n)
	}
	p, err := prime.ForPowerWindow(n)
	if err != nil {
		return nil, fmt.Errorf("core: SymDAM modulus: %w", err)
	}
	return NewSymDAMWithPrime(n, p)
}

// NewSymDAMWithPrime builds the protocol with an explicit hash modulus.
// It exists for the E9 ablation: running the challenge-first protocol with
// a Protocol-1-sized prime (≈n³) breaks soundness, because the union bound
// over n^n mappings no longer holds — and the PostHocProver exploits it.
func NewSymDAMWithPrime(n int, p *big.Int) (*SymDAM, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: SymDAM needs n >= 2, got %d", n)
	}
	kit, err := newSymKit("SymDAM", n, p)
	if err != nil {
		return nil, err
	}
	return &SymDAM{symKit: kit}, nil
}

// symDAMMessage is the single Merlin message, decoded.
type symDAMMessage struct {
	rho  []int // full mapping, broadcast
	echo *big.Int
	root int
	tree spantree.Advice
	a, b *big.Int
}

// encode writes one whole message. The honest prover writes the shared
// broadcast prefix once instead (see Respond); FuzzSymDecoders re-encodes
// every message decode accepts with it.
func (s *SymDAM) encode(m symDAMMessage) wire.Message {
	var w wire.Writer
	s.writeBroadcast(&w, m.rho, m.echo, m.root)
	s.writeUnicast(&w, m.tree, m.a, m.b)
	return w.Message()
}

// writeBroadcast writes the fields every node receives alike: ρ, the echo
// and the root, broadcastBits() bits in all.
func (s *SymDAM) writeBroadcast(w *wire.Writer, rho []int, echo *big.Int, root int) {
	writeInts(w, rho, s.idWidth())
	s.writeFields(w, echo)
	w.WriteInt(root, s.idWidth())
}

// writeUnicast writes one node's own fields: its tree advice, a_v and b_v.
func (s *SymDAM) writeUnicast(w *wire.Writer, tree spantree.Advice, a, b *big.Int) {
	writeTree(w, tree, s.n)
	s.writeFields(w, a, b)
}

// broadcastBits is the length of the broadcast prefix: n·⌈lg n⌉ + ⌈lg p⌉ +
// ⌈lg n⌉ bits.
func (s *SymDAM) broadcastBits() int { return (s.n+1)*s.idWidth() + s.hashWidth() }

func (s *SymDAM) decode(m wire.Message) (symDAMMessage, error) {
	r := s.reader(m)
	out := symDAMMessage{rho: make([]int, s.n)}
	for v := range out.rho {
		out.rho[v] = r.id()
	}
	out.echo, out.root = r.field(), r.id()
	out.tree, out.a, out.b = s.readUnicast(&r, out.root)
	return out, r.done()
}

// readUnicast reads the fields writeUnicast writes, for a tree rooted at
// root.
func (s *SymDAM) readUnicast(r *symReader, root int) (spantree.Advice, *big.Int, *big.Int) {
	return r.tree(root), r.field(), r.field()
}

// Spec returns the protocol's round schedule and verifier.
func (s *SymDAM) Spec() *network.Spec {
	return &network.Spec{
		Name:   "sym-dam",
		Rounds: []network.Round{s.hashIndexRound(), {Kind: network.Merlin}},
		Decide: s.decide,
	}
}

// decide is the verification procedure of Protocol 2, run at node v.
func (s *SymDAM) decide(v int, view *network.NodeView) bool {
	if view.NumVertices != s.n {
		return false
	}
	mine := view.Responses[0]
	msg, err := s.decode(mine)
	if err != nil {
		return false
	}
	// Broadcast checks: ρ, the echo and the root agree with every
	// neighbor's copy, so v reads every image from its own copy of ρ (and
	// no first-round commitment is needed). Every field is fixed-width and
	// v's own copy decoded within range, so a neighbor's prefix decodes to
	// the same ρ, echo and root exactly when its bits equal v's: the
	// prefix is compared, and only the unicast suffix is decoded.
	k := s.broadcastBits()
	nbrs := make([]symShare, 0, nbrCap)
	for j, u := range view.Neighbors {
		nm := view.NeighborResponses[0][j]
		if !wire.SamePrefix(nm, mine, k) {
			return false
		}
		r := s.reader(nm)
		r.skip(k)
		tree, a, b := s.readUnicast(&r, msg.root)
		if r.done() != nil {
			return false
		}
		nbrs = append(nbrs, symShare{tree: tree, image: msg.rho[u], a: a, b: b})
	}
	own := symShare{tree: msg.tree, image: msg.rho[v], a: msg.a, b: msg.b}
	return s.verify(v, msg.root, msg.echo, own, nbrs, view)
}

// HonestProver returns a prover implementing the completeness strategy of
// Theorem 3.5. A fresh prover must be used per run.
func (s *SymDAM) HonestProver() network.Prover {
	return &symDAMProver{proto: s}
}

// ProverWithMapping returns an honest-except-for-ρ prover committing to the
// given mapping and root; used by cheating strategies and tests.
func (s *SymDAM) ProverWithMapping(rho perm.Perm, root int) network.Prover {
	return &symDAMProver{proto: s, fixedRho: rho, fixedRoot: root}
}

type symDAMProver struct {
	proto     *SymDAM
	fixedRho  perm.Perm
	fixedRoot int
	// PostHoc, when non-nil, lets the prover choose the mapping *after*
	// seeing the challenge — the attack surface dAM protocols must survive.
	// It receives the graph and the root's challenge and returns (ρ, root).
	PostHoc func(g *graph.Graph, i *big.Int) (perm.Perm, int)
}

func (p *symDAMProver) Respond(round int, view *network.ProverView) (*network.Response, error) {
	if round != 0 {
		return nil, fmt.Errorf("core: SymDAM prover called for round %d", round)
	}
	s := p.proto
	g := view.Graph
	if err := s.checkGraph(g); err != nil {
		return nil, err
	}

	// The honest search and the spanning tree are seed-independent, so
	// they go through the per-graph setup cache (the PostHoc and
	// fixed-mapping strategies below deliberately do not cache mappings).
	art := setupcache.ForGraph(g)
	var rho perm.Perm
	var root int
	switch {
	case p.PostHoc != nil:
		// The challenge the root will check is not known until a root is
		// chosen; the post-hoc strategy receives the graph and a decoding
		// oracle. We pass node 0's challenge view via closure configuration
		// in adversary.go; here the convention is: the strategy picks the
		// root, and the echo uses that root's challenge.
		rho, root = p.PostHoc(g, nil)
	case p.fixedRho != nil:
		rho, root = p.fixedRho, p.fixedRoot
	default:
		rho, root = s.honestMapping(art)
	}

	i, err := s.rootIndex(view, root)
	if err != nil {
		return nil, err
	}
	if p.PostHoc != nil {
		// Now that the root (and hence the binding challenge) is known,
		// give the post-hoc strategy the real challenge.
		rho, _ = p.PostHoc(g, i)
	}

	advice, err := art.SpanTree(root)
	if err != nil {
		return nil, fmt.Errorf("core: SymDAM prover tree: %w", err)
	}
	a, b := s.subtreeHashSums(view.Memo, g, i, rho, advice)
	// The broadcast prefix is the same in every message: write it once.
	var pre wire.Writer
	s.writeBroadcast(&pre, rho, i, root)
	prefix := pre.Message()
	return s.perNode(func(v int) wire.Message {
		var w wire.Writer
		w.WriteBits(prefix.Data, prefix.Bits)
		s.writeUnicast(&w, advice[v], a[v], b[v])
		return w.Message()
	}), nil
}

// Run executes the protocol on g against the given prover.
func (s *SymDAM) Run(g *graph.Graph, prover network.Prover, seed int64) (*network.Result, error) {
	return network.Run(s.Spec(), g, nil, prover, network.Options{Seed: seed})
}
