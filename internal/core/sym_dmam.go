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

// SymDMAM is Protocol 1 of the paper (Section 3.1): the O(log n)-bit dMAM
// interactive proof that the network graph has a non-trivial automorphism.
//
// Round structure:
//
//	Merlin  — per node v: [root r | ρ_v | parent t_v | dist d_v]
//	          (r is a broadcast field: nodes verify neighbors agree)
//	Arthur  — per node v: a random hash index i_v ∈ [|H|] = Z_p
//	Merlin  — per node v: [echo i | a_v | b_v]  with a_v, b_v ∈ Z_p
//
// where the hash family is the Theorem 3.2 linear family over a prime
// p ∈ [10n³, 100n³], a_v is claimed to be Σ_{u∈T_v} h_i([u, N(u)]) and b_v
// is Σ_{u∈T_v} h_i([ρ(u), ρ(N(u))]). The crucial point — and the subject of
// ablation experiment E9 — is that the prover commits to ρ before seeing
// the random hash index.
type SymDMAM struct {
	symKit
}

// NewSymDMAM builds the protocol for graphs on n ≥ 2 vertices, deriving the
// hash modulus from seed (Section 3.1.2: a prime in [10n³, 100n³]).
func NewSymDMAM(n int, seed int64) (*SymDMAM, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: SymDMAM needs n >= 2, got %d", n)
	}
	p, err := prime.ForCubicWindow(n, seed)
	if err != nil {
		return nil, fmt.Errorf("core: SymDMAM modulus: %w", err)
	}
	kit, err := newSymKit("SymDMAM", n, p)
	if err != nil {
		return nil, err
	}
	return &SymDMAM{symKit: kit}, nil
}

// symDMAMFirst is the decoded first Merlin message.
type symDMAMFirst struct {
	root int
	rho  int
	tree spantree.Advice
}

func (s *SymDMAM) encodeFirst(m symDMAMFirst) wire.Message {
	var w wire.Writer
	w.WriteInt(m.root, s.idWidth())
	w.WriteInt(m.rho, s.idWidth())
	writeTree(&w, m.tree, s.n)
	return w.Message()
}

func (s *SymDMAM) decodeFirst(m wire.Message) (symDMAMFirst, error) {
	r := s.reader(m)
	root, rho := r.id(), r.id()
	return symDMAMFirst{root: root, rho: rho, tree: r.tree(root)}, r.done()
}

// symDMAMSecond is the decoded second Merlin message.
type symDMAMSecond struct {
	echo *big.Int // claimed hash index chosen by the root
	a, b *big.Int
}

func (s *SymDMAM) encodeSecond(m symDMAMSecond) wire.Message {
	var w wire.Writer
	s.writeFields(&w, m.echo, m.a, m.b)
	return w.Message()
}

func (s *SymDMAM) decodeSecond(m wire.Message) (symDMAMSecond, error) {
	r := s.reader(m)
	return symDMAMSecond{echo: r.field(), a: r.field(), b: r.field()}, r.done()
}

// Spec returns the protocol's round schedule and verifier.
func (s *SymDMAM) Spec() *network.Spec {
	return &network.Spec{
		Name:   "sym-dmam",
		Rounds: []network.Round{{Kind: network.Merlin}, s.hashIndexRound(), {Kind: network.Merlin}},
		Decide: s.decide,
	}
}

// decide is the verification procedure of Protocol 1, run at node v.
func (s *SymDMAM) decide(v int, view *network.NodeView) bool {
	if view.NumVertices != s.n {
		return false
	}
	first, err := s.decodeFirst(view.Responses[0])
	if err != nil {
		return false
	}
	second, err := s.decodeSecond(view.Responses[1])
	if err != nil {
		return false
	}
	// Broadcast checks: all nodes must have received the same root and the
	// same echoed index. Node v learns the images ρ(u) of its neighbors
	// from their first-round messages (Definition 1: v sees the responses
	// of N(v)).
	nbrs := make([]symShare, 0, nbrCap)
	for j := range view.Neighbors {
		nf, err := s.decodeFirst(view.NeighborResponses[0][j])
		if err != nil || nf.root != first.root {
			return false
		}
		ns, err := s.decodeSecond(view.NeighborResponses[1][j])
		if err != nil || ns.echo.Cmp(second.echo) != 0 {
			return false
		}
		nbrs = append(nbrs, symShare{tree: nf.tree, image: nf.rho, a: ns.a, b: ns.b})
	}
	own := symShare{tree: first.tree, image: first.rho, a: second.a, b: second.b}
	return s.verify(v, first.root, second.echo, own, nbrs, view)
}

// HonestProver returns the prover of Theorem 3.4's completeness direction:
// it finds a non-trivial automorphism (by refinement-backtracking search —
// the computational stand-in for Merlin's unbounded power), commits to it,
// and computes the hash sums honestly. A fresh prover must be used per run.
func (s *SymDMAM) HonestProver() network.Prover {
	return &symDMAMProver{proto: s}
}

// ProverWithMapping returns an honest-except-for-ρ prover: it runs the
// honest strategy but commits to the given mapping (and root) instead of
// searching for an automorphism. It is the building block for the cheating
// provers in adversary.go and for tests.
func (s *SymDMAM) ProverWithMapping(rho perm.Perm, root int) network.Prover {
	return &symDMAMProver{proto: s, fixedRho: rho, fixedRoot: root}
}

type symDMAMProver struct {
	proto     *SymDMAM
	fixedRho  perm.Perm
	fixedRoot int

	// state carried from the first to the second Merlin round
	rho    perm.Perm
	root   int
	advice []spantree.Advice
	g      *graph.Graph
}

func (p *symDMAMProver) Respond(round int, view *network.ProverView) (*network.Response, error) {
	switch round {
	case 0:
		return p.first(view)
	case 1:
		return p.second(view)
	default:
		return nil, fmt.Errorf("core: SymDMAM prover called for round %d", round)
	}
}

func (p *symDMAMProver) first(view *network.ProverView) (*network.Response, error) {
	s := p.proto
	g := view.Graph
	if err := s.checkGraph(g); err != nil {
		return nil, err
	}
	p.g = g

	// Automorphism search and spanning-tree construction are pure functions
	// of the graph's content, so both go through the per-graph setup cache:
	// repeated requests on one instance (the service's steady state) pay
	// for the refinement-backtracking search once.
	art := setupcache.ForGraph(g)
	if p.fixedRho != nil {
		p.rho, p.root = p.fixedRho, p.fixedRoot
	} else {
		p.rho, p.root = s.honestMapping(art)
	}
	advice, err := art.SpanTree(p.root)
	if err != nil {
		return nil, fmt.Errorf("core: SymDMAM prover tree: %w", err)
	}
	p.advice = advice
	return s.perNode(func(v int) wire.Message {
		return s.encodeFirst(symDMAMFirst{root: p.root, rho: p.rho[v], tree: advice[v]})
	}), nil
}

func (p *symDMAMProver) second(view *network.ProverView) (*network.Response, error) {
	s := p.proto
	i, err := s.rootIndex(view, p.root)
	if err != nil {
		return nil, err
	}
	return s.respondSums(p.g, i, p.rho, p.advice), nil
}

// respondSums is the second Merlin message: the echo of i and every node's
// subtree sums for the committed ρ.
func (s *SymDMAM) respondSums(g *graph.Graph, i *big.Int, rho perm.Perm, advice []spantree.Advice) *network.Response {
	a, b := s.subtreeHashSums(g, i, rho, advice)
	return s.perNode(func(v int) wire.Message {
		return s.encodeSecond(symDMAMSecond{echo: i, a: a[v], b: b[v]})
	})
}

// Run executes the protocol on g against the given prover.
func (s *SymDMAM) Run(g *graph.Graph, prover network.Prover, seed int64) (*network.Result, error) {
	return network.Run(s.Spec(), g, nil, prover, network.Options{Seed: seed})
}
