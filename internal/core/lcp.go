package core

import (
	"fmt"

	"dip/internal/bitset"
	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/perm"
	"dip/internal/setupcache"
	"dip/internal/spantree"
	"dip/internal/wire"
)

// This file implements the non-interactive "distributed NP" baselines the
// paper compares against: locally checkable proofs (LCPs), where the prover
// hands each node a single advice string and disappears. They are expressed
// as one-Merlin-round protocols in the same engine, so costs are measured
// identically.
//
//   - SymLCP: the Θ(n²)-bit scheme for Symmetry. [17] proves Θ(n²) is
//     optimal, which is the lower half of the Theorem 1.2 separation.
//   - GNILCP: the Θ(n²)-bit scheme for Graph Non-Isomorphism (the paper
//     notes an Ω(n²) bound for GNI without interaction, Section 1.1.2).
//   - SpanTreeLCP: the Θ(log n) spanning-tree scheme of [23], the building
//     block whose cost every interactive protocol here inherits.

// SymLCP is the non-interactive Θ(n²)-bit proof that the network graph is
// symmetric: the advice at every node is the full adjacency matrix, the
// automorphism ρ, and a witness vertex moved by ρ. Each node verifies its
// own row of the matrix and that all neighbors got identical advice; on a
// connected graph this pins the matrix to the true adjacency matrix, and the
// remaining checks are purely computational.
type SymLCP struct {
	n int
}

// NewSymLCP builds the baseline for graphs on n ≥ 2 vertices.
func NewSymLCP(n int) (*SymLCP, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: SymLCP needs n >= 2, got %d", n)
	}
	return &SymLCP{n: n}, nil
}

// AdviceBits returns the exact advice length: n(n-1)/2 matrix bits,
// n·ceil(lg n) mapping bits, ceil(lg n) witness bits.
func (s *SymLCP) AdviceBits() int {
	idW := wire.WidthFor(s.n)
	return s.n*(s.n-1)/2 + s.n*idW + idW
}

type symLCPAdvice struct {
	g       *graph.Graph // the claimed graph, sent as its upper triangle
	rho     []int
	witness int
}

func (s *SymLCP) encode(a symLCPAdvice) wire.Message {
	var w wire.Writer
	writeTriangle(&w, a.g)
	idW := wire.WidthFor(s.n)
	writeInts(&w, a.rho, idW)
	w.WriteInt(a.witness, idW)
	return w.Message()
}

func (s *SymLCP) decode(m wire.Message) (symLCPAdvice, error) {
	r := wire.NewReader(m)
	g, err := readTriangle(r, s.n)
	if err != nil {
		return symLCPAdvice{}, err
	}
	ids, err := readInts(r, s.n+1, s.n, wire.WidthFor(s.n)) // ρ, then the witness
	if err != nil {
		return symLCPAdvice{}, err
	}
	return symLCPAdvice{g: g, rho: ids[:s.n], witness: ids[s.n]}, r.Done()
}

// Spec returns the one-round scheme.
func (s *SymLCP) Spec() *network.Spec {
	return &network.Spec{
		Name:   "sym-lcp",
		Rounds: []network.Round{{Kind: network.Merlin}},
		Decide: s.decide,
	}
}

func (s *SymLCP) decide(v int, view *network.NodeView) bool {
	if view.NumVertices != s.n {
		return false
	}
	// All neighbors must hold identical advice.
	for j := range view.Neighbors {
		if !msgEqual(view.Responses[0], view.NeighborResponses[0][j]) {
			return false
		}
	}
	return s.checkAdvice(v, view)
}

// checkAdvice is node v's content check of its own advice, shared with
// SymRPLS: the advice must decode, v's row of the claimed matrix must be
// v's actual neighborhood, and ρ must be a non-trivial automorphism of the
// claimed graph that moves the witness. Only the row check depends on v,
// so the rest runs once per distinct advice on a host, through the memo.
func (s *SymLCP) checkAdvice(v int, view *network.NodeView) bool {
	m := view.Responses[0]
	g := network.Memoize(view.Memo, s, network.MessageKey(m), func() *graph.Graph {
		return s.claimedGraph(m)
	})
	return g != nil && rowIs(g, v, view.Neighbors)
}

// claimedGraph decodes advice m and returns its claimed graph if ρ is a
// non-trivial automorphism of it that moves the witness, nil otherwise.
func (s *SymLCP) claimedGraph(m wire.Message) *graph.Graph {
	a, err := s.decode(m)
	if err != nil || !perm.IsValid(a.rho) || a.rho[a.witness] == a.witness || !a.g.IsAutomorphism(a.rho) {
		return nil
	}
	return a.g
}

// writeTriangle writes g as its packed upper triangle (graph.AdjacencyBits):
// the n(n-1)/2 bits with which the labeling schemes hand out a graph.
func writeTriangle(w *wire.Writer, g *graph.Graph) {
	adj := g.AdjacencyBits()
	for i := 0; i < adj.Len(); i++ {
		w.WriteBool(adj.Contains(i))
	}
}

// readTriangle reads an n-vertex graph written by writeTriangle.
func readTriangle(r *wire.Reader, n int) (*graph.Graph, error) {
	adj := bitset.New(n * (n - 1) / 2)
	for i := 0; i < adj.Len(); i++ {
		edge, err := r.ReadBool()
		if err != nil {
			return nil, err
		}
		if edge {
			adj.Add(i)
		}
	}
	return graph.FromAdjacencyBits(n, adj)
}

// rowIs reports whether v's row of the claimed graph g is exactly nbrs.
func rowIs(g *graph.Graph, v int, nbrs []int) bool {
	if g.Degree(v) != len(nbrs) {
		return false
	}
	for _, u := range nbrs {
		if !g.HasEdge(v, u) {
			return false
		}
	}
	return true
}

// HonestProver returns the prover that publishes the true matrix and an
// automorphism found by search.
func (s *SymLCP) HonestProver() network.Prover {
	return proverFunc(func(round int, view *network.ProverView) (*network.Response, error) {
		if round != 0 {
			return nil, fmt.Errorf("core: SymLCP prover called for round %d", round)
		}
		g := view.Graph
		if g.N() != s.n {
			return nil, fmt.Errorf("core: graph has %d vertices, protocol built for %d", g.N(), s.n)
		}
		rho := setupcache.ForGraph(g).Automorphism()
		if rho == nil {
			rho = perm.Identity(s.n) // will be rejected by the witness check
		}
		witness := rho.Moved()
		if witness < 0 {
			witness = 0
		}
		adv := s.encode(symLCPAdvice{g: g, rho: rho, witness: witness})
		return network.Broadcast(s.n, adv), nil
	})
}

// Run executes the scheme on g against the given prover.
func (s *SymLCP) Run(g *graph.Graph, prover network.Prover, seed int64) (*network.Result, error) {
	return network.Run(s.Spec(), g, nil, prover, network.Options{Seed: seed})
}

// proverFunc adapts a function to network.Prover.
type proverFunc func(int, *network.ProverView) (*network.Response, error)

func (f proverFunc) Respond(r int, v *network.ProverView) (*network.Response, error) {
	return f(r, v)
}

// GNILCP is the non-interactive Θ(n²)-bit proof for Graph Non-Isomorphism:
// the advice at every node is both full adjacency matrices. Each node
// verifies its G₀ row against its actual neighborhood, its G₁ row against
// its input, and advice equality with neighbors; non-isomorphism itself is
// then decided locally by the (computationally unbounded) verifier.
type GNILCP struct {
	n int
}

// NewGNILCP builds the baseline for graphs on n ≥ 2 vertices.
func NewGNILCP(n int) (*GNILCP, error) {
	if n < 2 {
		return nil, fmt.Errorf("core: GNILCP needs n >= 2, got %d", n)
	}
	return &GNILCP{n: n}, nil
}

// AdviceBits returns the exact advice length: both adjacency matrices.
func (s *GNILCP) AdviceBits() int { return s.n * (s.n - 1) }

func (s *GNILCP) encode(g0, g1 *graph.Graph) wire.Message {
	var w wire.Writer
	writeTriangle(&w, g0)
	writeTriangle(&w, g1)
	return w.Message()
}

func (s *GNILCP) decode(m wire.Message) (g0, g1 *graph.Graph, err error) {
	r := wire.NewReader(m)
	if g0, err = readTriangle(r, s.n); err != nil {
		return nil, nil, err
	}
	if g1, err = readTriangle(r, s.n); err != nil {
		return nil, nil, err
	}
	return g0, g1, r.Done()
}

// Spec returns the one-round scheme.
func (s *GNILCP) Spec() *network.Spec {
	return &network.Spec{
		Name:   "gni-lcp",
		Rounds: []network.Round{{Kind: network.Merlin}},
		Decide: s.decide,
	}
}

// gniAdvice is one decoded GNILCP advice string. Its graphs and their
// non-isomorphism depend only on the advice bits, so a host decodes and
// decides each distinct advice once, through the memo.
type gniAdvice struct {
	g0, g1 *graph.Graph
	// nonIso is decided on the first node that gets that far, so a host
	// searches no more often than its nodes did one by one.
	decided, nonIso bool
}

func (a *gniAdvice) nonIsomorphic() bool {
	if !a.decided {
		a.nonIso, a.decided = !graph.AreIsomorphic(a.g0, a.g1), true
	}
	return a.nonIso
}

func (s *GNILCP) decide(v int, view *network.NodeView) bool {
	if view.NumVertices != s.n {
		return false
	}
	m := view.Responses[0]
	a := network.Memoize(view.Memo, s, network.MessageKey(m), func() *gniAdvice {
		g0, g1, err := s.decode(m)
		if err != nil {
			return nil
		}
		return &gniAdvice{g0: g0, g1: g1}
	})
	if a == nil {
		return false
	}
	for j := range view.Neighbors {
		if !msgEqual(m, view.NeighborResponses[0][j]) {
			return false
		}
	}
	// G₀ row vs actual neighborhood, G₁ row vs input.
	if !rowIs(a.g0, v, view.Neighbors) {
		return false
	}
	open, err := decodeGNIInput(view.Input, s.n)
	if err != nil || !rowIs(a.g1, v, open) {
		return false
	}
	// Unbounded verifier: decide non-isomorphism outright.
	return a.nonIsomorphic()
}

// HonestProver returns the prover that publishes both true matrices.
func (s *GNILCP) HonestProver() network.Prover {
	return proverFunc(func(round int, view *network.ProverView) (*network.Response, error) {
		if round != 0 {
			return nil, fmt.Errorf("core: GNILCP prover called for round %d", round)
		}
		g0 := view.Graph
		if g0.N() != s.n {
			return nil, fmt.Errorf("core: graph has %d vertices, protocol built for %d", g0.N(), s.n)
		}
		g1 := graph.New(s.n)
		for v := 0; v < s.n; v++ {
			open, err := decodeGNIInput(view.Inputs[v], s.n)
			if err != nil {
				return nil, fmt.Errorf("core: GNILCP prover input %d: %w", v, err)
			}
			for _, u := range open {
				if u > v {
					g1.AddEdge(v, u)
				}
			}
		}
		return network.Broadcast(s.n, s.encode(g0, g1)), nil
	})
}

// Run executes the scheme: g0 is the network graph, g1 the input graph.
func (s *GNILCP) Run(g0, g1 *graph.Graph, prover network.Prover, seed int64) (*network.Result, error) {
	return network.Run(s.Spec(), g0, EncodeGNIInputs(g1), prover, network.Options{Seed: seed})
}

// SpanTreeLCP is the Θ(log n) proof-labeling scheme of [23] packaged as a
// protocol: the prover hands out (root, parent, dist) labels and every node
// verifies locally. On a connected graph this certifies a spanning tree.
type SpanTreeLCP struct {
	n int
}

// NewSpanTreeLCP builds the scheme for graphs on n ≥ 1 vertices.
func NewSpanTreeLCP(n int) (*SpanTreeLCP, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: SpanTreeLCP needs n >= 1, got %d", n)
	}
	return &SpanTreeLCP{n: n}, nil
}

// AdviceBits returns the exact advice length.
func (s *SpanTreeLCP) AdviceBits() int { return spantree.Bits(s.n) }

// Spec returns the one-round scheme.
func (s *SpanTreeLCP) Spec() *network.Spec {
	return &network.Spec{
		Name:   "spantree-lcp",
		Rounds: []network.Round{{Kind: network.Merlin}},
		Decide: func(v int, view *network.NodeView) bool {
			mine, err := spantree.Decode(wire.NewReader(view.Responses[0]), s.n)
			if err != nil {
				return false
			}
			advice := make([]spantree.Advice, 0, nbrCap)
			for j := range view.Neighbors {
				na, err := spantree.Decode(wire.NewReader(view.NeighborResponses[0][j]), s.n)
				if err != nil {
					return false
				}
				advice = append(advice, na)
			}
			return spantree.VerifyLocal(v, mine, view.Neighbors, advice)
		},
	}
}

// HonestProver returns the prover that hands out a BFS tree rooted at 0.
func (s *SpanTreeLCP) HonestProver() network.Prover {
	return proverFunc(func(round int, view *network.ProverView) (*network.Response, error) {
		if round != 0 {
			return nil, fmt.Errorf("core: SpanTreeLCP prover called for round %d", round)
		}
		advice, err := setupcache.ForGraph(view.Graph).SpanTree(0)
		if err != nil {
			return nil, err
		}
		resp := &network.Response{PerNode: make([]wire.Message, s.n)}
		for v := range resp.PerNode {
			var w wire.Writer
			advice[v].Encode(&w, s.n)
			resp.PerNode[v] = w.Message()
		}
		return resp, nil
	})
}

// Run executes the scheme on g against the given prover.
func (s *SpanTreeLCP) Run(g *graph.Graph, prover network.Prover, seed int64) (*network.Result, error) {
	return network.Run(s.Spec(), g, nil, prover, network.Options{Seed: seed})
}
