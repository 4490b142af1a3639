package core

import (
	"fmt"
	"math/big"
	"slices"

	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/prime"
	"dip/internal/setupcache"
	"dip/internal/spantree"
	"dip/internal/wire"
)

// DSymDAM is the O(log n)-bit dAM protocol for Dumbbell Symmetry
// (Section 3.3, Theorem 3.6) — the upper-bound half of the exponential
// separation between distributed AM and distributed NP.
//
// DSym (Definition 5) fixes the candidate automorphism σ: swap the two
// sides of the dumbbell and reverse the connecting path. Because σ is fixed,
// the prover has nothing to commit to, so the first Merlin round of
// Protocol 1 disappears and a Protocol-1-sized hash modulus (p ≈ n³, i.e.
// O(log n) bits) is already sound:
//
//	Arthur  — per node v: random hash index i_v ∈ Z_p
//	Merlin  — per node v: [echo i | parent t_v | dist d_v | a_v | b_v]
//
// The root is vertex 0 by convention (σ(0) = n ≠ 0). Conditions (2) and (3)
// of DSym — the path is present and no stray edges exist — are verified
// locally by each node without the prover's help; condition (1) — σ is an
// automorphism — is verified with the spanning-tree hash aggregation of
// Protocol 1.
type DSymDAM struct {
	symKit     // n = 2·side + 2·half + 1
	side   int // n of Definition 5: vertices per dumbbell side
	half   int // r of Definition 5: half-length of the connecting path
	sigma  []int
}

// NewDSymDAM builds the protocol for DSym graphs with parameters
// (side, half) — side ≥ 1 vertices per side and a path of 2·half+1 interior
// vertices.
func NewDSymDAM(side, half int, seed int64) (*DSymDAM, error) {
	if side < 1 || half < 0 {
		return nil, fmt.Errorf("core: DSymDAM invalid parameters side=%d half=%d", side, half)
	}
	total := 2*side + 2*half + 1
	p, err := prime.ForCubicWindow(total, seed)
	if err != nil {
		return nil, fmt.Errorf("core: DSymDAM modulus: %w", err)
	}
	kit, err := newSymKit("DSymDAM", total, p)
	if err != nil {
		return nil, err
	}
	return &DSymDAM{symKit: kit, side: side, half: half, sigma: graph.DSymAutomorphism(side, half)}, nil
}

type dsymMessage struct {
	echo *big.Int
	tree spantree.Advice
	a, b *big.Int
}

func (d *DSymDAM) encode(m dsymMessage) wire.Message {
	var w wire.Writer
	d.writeFields(&w, m.echo)
	writeTree(&w, m.tree, d.n)
	d.writeFields(&w, m.a, m.b)
	return w.Message()
}

func (d *DSymDAM) decode(m wire.Message) (dsymMessage, error) {
	r := d.reader(m)
	return dsymMessage{echo: r.field(), tree: r.tree(0), a: r.field(), b: r.field()}, r.done()
}

// legalNeighborhood runs node v's prover-free structure checks: conditions
// (2) and (3) of Section 3.3, restricted to what v can see locally.
func (d *DSymDAM) legalNeighborhood(v int, neighbors []int) bool {
	n, r := d.side, d.half
	pathFirst, pathLast := 2*n, 2*n+2*r

	within := func(lo, hi int) func(int) bool { // inclusive range predicate
		return func(u int) bool { return u >= lo && u <= hi }
	}
	sideA := within(0, n-1)
	sideB := within(n, 2*n-1)

	switch {
	case v == 0:
		// Side-A anchor: internal side-A edges plus the path start.
		hasPath := false
		for _, u := range neighbors {
			switch {
			case u == pathFirst:
				hasPath = true
			case sideA(u):
			default:
				return false
			}
		}
		return hasPath
	case v == n:
		// Side-B anchor: internal side-B edges plus the path end.
		hasPath := false
		for _, u := range neighbors {
			switch {
			case u == pathLast:
				hasPath = true
			case sideB(u):
			default:
				return false
			}
		}
		return hasPath
	case sideA(v):
		for _, u := range neighbors {
			if !sideA(u) {
				return false
			}
		}
		return true
	case sideB(v):
		for _, u := range neighbors {
			if !sideB(u) {
				return false
			}
		}
		return true
	default:
		// Path interior: exactly the two path neighbors, with the ends
		// attached to the anchors.
		prev, next := v-1, v+1
		if v == pathFirst {
			prev = 0
		}
		if v == pathLast {
			next = n
		}
		return len(neighbors) == 2 && slices.Contains(neighbors, prev) && slices.Contains(neighbors, next)
	}
}

// Spec returns the protocol's round schedule and verifier.
func (d *DSymDAM) Spec() *network.Spec {
	return &network.Spec{
		Name:   "dsym-dam",
		Rounds: []network.Round{d.hashIndexRound(), {Kind: network.Merlin}},
		Decide: d.decide,
	}
}

func (d *DSymDAM) decide(v int, view *network.NodeView) bool {
	if view.NumVertices != d.n {
		return false
	}
	// Prover-free structure checks first.
	if !d.legalNeighborhood(v, view.Neighbors) {
		return false
	}

	msg, err := d.decode(view.Responses[0])
	if err != nil {
		return false
	}
	// The echo is the only broadcast field; every image is σ's.
	nbrs := make([]symShare, 0, nbrCap)
	for j, u := range view.Neighbors {
		nm, err := d.decode(view.NeighborResponses[0][j])
		if err != nil || nm.echo.Cmp(msg.echo) != 0 {
			return false
		}
		nbrs = append(nbrs, symShare{tree: nm.tree, image: d.sigma[u], a: nm.a, b: nm.b})
	}
	// The root is vertex 0, which σ moves to side ≠ 0.
	own := symShare{tree: msg.tree, image: d.sigma[v], a: msg.a, b: msg.b}
	return d.verify(v, 0, msg.echo, own, nbrs, view)
}

// HonestProver returns the completeness prover: it echoes the root's hash
// index and computes the spanning tree and subtree hash sums honestly. A
// fresh prover must be used per run.
func (d *DSymDAM) HonestProver() network.Prover {
	return &dsymProver{proto: d}
}

// ForgingProver returns a prover that fabricates the a-sum at the given
// node, for soundness tests: all other values are honest.
func (d *DSymDAM) ForgingProver(at int) network.Prover {
	return &dsymProver{proto: d, forgeAt: at, forge: true}
}

type dsymProver struct {
	proto   *DSymDAM
	forgeAt int
	forge   bool
}

func (p *dsymProver) Respond(round int, view *network.ProverView) (*network.Response, error) {
	if round != 0 {
		return nil, fmt.Errorf("core: DSym prover called for round %d", round)
	}
	d := p.proto
	g := view.Graph
	if err := d.checkGraph(g); err != nil {
		return nil, err
	}
	i, err := d.rootIndex(view, 0)
	if err != nil {
		return nil, err
	}
	advice, err := setupcache.ForGraph(g).SpanTree(0)
	if err != nil {
		return nil, fmt.Errorf("core: DSym prover tree: %w", err)
	}
	a, b := d.subtreeHashSums(g, i, d.sigma, advice)
	if p.forge {
		a[p.forgeAt] = new(big.Int).Mod(new(big.Int).Add(a[p.forgeAt], big.NewInt(1)), d.p)
	}
	return d.perNode(func(v int) wire.Message {
		return d.encode(dsymMessage{echo: i, tree: advice[v], a: a[v], b: b[v]})
	}), nil
}

// Run executes the protocol on g against the given prover.
func (d *DSymDAM) Run(g *graph.Graph, prover network.Prover, seed int64) (*network.Result, error) {
	return network.Run(d.Spec(), g, nil, prover, network.Options{Seed: seed})
}
