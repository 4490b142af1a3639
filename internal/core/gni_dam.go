package core

import (
	"errors"
	"fmt"
	"math/big"

	"dip/internal/bitset"
	"dip/internal/graph"
	"dip/internal/hashing"
	"dip/internal/network"
	"dip/internal/perm"
	"dip/internal/setupcache"
	"dip/internal/spantree"
	"dip/internal/wire"
)

// GNIDAM is a one-exchange (dAM) variant of the Goldwasser–Sipser GNI
// protocol — a round reduction of GNIDAMAM that our concrete ε-API hash
// makes possible. The paper proves GNI ∈ dAMAM and asks, as an open
// problem, whether round reduction theorems exist for the distributed
// model; this variant shows that for GNI the answer is yes *for our
// instantiation*, at no asymptotic cost:
//
//   - the prover broadcasts σ in full (n·⌈lg n⌉ bits — already within the
//     O(n log n) budget), so every node checks locally that σ is a
//     permutation and computes its own row images; the second Arthur
//     round, which GNIDAMAM spends certifying the per-node image claims,
//     becomes unnecessary;
//   - the hash aggregation f_α is linear, so the unicast partial sums can
//     ride in the same Merlin message and be verified locally against the
//     broadcast σ.
//
// Round structure, k repetitions in parallel:
//
//	Arthur — per-node seed slices (as in GNIDAMAM)
//	Merlin — broadcast: per repetition, success claim; for successes the
//	         bit b, the seed echo and the full σ. Unicast: spanning-tree
//	         advice and per-success partial hash sums c_v.
//
// Same promise (both graphs asymmetric), same counting argument, and the
// same threshold, which the embedded Goldwasser–Sipser kit computes.
type GNIDAM struct {
	gsKit
}

// NewGNIDAM builds the one-exchange variant for graphs on n vertices with
// k parallel repetitions.
func NewGNIDAM(n, k int, seed int64) (*GNIDAM, error) {
	if n < 3 {
		return nil, fmt.Errorf("core: GNIDAM needs n >= 3, got %d", n)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: GNIDAM needs k >= 1, got %d", k)
	}
	if err := checkHashedVertices("GNIDAM", n); err != nil {
		return nil, err
	}
	params, err := hashing.NewGSParams(n, 2, seed)
	if err != nil {
		return nil, fmt.Errorf("core: GNIDAM hash params: %w", err)
	}
	return &GNIDAM{newGSKit(n, k, params)}, nil
}

// K returns the number of parallel repetitions.
func (g *GNIDAM) K() int { return g.reps }

// layout broadcasts σ in full with every successful repetition.
func (g *GNIDAM) layout() gsLayout { return gsLayout{perm: g.n, permWidth: g.idWidth()} }

// gniDamMessage is one node's (single) Merlin message.
type gniDamMessage struct {
	gsHead
	sums []*big.Int // c_v per successful repetition, in claim order
}

func (g *GNIDAM) encode(m gniDamMessage) wire.Message {
	var w wire.Writer
	g.writeHead(&w, g.layout(), m.reps, m.tree)
	for _, c := range m.sums {
		w.WriteBig(c, g.qWidth())
	}
	return w.Message()
}

func (g *GNIDAM) decode(m wire.Message) (gniDamMessage, error) {
	r := wire.NewReader(m)
	head, err := g.readHead(r, g.layout())
	out := gniDamMessage{gsHead: head}
	if err != nil {
		return out, err
	}
	out.sums = make([]*big.Int, out.successes)
	for i := range out.sums {
		if out.sums[i], err = r.ReadBig(g.qWidth()); err != nil {
			return out, err
		}
		if out.sums[i].Cmp(g.params.Q()) >= 0 {
			return out, errors.New("core: partial sum out of range")
		}
	}
	return out, r.Done()
}

// Spec returns the protocol's round schedule and verifier.
func (g *GNIDAM) Spec() *network.Spec {
	return &network.Spec{
		Name:   "gni-dam",
		Rounds: []network.Round{g.seedChallenge(g.sw), {Kind: network.Merlin}},
		Decide: g.decide,
	}
}

func (g *GNIDAM) decide(v int, view *network.NodeView) bool {
	if view.NumVertices != g.n {
		return false
	}
	msg, err := g.decode(view.Responses[0])
	if err != nil {
		return false
	}
	neighborMsgs := make([]gniDamMessage, 0, nbrCap)
	trees := make([]spantree.Advice, 0, nbrCap)
	for j := range view.Neighbors {
		nm, err := g.decode(view.NeighborResponses[0][j])
		if err != nil || !sameReps(msg.reps, nm.reps) {
			return false
		}
		neighborMsgs, trees = append(neighborMsgs, nm), append(trees, nm.tree)
	}
	children, ok := treeChildren(v, msg.tree, trees, view)
	if !ok {
		return false
	}

	si := 0
	for rI, rep := range msg.reps {
		if !rep.success {
			continue
		}
		// σ must be a permutation — a purely local check on the broadcast.
		if !perm.IsValid(rep.sigma) {
			return false
		}
		seed, ok := g.verifierSeed(v, view.MyChallenges[0], rep.seedEcho, rI*g.sw)
		if !ok {
			return false
		}

		// Our row of σ(G_b): row index σ(v), columns σ(closed N_b(v)) —
		// all computed locally from the broadcast σ.
		closed, err := closedNbhdFromView(view, rep.b, g.n)
		if err != nil {
			return false
		}
		f := g.params.Family()
		cExpect := f.RowTable(seed.Alpha, g.n).Hash(rep.sigma[v], closed.Permute(rep.sigma))
		for _, j := range children {
			f.AddModInto(cExpect, neighborMsgs[j].sums[si])
		}
		if cExpect.Cmp(msg.sums[si]) != 0 {
			return false
		}
		if v == 0 && !g.hits(seed, msg.sums[si]) {
			return false
		}
		si++
	}
	if v == 0 && si < g.thresh {
		return false
	}
	return true
}

// HonestProver returns the optimal prover (which doubles as the optimal
// cheater on no-instances). A fresh prover must be used per run.
func (g *GNIDAM) HonestProver() network.Prover {
	return &gniDamProver{proto: g}
}

type gniDamProver struct {
	proto *GNIDAM
}

func (p *gniDamProver) Respond(round int, view *network.ProverView) (*network.Response, error) {
	if round != 0 {
		return nil, fmt.Errorf("core: GNIDAM prover called for round %d", round)
	}
	g := p.proto
	n := g.n
	closed, err := g.pairRows(view, "GNIDAM")
	if err != nil {
		return nil, err
	}
	advice, err := setupcache.ForGraph(view.Graph).SpanTree(0)
	if err != nil {
		return nil, fmt.Errorf("core: GNIDAM prover tree: %w", err)
	}
	childLists := spantree.ChildLists(advice)
	order := spantree.PostOrder(advice)

	reps := make([]gsRep, g.reps)
	sums := make([][]*big.Int, 0, g.reps) // per success, per node
	for r := range reps {
		echo, seed, err := g.proverSeed(view.Challenges[0], r, g.sw)
		if err != nil {
			return nil, err
		}
		b, sigma, ok := searchGNIPreimage(g.params, closed, seed)
		reps[r] = gsRep{success: ok, b: b, seedEcho: echo, sigma: sigma}
		if !ok {
			continue
		}
		f := g.params.Family()
		tab := f.RowTable(seed.Alpha, n)
		mapped := bitset.New(n)
		perNode := make([]*big.Int, n)
		for _, v := range order {
			c := tab.Hash(sigma[v], closed[b][v].PermuteInto(mapped, sigma))
			for _, ch := range childLists[v] {
				f.AddModInto(c, perNode[ch])
			}
			perNode[v] = c
		}
		sums = append(sums, perNode)
	}

	resp := &network.Response{PerNode: make([]wire.Message, n)}
	for v := 0; v < n; v++ {
		msg := gniDamMessage{gsHead: gsHead{reps: reps, tree: advice[v]}, sums: make([]*big.Int, len(sums))}
		for si := range sums {
			msg.sums[si] = sums[si][v]
		}
		resp.PerNode[v] = g.encode(msg)
	}
	return resp, nil
}

// Run executes the protocol: g0 is the network graph, g1 the input graph.
func (g *GNIDAM) Run(g0, g1 *graph.Graph, prover network.Prover, seed int64) (*network.Result, error) {
	if g0.N() != g.n || g1.N() != g.n {
		return nil, fmt.Errorf("core: GNI instance sizes (%d, %d), protocol built for %d",
			g0.N(), g1.N(), g.n)
	}
	return network.Run(g.Spec(), g0, EncodeGNIInputs(g1), prover, network.Options{Seed: seed})
}
