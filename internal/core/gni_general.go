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
	"dip/internal/prime"
	"dip/internal/setupcache"
	"dip/internal/spantree"
	"dip/internal/wire"
)

// GNIGeneral removes the asymmetry promise from the GNI protocol: it
// decides Graph Non-Isomorphism for arbitrary (connected) graph pairs.
//
// The paper (Section 4) restricts its presentation to asymmetric graphs
// because a symmetric G_b makes |{σ(G_b)}| = n!/|Aut(G_b)| < n!, which
// skews the Goldwasser–Sipser counting. The fix — from Goldwasser–Sipser's
// original paper — is to count *pairs*: let
//
//	S' = { (H, τ) : H = σ(G_b) for some σ ∈ S_n, b ∈ {0,1}, τ ∈ Aut(H) }.
//
// For each b there are exactly n! such pairs regardless of symmetry
// (n!/|Aut| graphs, |Aut| automorphisms each), so |S'| = 2·n! iff
// G₀ ≇ G₁ and n! otherwise — the clean counting is restored.
//
// The prover must now exhibit (b, σ, τ) with h(σ(G_b), τ) = y where τ is
// an automorphism of σ(G_b). Two new verification obligations arise, both
// discharged distributively:
//
//   - the hash domain widens to pairs: our ε-API hash runs over 2n²
//     coordinates, the second block holding τ's permutation indicator
//     (node v contributes the entry (σ(v), τ(σ(v))) — σ is a bijection,
//     so the entries cover τ exactly once);
//   - τ ∈ Aut(σ(G_b)) is verified by the Lemma 3.1 hash comparison of
//     Protocol 2, aggregated up the same spanning tree over a fresh
//     modulus q₃ ∈ [10·n^{2n+2}, ...]: large enough to union-bound over
//     all n^{2n} candidate pairs (σ, τ), since in the one-exchange
//     structure the prover sees the seed before committing. log q₃ =
//     O(n log n), so the budget is unchanged.
//
// Round structure: a single Arthur-Merlin exchange, as in GNIDAM.
type GNIGeneral struct {
	gsKit                       // hash dimension 2n²
	q3    *big.Int              // automorphism-check modulus
	h3    *hashing.LinearFamily // the automorphism check's family over q3, dimension n²
}

// NewGNIGeneral builds the promise-free protocol for graphs on n vertices
// with k parallel repetitions.
func NewGNIGeneral(n, k int, seed int64) (*GNIGeneral, error) {
	if n < 3 {
		return nil, fmt.Errorf("core: GNIGeneral needs n >= 3, got %d", n)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: GNIGeneral needs k >= 1, got %d", k)
	}
	if err := checkHashedVertices("GNIGeneral", n); err != nil {
		return nil, err
	}
	params, err := hashing.NewGSParamsDim(n, 2, 2, seed)
	if err != nil {
		return nil, fmt.Errorf("core: GNIGeneral hash params: %w", err)
	}
	// q3 ∈ [10·n^{2n+2}, 100·n^{2n+2}].
	pow := new(big.Int).Exp(big.NewInt(int64(n)), big.NewInt(int64(2*n+2)), nil)
	lo := new(big.Int).Mul(big.NewInt(10), pow)
	hi := new(big.Int).Mul(big.NewInt(100), pow)
	q3, err := prime.InWindow(lo, hi, seed+13)
	if err != nil {
		return nil, fmt.Errorf("core: GNIGeneral q3: %w", err)
	}
	h3, err := hashing.NewLinearFamily(n*n, q3)
	if err != nil {
		return nil, fmt.Errorf("core: GNIGeneral q3: %w", err)
	}
	return &GNIGeneral{gsKit: newGSKit(n, k, params), q3: q3, h3: h3}, nil
}

// K returns the number of parallel repetitions.
func (g *GNIGeneral) K() int { return g.reps }

func (g *GNIGeneral) q3Width() int { return wire.WidthForBig(g.q3) }

// q3RawBits is the raw randomness backing α3 (oversampled to kill modular
// bias, as in hashing.GSParams).
func (g *GNIGeneral) q3RawBits() int { return g.q3Width() + 64 }

// q3SliceWidth is each node's share of the α3 randomness.
func (g *GNIGeneral) q3SliceWidth() int { return (g.q3RawBits() + g.n - 1) / g.n }

// stride is the per-repetition width of the Arthur message: a seed slice
// and then an α3 slice.
func (g *GNIGeneral) stride() int { return g.sw + g.q3SliceWidth() }

// layout broadcasts the α3 echo, σ and τ with every successful repetition.
func (g *GNIGeneral) layout() gsLayout {
	return gsLayout{a3Bits: g.n * g.q3SliceWidth(), perm: g.n, permWidth: g.idWidth(), tau: true}
}

// alpha3FromEcho reduces the echoed raw bits into Z_{q3}.
func (g *GNIGeneral) alpha3FromEcho(echo wire.Message) (*big.Int, error) {
	r := wire.NewReader(echo)
	raw, err := r.ReadBig(g.q3RawBits())
	if err != nil {
		return nil, err
	}
	return raw.Mod(raw, g.q3), nil
}

// ownTerms returns node v's own terms of one repetition's aggregates,
// given its closed G_b-row: c hashes its row [σ(v), σ(N_b[v])] of σ(G_b)
// and its τ-indicator entry (row n+σ(v), column τ(σ(v))) under tab, the
// f_α table; d and e hash [σ(v), σ(N_b[v])] and its τ-image under h3,
// the q3 table of the Lemma 3.1 comparison.
func (g *GNIGeneral) ownTerms(tab, h3 *hashing.RowTable, sigma, tau perm.Perm, v int, closed *bitset.Set) (c, d, e *big.Int) {
	mapped := closed.Permute(sigma)
	sigmaV := sigma[v]
	c = tab.Hash(sigmaV, mapped)
	g.params.Family().AddModInto(c, tab.Hash(g.n+sigmaV, bitset.FromIndices(g.n, tau[sigmaV])))
	return c, h3.Hash(sigmaV, mapped), h3.Hash(tau[sigmaV], mapped.Permute(tau))
}

type gniGenMessage struct {
	gsHead
	// per successful repetition, in claim order:
	c    []*big.Int // ε-API partial sums (Z_q)
	d, e []*big.Int // automorphism-check partial sums (Z_{q3})
}

func (g *GNIGeneral) encode(m gniGenMessage) wire.Message {
	var w wire.Writer
	g.writeHead(&w, g.layout(), m.reps, m.tree)
	for i := range m.c {
		w.WriteBig(m.c[i], g.qWidth())
		w.WriteBig(m.d[i], g.q3Width())
		w.WriteBig(m.e[i], g.q3Width())
	}
	return w.Message()
}

func (g *GNIGeneral) decode(m wire.Message) (gniGenMessage, error) {
	r := wire.NewReader(m)
	head, err := g.readHead(r, g.layout())
	out := gniGenMessage{gsHead: head}
	if err != nil {
		return out, err
	}
	out.c = make([]*big.Int, out.successes)
	out.d = make([]*big.Int, out.successes)
	out.e = make([]*big.Int, out.successes)
	for i := 0; i < out.successes; i++ {
		if out.c[i], err = r.ReadBig(g.qWidth()); err != nil {
			return out, err
		}
		if out.d[i], err = r.ReadBig(g.q3Width()); err != nil {
			return out, err
		}
		if out.e[i], err = r.ReadBig(g.q3Width()); err != nil {
			return out, err
		}
		if out.c[i].Cmp(g.params.Q()) >= 0 || out.d[i].Cmp(g.q3) >= 0 || out.e[i].Cmp(g.q3) >= 0 {
			return out, errors.New("core: aggregate out of range")
		}
	}
	return out, r.Done()
}

// Spec returns the protocol's round schedule and verifier.
func (g *GNIGeneral) Spec() *network.Spec {
	return &network.Spec{
		Name:   "gni-general",
		Rounds: []network.Round{g.seedChallenge(g.stride()), {Kind: network.Merlin}},
		Decide: g.decide,
	}
}

func (g *GNIGeneral) decide(v int, view *network.NodeView) bool {
	if view.NumVertices != g.n {
		return false
	}
	msg, err := g.decode(view.Responses[0])
	if err != nil {
		return false
	}
	neighborMsgs := make([]gniGenMessage, 0, nbrCap)
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
		if !perm.IsValid(rep.sigma) || !perm.IsValid(rep.tau) {
			return false
		}
		// Verify both of our slice contributions inside the echoes.
		off := rI * g.stride()
		seed, ok := g.verifierSeed(v, view.MyChallenges[0], rep.seedEcho, off)
		if !ok || !echoedIntact(rep.a3Echo, view.MyChallenges[0], v, off+g.sw, g.q3SliceWidth()) {
			return false
		}
		alpha3, err := g.alpha3FromEcho(rep.a3Echo)
		if err != nil {
			return false
		}

		// Our row of σ(G_b) plus our τ-indicator entry, and the
		// automorphism comparison, Lemma 3.1 style: d aggregates
		// h3([σ(v), row]), e aggregates h3([τ(σ(v)), τ(row)]).
		closed, err := closedNbhdFromView(view, rep.b, g.n)
		if err != nil {
			return false
		}
		cExpect, dExpect, eExpect := g.ownTerms(g.params.Family().RowTable(seed.Alpha, g.n),
			g.h3.RowTable(alpha3, g.n), rep.sigma, rep.tau, v, closed)
		for _, j := range children {
			g.params.Family().AddModInto(cExpect, neighborMsgs[j].c[si])
			g.h3.AddModInto(dExpect, neighborMsgs[j].d[si])
			g.h3.AddModInto(eExpect, neighborMsgs[j].e[si])
		}
		if cExpect.Cmp(msg.c[si]) != 0 || dExpect.Cmp(msg.d[si]) != 0 || eExpect.Cmp(msg.e[si]) != 0 {
			return false
		}

		if v == 0 {
			if msg.d[si].Cmp(msg.e[si]) != 0 {
				return false // τ is not an automorphism of σ(G_b)
			}
			if !g.hits(seed, msg.c[si]) {
				return false
			}
		}
		si++
	}
	if v == 0 && si < g.thresh {
		return false
	}
	return true
}

// HonestProver returns the optimal prover. It enumerates the pair set S'
// exactly once per repetition: coset-minimal σ (so each image graph is
// visited once) times the conjugated automorphism group. A fresh prover
// must be used per run.
func (g *GNIGeneral) HonestProver() network.Prover {
	return &gniGenProver{proto: g}
}

type gniGenProver struct {
	proto *GNIGeneral
}

func (p *gniGenProver) Respond(round int, view *network.ProverView) (*network.Response, error) {
	if round != 0 {
		return nil, fmt.Errorf("core: GNIGeneral prover called for round %d", round)
	}
	g := p.proto
	n := g.n
	closed, err := g.pairRows(view, "GNIGeneral")
	if err != nil {
		return nil, err
	}
	g1 := graph.New(n)
	for v, row := range closed[1] {
		for u := row.NextSet(v + 1); u >= 0; u = row.NextSet(u + 1) {
			g1.AddEdge(v, u)
		}
	}
	auts := [2][]perm.Perm{graph.AllAutomorphisms(view.Graph), graph.AllAutomorphisms(g1)}

	advice, err := setupcache.ForGraph(view.Graph).SpanTree(0)
	if err != nil {
		return nil, fmt.Errorf("core: GNIGeneral prover tree: %w", err)
	}
	childLists := spantree.ChildLists(advice)
	order := spantree.PostOrder(advice)

	reps := make([]gsRep, g.reps)
	type sums struct{ c, d, e []*big.Int }
	var all []sums
	for rI := range reps {
		// Assemble both seeds from the nodes' slices.
		seedEcho, seed, err := g.proverSeed(view.Challenges[0], rI, g.stride())
		if err != nil {
			return nil, err
		}
		a3Echo, err := echoSlices(view.Challenges[0], rI*g.stride()+g.sw, g.q3SliceWidth())
		if err != nil {
			return nil, err
		}
		b, sigma, tau, ok := p.search(closed, auts, seed)
		reps[rI] = gsRep{success: ok, b: b, seedEcho: seedEcho, a3Echo: a3Echo, sigma: sigma, tau: tau}
		if !ok {
			continue
		}

		alpha3, err := g.alpha3FromEcho(a3Echo)
		if err != nil {
			return nil, err
		}
		f := g.params.Family()
		tab, h3 := f.RowTable(seed.Alpha, n), g.h3.RowTable(alpha3, n)
		s := sums{
			c: make([]*big.Int, n),
			d: make([]*big.Int, n),
			e: make([]*big.Int, n),
		}
		for _, v := range order {
			c, d, e := g.ownTerms(tab, h3, sigma, tau, v, closed[b][v])
			for _, ch := range childLists[v] {
				f.AddModInto(c, s.c[ch])
				g.h3.AddModInto(d, s.d[ch])
				g.h3.AddModInto(e, s.e[ch])
			}
			s.c[v], s.d[v], s.e[v] = c, d, e
		}
		all = append(all, s)
	}

	resp := &network.Response{PerNode: make([]wire.Message, n)}
	for v := 0; v < n; v++ {
		msg := gniGenMessage{gsHead: gsHead{reps: reps, tree: advice[v]}}
		for _, s := range all {
			msg.c = append(msg.c, s.c[v])
			msg.d = append(msg.d, s.d[v])
			msg.e = append(msg.e, s.e[v])
		}
		resp.PerNode[v] = g.encode(msg)
	}
	return resp, nil
}

// search enumerates S' for a preimage of the target: coset-minimal σ
// (each image graph once) × conjugated automorphisms.
func (p *gniGenProver) search(closed [2][]*bitset.Set, auts [2][]perm.Perm, seed *hashing.GSSeed) (int, perm.Perm, perm.Perm, bool) {
	g := p.proto
	n := g.n
	f := g.params.Family()
	tab := f.RowTable(seed.Alpha, n)
	mapped, entry := bitset.New(n), bitset.New(n)
	base, sum := new(big.Int), new(big.Int)
	for b := 0; b < 2; b++ {
		sigma := perm.Identity(n)
		for {
			if cosetMinimal(sigma, auts[b]) {
				// Matrix-block hash, shared by all τ for this σ.
				base.SetInt64(0)
				for v, row := range closed[b] {
					f.AddModInto(base, tab.Hash(sigma[v], row.PermuteInto(mapped, sigma)))
				}
				sigmaInv := sigma.Inverse()
				for _, a := range auts[b] {
					tau := sigma.Compose(a).Compose(sigmaInv)
					// τ block: row n+w holds τ(w).
					sum.Set(base)
					for w := 0; w < n; w++ {
						entry.Clear()
						entry.Add(tau[w])
						f.AddModInto(sum, tab.Hash(n+w, entry))
					}
					if g.params.Finish(seed, sum).Cmp(seed.Y) == 0 {
						return b, sigma.Clone(), tau, true
					}
				}
			}
			if !sigma.NextLex() {
				break
			}
		}
	}
	return 0, nil, nil, false
}

// cosetMinimal reports whether sigma is the lexicographically smallest
// member of its coset sigma∘Aut.
func cosetMinimal(sigma perm.Perm, aut []perm.Perm) bool {
	for _, a := range aut {
		if a.IsIdentity() {
			continue
		}
		cand := sigma.Compose(a)
		for i := range cand {
			if cand[i] < sigma[i] {
				return false
			}
			if cand[i] > sigma[i] {
				break
			}
		}
	}
	return true
}

// Run executes the protocol: g0 is the network graph, g1 the input graph.
func (g *GNIGeneral) Run(g0, g1 *graph.Graph, prover network.Prover, seed int64) (*network.Result, error) {
	if g0.N() != g.n || g1.N() != g.n {
		return nil, fmt.Errorf("core: GNI instance sizes (%d, %d), protocol built for %d",
			g0.N(), g1.N(), g.n)
	}
	return network.Run(g.Spec(), g0, EncodeGNIInputs(g1), prover, network.Options{Seed: seed})
}
