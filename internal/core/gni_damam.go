package core

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"

	"dip/internal/bitset"
	"dip/internal/graph"
	"dip/internal/hashing"
	"dip/internal/network"
	"dip/internal/perm"
	"dip/internal/setupcache"
	"dip/internal/spantree"
	"dip/internal/wire"
)

// GNIDAMAM is the distributed Goldwasser–Sipser protocol for Graph
// Non-Isomorphism (Section 4, Theorem 1.5): a dAMAM protocol with
// O(n log n) bits per node (for a constant number of repetitions).
//
// The instance is (G₀, G₁): G₀ is the network graph, and each node v
// receives N_{G₁}(v) as its input (Definition 4). Following the paper, the
// protocol is stated for the promise version where both graphs are
// asymmetric (the unrestricted problem composes with the Symmetry protocol
// of Section 3.2). Let S = { σ(G_b) : σ ∈ S_n, b ∈ {0,1} }: |S| = 2·n! when
// G₀ ≇ G₁ and |S| = n! when G₀ ≅ G₁. The verifiers estimate |S| by counting
// how often the prover can exhibit a member of S hashing to a random target.
//
// Round structure, with k independent repetitions run in parallel:
//
//	Arthur  — node v sends, per repetition, its slice of the ε-API hash
//	          seed (the seed is Θ(n log n) bits total and is assembled from
//	          per-node slices — the "distributed seed" the paper requires).
//	Merlin  — broadcast: per repetition, a success claim; for successful
//	          repetitions the bit b and the full seed-slice echo (each node
//	          re-verifies its own slice, so the prover cannot bias the
//	          seed). Unicast: spanning-tree advice, and per successful
//	          repetition the images σ(u) of v's closed G_b-neighborhood.
//	Arthur  — node v sends a random z_v ∈ Z_{p₂}; the root's z is binding.
//	Merlin  — broadcast: echo of z. Unicast, per successful repetition:
//	          subtree aggregates (c, s₁, s₂, s₃) described below.
//
// The second Arthur round is what makes the protocol AMAM rather than AM:
// the prover's M₁ unicasts commit each node to *claimed* images of σ, and
// only a challenge issued after that commitment can certify globally that
// the claims are mutually consistent and that σ is a permutation. With
// z ∈ Z_{p₂} random and all local checks passing, the root's aggregates
// satisfy (Schwartz–Zippel, degree ≤ n²+n polynomials in z):
//
//	c  = f_α(claimed matrix)                    — the ε-API hash input
//	s₁ = Σ_v Σ_{u∈N_b[v]} z^{u·n+σᵛ(u)+1}       — per-row image claims
//	s₂ = Σ_u (deg_b(u)+1)·z^{u·n+σ(u)+1}        — diagonal claims, weighted
//	s₃ = Σ_v z^{σ(v)+1}                         — image multiset
//
// s₁ = s₂ forces every row claim to agree with the owner's diagonal claim;
// s₃ = Σ_w z^{w+1} forces σ to be a permutation. Together they force the
// hashed object to be exactly σ(G_b) ∈ S, so the Goldwasser–Sipser counting
// argument applies.
type GNIDAMAM struct {
	gsKit
	p2 *big.Int              // consistency-check prime, ≈ 1000·k·n³
	sz *hashing.LinearFamily // the Schwartz–Zippel sums' family over p₂
}

// NewGNIDAMAM builds the protocol for graphs on n vertices with k parallel
// repetitions. The acceptance threshold is placed midway between the
// worst-case yes and no single-repetition probabilities.
func NewGNIDAMAM(n, k int, seed int64) (*GNIDAMAM, error) {
	if n < 3 {
		return nil, fmt.Errorf("core: GNI needs n >= 3, got %d", n)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: GNI needs k >= 1, got %d", k)
	}
	if err := checkHashedVertices("GNI", n); err != nil {
		return nil, err
	}
	params, err := hashing.NewGSParams(n, 2, seed)
	if err != nil {
		return nil, fmt.Errorf("core: GNI hash params: %w", err)
	}
	g := &GNIDAMAM{gsKit: newGSKit(n, k, params)}
	if g.p2, g.sz, err = g.consistencyPrime(seed + 7); err != nil {
		return nil, fmt.Errorf("core: GNI consistency prime: %w", err)
	}
	return g, nil
}

// K returns the number of parallel repetitions.
func (g *GNIDAMAM) K() int { return g.reps }

func (g *GNIDAMAM) p2Width() int { return wire.WidthForBig(g.p2) }

// ownSums returns node v's own terms of the four aggregates of one
// repetition, given its closed G_b-row and the images of the row's
// members, ascending: c hashes its row [σ(v), σ(N_b[v])] under tab, and
// s₁, s₂ and s₃ are the terms the type comment lists, at z. It reports
// false if two images coincide, when σ is not injective on the row.
func (g *GNIDAMAM) ownSums(tab *hashing.RowTable, z *big.Int, v int, closed *bitset.Set, images []int) (gniSums, bool) {
	set := bitset.FromIndices(g.n, images...)
	if len(images) != closed.Count() || set.Count() != len(images) {
		return gniSums{}, false
	}
	rowClaims := make([]int, 0, len(images))
	var sigmaV int
	for j, u := 0, closed.NextSet(0); u >= 0; j, u = j+1, closed.NextSet(u+1) {
		if u == v {
			sigmaV = images[j]
		}
		rowClaims = append(rowClaims, u*g.n+images[j])
	}
	s2 := g.sz.HashIndicator(z, []int{v*g.n + sigmaV})
	s2.Mod(s2.Mul(s2, big.NewInt(int64(len(images)))), g.p2)
	return gniSums{
		c:  tab.Hash(sigmaV, set),
		s1: g.sz.HashIndicator(z, rowClaims),
		s2: s2,
		s3: g.sz.HashIndicator(z, []int{sigmaV}),
	}, true
}

// addSums folds a child's aggregates into own.
func (g *GNIDAMAM) addSums(own, child gniSums) {
	g.params.Family().AddModInto(own.c, child.c)
	g.sz.AddModInto(own.s1, child.s1)
	g.sz.AddModInto(own.s2, child.s2)
	g.sz.AddModInto(own.s3, child.s3)
}

// EncodeGNIInputs encodes G₁ into per-node inputs: node v receives its open
// G₁-neighborhood as an n-bit row.
func EncodeGNIInputs(g1 *graph.Graph) []wire.Message {
	n := g1.N()
	out := make([]wire.Message, n)
	for v := 0; v < n; v++ {
		var w wire.Writer
		for u := 0; u < n; u++ {
			w.WriteBool(g1.HasEdge(v, u))
		}
		out[v] = w.Message()
	}
	return out
}

// decodeGNIInput parses a node input back into the open-neighborhood list.
func decodeGNIInput(m wire.Message, n int) ([]int, error) {
	r := wire.NewReader(m)
	var out []int
	for u := 0; u < n; u++ {
		b, err := r.ReadBool()
		if err != nil {
			return nil, err
		}
		if b {
			out = append(out, u)
		}
	}
	return out, r.Done()
}

// gniFirst is node v's decoded M₁ message: the broadcast section and tree
// advice, then per successful repetition the images σ(u) of v's closed
// G_b-neighborhood.
type gniFirst struct {
	gsHead
	images [][]int // indexed by repetition, nil for failed ones
}

// encodeFirst encodes M₁ for one node; images is indexed by repetition and
// nil for failed repetitions.
func (g *GNIDAMAM) encodeFirst(reps []gsRep, tree spantree.Advice, images [][]int) wire.Message {
	var w wire.Writer
	g.writeHead(&w, gsLayout{}, reps, tree)
	for r, c := range reps {
		if c.success {
			writeInts(&w, images[r], g.idWidth())
		}
	}
	return w.Message()
}

// decodeFirst parses M₁. With imageCounts nil it parses only the broadcast
// section and the tree advice — the part of a *neighbor's* M₁ that a node
// needs; otherwise it also parses the per-repetition image lists, each of
// the given length (counting only successful repetitions, in order).
func (g *GNIDAMAM) decodeFirst(m wire.Message, imageCounts []int) (gniFirst, error) {
	r := wire.NewReader(m)
	head, err := g.readHead(r, gsLayout{})
	out := gniFirst{gsHead: head}
	if err != nil || imageCounts == nil {
		return out, err
	}
	out.images = make([][]int, g.reps)
	ci := 0
	for i, c := range out.reps {
		if !c.success {
			continue
		}
		if out.images[i], err = readInts(r, imageCounts[ci], g.n, g.idWidth()); err != nil {
			return out, err
		}
		ci++
	}
	return out, r.Done()
}

// gniSums are one node's subtree aggregates for one repetition.
type gniSums struct {
	c          *big.Int // partial f_α sum, in Z_q
	s1, s2, s3 *big.Int // consistency aggregates, in Z_{p₂}
}

// gniSecond is node v's decoded M₂ message.
type gniSecond struct {
	zEcho *big.Int
	sums  []gniSums // one per successful repetition, in claim order
}

func (g *GNIDAMAM) encodeSecond(m gniSecond) wire.Message {
	var w wire.Writer
	w.WriteBig(m.zEcho, g.p2Width())
	for _, s := range m.sums {
		w.WriteBig(s.c, g.qWidth())
		w.WriteBig(s.s1, g.p2Width())
		w.WriteBig(s.s2, g.p2Width())
		w.WriteBig(s.s3, g.p2Width())
	}
	return w.Message()
}

func (g *GNIDAMAM) decodeSecond(m wire.Message, successes int) (gniSecond, error) {
	r := wire.NewReader(m)
	var out gniSecond
	var err error
	if out.zEcho, err = r.ReadBig(g.p2Width()); err != nil {
		return out, err
	}
	if out.zEcho.Cmp(g.p2) >= 0 {
		return out, errors.New("core: z echo out of range")
	}
	out.sums = make([]gniSums, successes)
	for i := range out.sums {
		s := &out.sums[i]
		if s.c, err = r.ReadBig(g.qWidth()); err != nil {
			return out, err
		}
		if s.s1, err = r.ReadBig(g.p2Width()); err != nil {
			return out, err
		}
		if s.s2, err = r.ReadBig(g.p2Width()); err != nil {
			return out, err
		}
		if s.s3, err = r.ReadBig(g.p2Width()); err != nil {
			return out, err
		}
		if s.c.Cmp(g.params.Q()) >= 0 || s.s1.Cmp(g.p2) >= 0 ||
			s.s2.Cmp(g.p2) >= 0 || s.s3.Cmp(g.p2) >= 0 {
			return out, errors.New("core: aggregate out of range")
		}
	}
	return out, r.Done()
}

// Spec returns the protocol's round schedule and verifier.
func (g *GNIDAMAM) Spec() *network.Spec {
	return &network.Spec{
		Name: "gni-damam",
		Rounds: []network.Round{
			g.seedChallenge(g.sw),
			{Kind: network.Merlin},
			{Kind: network.Arthur, Challenge: func(_ int, rng *rand.Rand, _ *network.NodeView) wire.Message {
				return bigChallenge(rng, g.p2)
			}},
			{Kind: network.Merlin},
		},
		Decide: g.decide,
	}
}

// decide is the verification procedure, run at node v.
func (g *GNIDAMAM) decide(v int, view *network.NodeView) bool {
	if view.NumVertices != g.n {
		return false
	}
	// Node v's own closed neighborhoods determine its image-list lengths.
	var closedB [2]*bitset.Set
	for b := range closedB {
		c, err := closedNbhdFromView(view, b, g.n)
		if err != nil {
			return false
		}
		closedB[b] = c
	}

	// First pass on our own M₁: claims determine image counts.
	first, err := g.decodeFirst(view.Responses[0], nil)
	if err == nil {
		var counts []int
		for _, c := range first.reps {
			if c.success {
				counts = append(counts, closedB[c.b].Count())
			}
		}
		first, err = g.decodeFirst(view.Responses[0], counts)
	}
	if err != nil {
		return false
	}

	// Neighbors' M₁: broadcast sections must match ours.
	trees := make([]spantree.Advice, 0, nbrCap)
	for j := range view.Neighbors {
		nf, err := g.decodeFirst(view.NeighborResponses[0][j], nil)
		if err != nil || !sameReps(first.reps, nf.reps) {
			return false
		}
		trees = append(trees, nf.tree)
	}

	// Verify our own seed slices inside each successful repetition's echo.
	type repData struct {
		b     int
		seed  *hashing.GSSeed
		image []int
	}
	var reps []repData
	for rI, c := range first.reps {
		if !c.success {
			continue
		}
		seed, ok := g.verifierSeed(v, view.MyChallenges[0], c.seedEcho, rI*g.sw)
		if !ok {
			return false // the prover tampered with our seed contribution
		}
		reps = append(reps, repData{b: c.b, seed: seed, image: first.images[rI]})
	}

	children, ok := treeChildren(v, first.tree, trees, view)
	if !ok {
		return false
	}

	// M₂ of ourselves and our neighbors.
	second, err := g.decodeSecond(view.Responses[1], first.successes)
	if err != nil {
		return false
	}
	neighborSecond := make([]gniSecond, 0, nbrCap)
	for j := range view.Neighbors {
		ns, err := g.decodeSecond(view.NeighborResponses[1][j], first.successes)
		if err != nil {
			return false
		}
		if ns.zEcho.Cmp(second.zEcho) != 0 {
			return false
		}
		neighborSecond = append(neighborSecond, ns)
	}
	z := second.zEcho
	if v == 0 {
		zv, err := decodeBigChallenge(view.MyChallenges[1], g.p2)
		if err != nil || zv.Cmp(z) != 0 {
			return false
		}
	}

	// Per-repetition aggregate checks: c is the partial hash sum, s₁ the
	// per-row image claims, s₂ the weighted diagonal claim and s₃ the
	// image multiset.
	for si, rd := range reps {
		expect, ok := g.ownSums(g.params.Family().RowTable(rd.seed.Alpha, g.n), z, v, closedB[rd.b], rd.image)
		if !ok {
			return false // row claims must form a set
		}
		for _, j := range children {
			g.addSums(expect, neighborSecond[j].sums[si])
		}
		got := second.sums[si]
		if expect.c.Cmp(got.c) != 0 || expect.s1.Cmp(got.s1) != 0 ||
			expect.s2.Cmp(got.s2) != 0 || expect.s3.Cmp(got.s3) != 0 {
			return false
		}

		// Root-only: the aggregates must close the argument.
		if v == 0 {
			if got.s1.Cmp(got.s2) != 0 {
				return false
			}
			// s₃ = Σ_{w<n} z^{w+1}: the images are exactly [n].
			if got.s3.Cmp(g.sz.HashIndicator(z, perm.Identity(g.n))) != 0 {
				return false
			}
			if !g.hits(rd.seed, got.c) {
				return false // claimed success did not hash to the target
			}
		}
	}

	// Root: enough verified successes?
	if v == 0 && first.successes < g.thresh {
		return false
	}
	return true
}

// Run executes the protocol: g0 is the network graph, g1 the input graph.
func (g *GNIDAMAM) Run(g0, g1 *graph.Graph, prover network.Prover, seed int64) (*network.Result, error) {
	if g0.N() != g.n || g1.N() != g.n {
		return nil, fmt.Errorf("core: GNI instance sizes (%d, %d), protocol built for %d",
			g0.N(), g1.N(), g.n)
	}
	return network.Run(g.Spec(), g0, EncodeGNIInputs(g1), prover, network.Options{Seed: seed})
}

// HonestProver returns the optimal prover: per repetition it assembles the
// seed from the nodes' slices and searches all (σ, b) in Lehmer order for a
// hash preimage. The same search is the *optimal cheating strategy* on
// no-instances, so soundness experiments reuse it. A fresh prover must be
// used per run.
func (g *GNIDAMAM) HonestProver() network.Prover {
	return &gniProver{proto: g}
}

type gniProver struct {
	proto  *GNIDAMAM
	reps   []gsRep
	seeds  []*hashing.GSSeed
	advice []spantree.Advice
	closed [2][]*bitset.Set // per b, per node: closed row
}

func (p *gniProver) Respond(round int, view *network.ProverView) (*network.Response, error) {
	switch round {
	case 0:
		return p.first(view)
	case 1:
		return p.second(view)
	default:
		return nil, fmt.Errorf("core: GNI prover called for round %d", round)
	}
}

func (p *gniProver) first(view *network.ProverView) (*network.Response, error) {
	g := p.proto
	var err error
	if p.closed, err = g.pairRows(view, "GNI"); err != nil {
		return nil, err
	}

	// Assemble the per-repetition seeds from the nodes' slices and search
	// for preimages.
	p.reps = make([]gsRep, g.reps)
	p.seeds = make([]*hashing.GSSeed, g.reps)
	for r := range p.reps {
		echo, seed, err := g.proverSeed(view.Challenges[0], r, g.sw)
		if err != nil {
			return nil, fmt.Errorf("core: GNI prover seed %d: %w", r, err)
		}
		b, sigma, ok := searchGNIPreimage(g.params, p.closed, seed)
		p.reps[r] = gsRep{success: ok, b: b, seedEcho: echo, sigma: sigma}
		p.seeds[r] = seed
	}

	if p.advice, err = setupcache.ForGraph(view.Graph).SpanTree(0); err != nil {
		return nil, fmt.Errorf("core: GNI prover tree: %w", err)
	}

	// Build the per-node M₁ messages.
	resp := &network.Response{PerNode: make([]wire.Message, g.n)}
	for v := range resp.PerNode {
		images := make([][]int, g.reps)
		for r, st := range p.reps {
			if st.success {
				images[r] = imagesOf(st.sigma, p.closed[st.b][v])
			}
		}
		resp.PerNode[v] = g.encodeFirst(p.reps, p.advice[v], images)
	}
	return resp, nil
}

func (p *gniProver) second(view *network.ProverView) (*network.Response, error) {
	g := p.proto
	n := g.n
	z, err := decodeBigChallenge(view.Challenges[1][0], g.p2)
	if err != nil {
		return nil, fmt.Errorf("core: GNI prover z: %w", err)
	}

	children := spantree.ChildLists(p.advice)
	order := spantree.PostOrder(p.advice)

	// Per successful repetition, compute all four aggregates bottom-up.
	var allSums [][]gniSums // [successIdx][node]
	for r, st := range p.reps {
		if !st.success {
			continue
		}
		sums := make([]gniSums, n)
		tab := g.params.Family().RowTable(p.seeds[r].Alpha, n)
		for _, v := range order {
			closed := p.closed[st.b][v]
			sums[v], _ = g.ownSums(tab, z, v, closed, imagesOf(st.sigma, closed))
			for _, ch := range children[v] {
				g.addSums(sums[v], sums[ch])
			}
		}
		allSums = append(allSums, sums)
	}

	resp := &network.Response{PerNode: make([]wire.Message, n)}
	for v := 0; v < n; v++ {
		msg := gniSecond{zEcho: z, sums: make([]gniSums, len(allSums))}
		for si := range allSums {
			msg.sums[si] = allSums[si][v]
		}
		resp.PerNode[v] = g.encodeSecond(msg)
	}
	return resp, nil
}
