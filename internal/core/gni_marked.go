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

// Mark is a node's input in the marked formulation of GNI.
type Mark int

// The three mark values of Section 2.3's alternative GNI definition.
const (
	MarkZero Mark = iota // member of the first induced subgraph
	MarkOne              // member of the second induced subgraph
	MarkNone             // ⊥: transport-only node
)

// MarkedGNI is the paper's *alternative* formulation of distributed GNI
// (Section 2.3): there is a single network graph G; every node carries a
// mark from {0, 1, ⊥}; and the question is whether the subgraph induced by
// the 0-marked nodes is non-isomorphic to the subgraph induced by the
// 1-marked nodes. Unlike Definition 4, here the compared graphs live
// *inside* the communication graph, and ⊥-marked nodes participate only as
// transport.
//
// The protocol reduces to the Goldwasser–Sipser machinery via a
// prover-supplied *rank labeling*: each b-marked node is assigned its index
// in [k] (k = size of each marked set, a protocol parameter), which
// relabels the induced subgraphs onto the common vertex set [k]. Three new
// verification layers make the reduction sound:
//
//   - mark/rank cross-checking: the prover tells each node the marks and
//     ranks of its network neighbors; every node checks that every
//     neighbor's message states its own mark and rank correctly, so a
//     lying prover is caught by the node it lied about;
//   - counting: subtree aggregation verifies that each marked set has
//     exactly k members (deterministically);
//   - rank validity: a post-commitment challenge z certifies via the
//     multiset identity Σ_{m_v=b} z^{rank_v} = Σ_{i<k} z^i that the ranks
//     of each marked set form a bijection onto [k] (Schwartz–Zippel).
//
// With ranks certified, node v's row of σ(H_b) is computable locally (its
// b-marked network neighbors' ranks are cross-checked), and the standard
// counting argument applies to S = {σ(H_b)}: 2·k! vs k! (both induced
// subgraphs are promised asymmetric, as in the paper's Definition 4
// protocol).
//
// Round structure: Arthur (seed slices), Merlin (marks/ranks/counts + GS
// claims), Arthur (z), Merlin (multiset + hash aggregates) — a dAMAM
// protocol, like Theorem 1.5's.
type MarkedGNI struct {
	gsKit                       // hash built for k-vertex graphs, seed spread over all n nodes
	k     int                   // size of each marked set
	p2    *big.Int              // rank-multiset modulus
	sz    *hashing.LinearFamily // the rank multisets' family over p₂
}

// NewMarkedGNI builds the protocol for an n-node network whose two marked
// sets each have k members, with the given number of parallel repetitions.
func NewMarkedGNI(n, k, reps int, seed int64) (*MarkedGNI, error) {
	if k < 3 {
		return nil, fmt.Errorf("core: MarkedGNI needs k >= 3, got %d", k)
	}
	if n < 2*k {
		return nil, fmt.Errorf("core: MarkedGNI needs n >= 2k, got n=%d k=%d", n, k)
	}
	if reps < 1 {
		return nil, fmt.Errorf("core: MarkedGNI needs reps >= 1, got %d", reps)
	}
	if err := checkHashedVertices("MarkedGNI", k); err != nil {
		return nil, err
	}
	params, err := hashing.NewGSParams(k, 2, seed)
	if err != nil {
		return nil, fmt.Errorf("core: MarkedGNI hash params: %w", err)
	}
	g := &MarkedGNI{gsKit: newGSKit(n, reps, params), k: k}
	if g.p2, g.sz, err = g.consistencyPrime(seed + 17); err != nil {
		return nil, fmt.Errorf("core: MarkedGNI p2: %w", err)
	}
	return g, nil
}

// K returns the size of each marked set; Reps the repetition count.
func (g *MarkedGNI) K() int    { return g.k }
func (g *MarkedGNI) Reps() int { return g.reps }

// rankTerms returns a node's own terms of the rank multisets m₀ and m₁:
// z^{rank+1} in the one its mark selects, 0 in the other.
func (g *MarkedGNI) rankTerms(z *big.Int, mark Mark, rank int) (m0, m1 *big.Int) {
	m0, m1 = new(big.Int), new(big.Int)
	switch mark {
	case MarkZero:
		m0 = g.sz.HashIndicator(z, []int{rank})
	case MarkOne:
		m1 = g.sz.HashIndicator(z, []int{rank})
	}
	return m0, m1
}

func (g *MarkedGNI) rankWidth() int  { return wire.WidthFor(g.k) }
func (g *MarkedGNI) countWidth() int { return wire.WidthFor(g.n + 1) }
func (g *MarkedGNI) p2Width() int    { return wire.WidthForBig(g.p2) }

// layout broadcasts σ, a permutation of [k], with every successful
// repetition.
func (g *MarkedGNI) layout() gsLayout { return gsLayout{perm: g.k, permWidth: g.rankWidth()} }

// EncodeMarks encodes per-node marks as 2-bit inputs.
func EncodeMarks(marks []Mark) ([]wire.Message, error) {
	out := make([]wire.Message, len(marks))
	for v, m := range marks {
		if m < MarkZero || m > MarkNone {
			return nil, fmt.Errorf("core: invalid mark %d at node %d", m, v)
		}
		var w wire.Writer
		w.WriteInt(int(m), 2)
		out[v] = w.Message()
	}
	return out, nil
}

func decodeMark(m wire.Message) (Mark, error) {
	r := wire.NewReader(m)
	mark, err := readMark(r)
	if err != nil {
		return 0, err
	}
	return mark, r.Done()
}

// readMark reads a 2-bit mark.
func readMark(r *wire.Reader) (Mark, error) {
	v, err := r.ReadInt(2)
	if err != nil {
		return 0, err
	}
	if v > int(MarkNone) {
		return 0, errors.New("core: invalid mark value")
	}
	return Mark(v), nil
}

// markedNeighborClaim is the prover's claim about one network neighbor.
type markedNeighborClaim struct {
	mark Mark
	rank int // meaningful only for marked neighbors
}

// markedFirst is node v's decoded M₁.
type markedFirst struct {
	k0, k1 int // claimed marked-set sizes (broadcast)
	gsHead
	rank    int  // v's own rank (meaningful if v is marked)
	ownMark Mark // v's own mark, echoed so neighbors can bind claims to it
	claims  []markedNeighborClaim
	c0, c1  int        // subtree mark counts
	sums    []*big.Int // per successful rep: partial hash sums
}

func (g *MarkedGNI) encodeFirst(m markedFirst) wire.Message {
	var w wire.Writer
	w.WriteInt(m.k0, g.countWidth())
	w.WriteInt(m.k1, g.countWidth())
	g.writeHead(&w, g.layout(), m.reps, m.tree)
	w.WriteInt(m.rank, g.rankWidth())
	w.WriteInt(int(m.ownMark), 2)
	for _, cl := range m.claims {
		w.WriteInt(int(cl.mark), 2)
		w.WriteInt(cl.rank, g.rankWidth())
	}
	w.WriteInt(m.c0, g.countWidth())
	w.WriteInt(m.c1, g.countWidth())
	for _, s := range m.sums {
		w.WriteBig(s, g.qWidth())
	}
	return w.Message()
}

// decodeFirst parses M₁; numNeighbors is the receiving context's neighbor
// count (the claims section length). A negative count selects the
// neighbor view: a neighbor's claims section is sized by its own degree,
// which v does not know, so the claims are skipped and the fixed-width
// counts and sums are read from the END of the message.
func (g *MarkedGNI) decodeFirst(m wire.Message, numNeighbors int) (markedFirst, error) {
	r := wire.NewReader(m)
	var out markedFirst
	var err error
	if out.k0, err = r.ReadInt(g.countWidth()); err != nil {
		return out, err
	}
	if out.k1, err = r.ReadInt(g.countWidth()); err != nil {
		return out, err
	}
	if out.gsHead, err = g.readHead(r, g.layout()); err != nil {
		return out, err
	}
	if out.rank, err = r.ReadInt(g.rankWidth()); err != nil {
		return out, err
	}
	if out.ownMark, err = readMark(r); err != nil {
		return out, err
	}
	if numNeighbors < 0 {
		tailBits := 2*g.countWidth() + out.successes*g.qWidth()
		tail, err := subBits(m, m.Bits-tailBits, tailBits)
		if err != nil {
			return out, err
		}
		r = wire.NewReader(tail)
	} else {
		out.claims = make([]markedNeighborClaim, numNeighbors)
		for i := range out.claims {
			if out.claims[i].mark, err = readMark(r); err != nil {
				return out, err
			}
			if out.claims[i].rank, err = r.ReadInt(g.rankWidth()); err != nil {
				return out, err
			}
		}
	}
	if out.c0, err = r.ReadInt(g.countWidth()); err != nil {
		return out, err
	}
	if out.c1, err = r.ReadInt(g.countWidth()); err != nil {
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

// markedSecond is node v's decoded M₂: the z echo and the two rank-multiset
// subtree aggregates.
type markedSecond struct {
	zEcho  *big.Int
	m0, m1 *big.Int
}

func (g *MarkedGNI) encodeSecond(m markedSecond) wire.Message {
	var w wire.Writer
	w.WriteBig(m.zEcho, g.p2Width())
	w.WriteBig(m.m0, g.p2Width())
	w.WriteBig(m.m1, g.p2Width())
	return w.Message()
}

func (g *MarkedGNI) decodeSecond(m wire.Message) (markedSecond, error) {
	r := wire.NewReader(m)
	var out markedSecond
	var err error
	if out.zEcho, err = r.ReadBig(g.p2Width()); err != nil {
		return out, err
	}
	if out.m0, err = r.ReadBig(g.p2Width()); err != nil {
		return out, err
	}
	if out.m1, err = r.ReadBig(g.p2Width()); err != nil {
		return out, err
	}
	for _, x := range []*big.Int{out.zEcho, out.m0, out.m1} {
		if x.Cmp(g.p2) >= 0 {
			return out, errors.New("core: value out of range")
		}
	}
	return out, r.Done()
}

// Spec returns the protocol's round schedule and verifier.
func (g *MarkedGNI) Spec() *network.Spec {
	return &network.Spec{
		Name: "gni-marked",
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

func (g *MarkedGNI) decide(v int, view *network.NodeView) bool {
	if view.NumVertices != g.n {
		return false
	}
	myMark, err := decodeMark(view.Input)
	if err != nil {
		return false
	}
	first, err := g.decodeFirst(view.Responses[0], len(view.Neighbors))
	if err != nil {
		return false
	}
	neighborFirst := make([]markedFirst, 0, nbrCap)
	trees := make([]spantree.Advice, 0, nbrCap)
	for j := range view.Neighbors {
		nf, err := g.decodeFirst(view.NeighborResponses[0][j], -1)
		if err != nil || nf.k0 != first.k0 || nf.k1 != first.k1 || !sameReps(first.reps, nf.reps) {
			return false
		}
		neighborFirst, trees = append(neighborFirst, nf), append(trees, nf.tree)
	}

	// Truthful self-fields: each node verifies its own mark echo, so a
	// neighbor's ownMark field can be trusted once all nodes accept.
	if first.ownMark != myMark {
		return false
	}
	if myMark != MarkNone && first.rank >= g.k {
		return false
	}
	// Cross-check: the claim v holds about each neighbor u must match u's
	// self-reported mark and (for marked u) rank. Combined with u's own
	// mark echo and the rank-multiset certification below, every claim is
	// bound to the claimee's true mark and a bijective rank assignment.
	for j, nf := range neighborFirst {
		cl := first.claims[j]
		if cl.mark != nf.ownMark {
			return false
		}
		if cl.mark != MarkNone && cl.rank != nf.rank {
			return false
		}
	}

	children, ok := treeChildren(v, first.tree, trees, view)
	if !ok {
		return false
	}

	// Counting: c_b(v) = [m_v = b] + Σ children.
	c0, c1 := 0, 0
	if myMark == MarkZero {
		c0 = 1
	}
	if myMark == MarkOne {
		c1 = 1
	}
	for _, j := range children {
		c0 += neighborFirst[j].c0
		c1 += neighborFirst[j].c1
	}
	if c0 != first.c0 || c1 != first.c1 {
		return false
	}
	if v == 0 {
		if first.c0 != first.k0 || first.c1 != first.k1 {
			return false
		}
		if first.k0 != g.k || first.k1 != g.k {
			return false // protocol instantiated for marked sets of size k
		}
	}

	// M₂: z echo and rank-multiset aggregates.
	second, err := g.decodeSecond(view.Responses[1])
	if err != nil {
		return false
	}
	neighborSecond := make([]markedSecond, 0, nbrCap)
	for j := range view.Neighbors {
		ns, err := g.decodeSecond(view.NeighborResponses[1][j])
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
	m0, m1 := g.rankTerms(z, myMark, first.rank)
	for _, j := range children {
		g.sz.AddModInto(m0, neighborSecond[j].m0)
		g.sz.AddModInto(m1, neighborSecond[j].m1)
	}
	if m0.Cmp(second.m0) != 0 || m1.Cmp(second.m1) != 0 {
		return false
	}
	if v == 0 {
		// Σ_{i<k} z^{i+1}: each marked set's ranks are exactly [k].
		want := g.sz.HashIndicator(z, perm.Identity(g.k))
		if second.m0.Cmp(want) != 0 || second.m1.Cmp(want) != 0 {
			return false
		}
	}

	// GS repetitions.
	si := 0
	for rI, rep := range first.reps {
		if !rep.success {
			continue
		}
		if !perm.IsValid(rep.sigma) {
			return false
		}
		seed, ok := g.verifierSeed(v, view.MyChallenges[0], rep.seedEcho, rI*g.sw)
		if !ok {
			return false
		}
		cExpect := new(big.Int)
		if int(myMark) == rep.b {
			// Our row of σ(H_b): σ of our rank and of our b-marked
			// neighbors' ranks, which must be distinct.
			row := bitset.FromIndices(g.k, rep.sigma[first.rank])
			cols := 1
			for _, cl := range first.claims {
				if int(cl.mark) == rep.b {
					if cl.rank >= g.k {
						return false
					}
					row.Add(rep.sigma[cl.rank])
					cols++
				}
			}
			if row.Count() != cols {
				return false
			}
			cExpect = g.params.Family().RowTable(seed.Alpha, g.k).Hash(rep.sigma[first.rank], row)
		}
		for _, j := range children {
			g.params.Family().AddModInto(cExpect, neighborFirst[j].sums[si])
		}
		if cExpect.Cmp(first.sums[si]) != 0 {
			return false
		}
		if v == 0 && !g.hits(seed, first.sums[si]) {
			return false
		}
		si++
	}
	if v == 0 && si < g.thresh {
		return false
	}
	return true
}

// Run executes the protocol on network graph g0 with the given marks.
func (g *MarkedGNI) Run(g0 *graph.Graph, marks []Mark, prover network.Prover, seed int64) (*network.Result, error) {
	if g0.N() != g.n || len(marks) != g.n {
		return nil, fmt.Errorf("core: MarkedGNI sizes (%d graph, %d marks), protocol built for %d",
			g0.N(), len(marks), g.n)
	}
	inputs, err := EncodeMarks(marks)
	if err != nil {
		return nil, err
	}
	return network.Run(g.Spec(), g0, inputs, prover, network.Options{Seed: seed})
}

// HonestProver returns the optimal prover (and optimal no-instance
// cheater). A fresh prover must be used per run.
func (g *MarkedGNI) HonestProver() network.Prover {
	return &markedProver{proto: g}
}

type markedProver struct {
	proto *MarkedGNI

	// state from M₁ to M₂
	marks  []Mark
	ranks  []int
	advice []spantree.Advice
}

func (p *markedProver) Respond(round int, view *network.ProverView) (*network.Response, error) {
	switch round {
	case 0:
		return p.first(view)
	case 1:
		return p.second(view)
	default:
		return nil, fmt.Errorf("core: MarkedGNI prover called for round %d", round)
	}
}

func (p *markedProver) first(view *network.ProverView) (*network.Response, error) {
	g := p.proto
	n := g.n
	g0 := view.Graph
	if g0.N() != n || len(view.Inputs) != n {
		return nil, errors.New("core: MarkedGNI prover instance mismatch")
	}
	marks := make([]Mark, n)
	ranks := make([]int, n)
	var set [2][]int
	for v := 0; v < n; v++ {
		m, err := decodeMark(view.Inputs[v])
		if err != nil {
			return nil, fmt.Errorf("core: MarkedGNI prover input %d: %w", v, err)
		}
		marks[v] = m
		if m == MarkZero {
			ranks[v] = len(set[0])
			set[0] = append(set[0], v)
		}
		if m == MarkOne {
			ranks[v] = len(set[1])
			set[1] = append(set[1], v)
		}
	}
	p.marks, p.ranks = marks, ranks
	if len(set[0]) != g.k || len(set[1]) != g.k {
		return nil, fmt.Errorf("core: MarkedGNI marked sets have sizes %d and %d, protocol built for %d",
			len(set[0]), len(set[1]), g.k)
	}

	// Build the induced subgraphs on [k] via the ranks.
	var closed [2][]*bitset.Set
	for b := range closed {
		induced := graph.New(g.k)
		for _, v := range set[b] {
			for _, u := range g0.Neighbors(v) {
				if marks[u] == Mark(b) && u > v {
					induced.AddEdge(ranks[v], ranks[u])
				}
			}
		}
		closed[b] = closedRows(induced)
	}

	advice, err := setupcache.ForGraph(g0).SpanTree(0)
	if err != nil {
		return nil, fmt.Errorf("core: MarkedGNI prover tree: %w", err)
	}
	p.advice = advice
	childLists := spantree.ChildLists(advice)
	order := spantree.PostOrder(advice)

	// Subtree mark counts.
	c0 := make([]int, n)
	c1 := make([]int, n)
	for _, v := range order {
		if marks[v] == MarkZero {
			c0[v] = 1
		}
		if marks[v] == MarkOne {
			c1[v] = 1
		}
		for _, ch := range childLists[v] {
			c0[v] += c0[ch]
			c1[v] += c1[ch]
		}
	}

	// GS repetitions over the induced pair.
	reps := make([]gsRep, g.reps)
	var allSums [][]*big.Int
	for rI := range reps {
		echo, seed, err := g.proverSeed(view.Challenges[0], rI, g.sw)
		if err != nil {
			return nil, err
		}
		b, sigma, ok := searchGNIPreimage(g.params, closed, seed)
		reps[rI] = gsRep{success: ok, b: b, seedEcho: echo, sigma: sigma}
		if !ok {
			continue
		}
		f := g.params.Family()
		tab := f.RowTable(seed.Alpha, g.k)
		mapped := bitset.New(g.k)
		sums := make([]*big.Int, n)
		for _, v := range order {
			s := new(big.Int)
			if int(marks[v]) == b {
				s = tab.Hash(sigma[ranks[v]], closed[b][ranks[v]].PermuteInto(mapped, sigma))
			}
			for _, ch := range childLists[v] {
				f.AddModInto(s, sums[ch])
			}
			sums[v] = s
		}
		allSums = append(allSums, sums)
	}

	resp := &network.Response{PerNode: make([]wire.Message, n)}
	for v := 0; v < n; v++ {
		claims := make([]markedNeighborClaim, 0, g0.Degree(v))
		for _, u := range g0.Neighbors(v) {
			claims = append(claims, markedNeighborClaim{mark: marks[u], rank: ranks[u]})
		}
		msg := markedFirst{
			k0: g.k, k1: g.k,
			gsHead:  gsHead{reps: reps, tree: advice[v]},
			rank:    ranks[v],
			ownMark: marks[v],
			claims:  claims,
			c0:      c0[v], c1: c1[v],
		}
		for _, sums := range allSums {
			msg.sums = append(msg.sums, sums[v])
		}
		resp.PerNode[v] = g.encodeFirst(msg)
	}
	return resp, nil
}

func (p *markedProver) second(view *network.ProverView) (*network.Response, error) {
	g := p.proto
	n := g.n
	z, err := decodeBigChallenge(view.Challenges[1][0], g.p2)
	if err != nil {
		return nil, err
	}
	childLists := spantree.ChildLists(p.advice)
	order := spantree.PostOrder(p.advice)
	m0 := make([]*big.Int, n)
	m1 := make([]*big.Int, n)
	for _, v := range order {
		m0[v], m1[v] = g.rankTerms(z, p.marks[v], p.ranks[v])
		for _, ch := range childLists[v] {
			g.sz.AddModInto(m0[v], m0[ch])
			g.sz.AddModInto(m1[v], m1[ch])
		}
	}
	resp := &network.Response{PerNode: make([]wire.Message, n)}
	for v := 0; v < n; v++ {
		resp.PerNode[v] = g.encodeSecond(markedSecond{zEcho: z, m0: m0[v], m1: m1[v]})
	}
	return resp, nil
}
