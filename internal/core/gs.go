package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"

	"dip/internal/bitset"
	"dip/internal/graph"
	"dip/internal/hashing"
	"dip/internal/network"
	"dip/internal/perm"
	"dip/internal/prime"
	"dip/internal/spantree"
	"dip/internal/wire"
)

// gsKit is the distributed Goldwasser–Sipser machinery that the four GNI
// protocols (GNIDAMAM, GNIDAM, GNIGeneral and MarkedGNI) share: the hash
// parameters and acceptance threshold, the seed-slice challenge and its
// echo check, the codec of the per-repetition broadcast section and of the
// spanning-tree advice, and the prover's preimage search. Each protocol
// embeds one and adds only what it broadcasts beyond the section, its
// aggregates and its checks.
type gsKit struct {
	n      int // network size
	reps   int // parallel repetitions
	params *hashing.GSParams
	sw     int // seed bits per node and repetition: ceil(SeedBits / n)
	thresh int // the root accepts iff at least thresh repetitions verify
}

// maxHashedVertices bounds the vertex count of the graph a GNI protocol
// hashes: n for the pair protocols, k for gni-marked. Every honest prover
// searches S_n for a hash preimage once per repetition (8! = 40,320
// permutations; 12! is about 12,000 times as many), and gni-general's
// also enumerates Aut by brute force. A run's deadline cannot stop a
// prover mid-search, so the constructors refuse a larger graph.
const maxHashedVertices = 8

// checkHashedVertices refuses a hashed graph of more than
// maxHashedVertices vertices.
func checkHashedVertices(name string, n int) error {
	if n > maxHashedVertices {
		return fmt.Errorf("core: %s prover searches all %d! permutations; %d vertices > %d",
			name, n, n, maxHashedVertices)
	}
	return nil
}

// newGSKit builds the kit for an n-node network running reps repetitions
// of the hash params describes. The seed is spread over all n nodes, in
// slices of ⌈SeedBits/n⌉ bits.
func newGSKit(n, reps int, params *hashing.GSParams) gsKit {
	kit := gsKit{n: n, reps: reps, params: params, sw: (params.SeedBits() + n - 1) / n}
	yes, no := kit.SingleShotBounds()
	kit.thresh = int(math.Ceil(float64(reps) * (yes + no) / 2))
	return kit
}

// N returns the number of network nodes.
func (kit *gsKit) N() int { return kit.n }

// Threshold returns the number of verified successes the root requires.
func (kit *gsKit) Threshold() int { return kit.thresh }

// SingleShotBounds returns Poisson estimates of the probability that a
// single repetition succeeds on a yes- and a no-instance: with |S| targets
// distributed nearly pairwise-independently over a range of size p, the
// number of preimages of y is approximately Poisson(μ), μ = |S|/p, so
// Pr[∃ preimage] ≈ 1 - e^{-μ}, where |S| = 2·m! on a yes-instance and m!
// on a no-instance for graphs on m vertices (m = n for the pair protocols,
// the marked-set size for MarkedGNI). The acceptance threshold sits midway
// between the two estimates; the hash's ε = O(1/m²) distortion is far
// smaller than the gap. (The paper's inclusion-exclusion bounds
// μ - μ²/2 ≤ Pr ≤ μ bracket these estimates.)
func (kit *gsKit) SingleShotBounds() (yesRate, noRate float64) {
	fact, _ := new(big.Float).SetInt(prime.Factorial(kit.params.N())).Float64()
	p, _ := new(big.Float).SetInt(kit.params.P()).Float64()
	muYes := 2 * fact / p
	yesRate = 1 - math.Exp(-muYes)
	noRate = 1 - math.Exp(-muYes/2)
	return yesRate, noRate
}

func (kit *gsKit) idWidth() int  { return wire.WidthFor(kit.n) }
func (kit *gsKit) qWidth() int   { return wire.WidthForBig(kit.params.Q()) }
func (kit *gsKit) echoBits() int { return kit.n * kit.sw }

// consistencyPrime draws the modulus p₂ ∈ [1000·reps·n³, 2000·reps·n³] of
// the post-commitment Schwartz–Zippel checks and builds the Theorem 3.2
// family over it of dimension n², which holds every coordinate those
// checks use: each of their sums Σ z^{j+1} over coordinates j is the
// family's HashIndicator at index z.
func (kit *gsKit) consistencyPrime(seed int64) (*big.Int, *hashing.LinearFamily, error) {
	lo := big.NewInt(int64(1000 * kit.reps))
	lo.Mul(lo, big.NewInt(int64(kit.n*kit.n*kit.n)))
	p2, err := prime.InWindow(lo, new(big.Int).Mul(lo, big.NewInt(2)), seed)
	if err != nil {
		return nil, nil, err
	}
	f, err := hashing.NewLinearFamily(kit.n*kit.n, p2)
	return p2, f, err
}

// seedChallenge is the first Arthur round: per repetition, stride coin
// flips whose first sw bits are the node's seed slice.
func (kit *gsKit) seedChallenge(stride int) network.Round {
	return network.Round{Kind: network.Arthur, Challenge: func(_ int, rng *rand.Rand, _ *network.NodeView) wire.Message {
		var w wire.Writer
		for i := 0; i < kit.reps*stride; i++ {
			w.WriteBool(rng.Intn(2) == 1)
		}
		return w.Message()
	}}
}

// gsRep is one repetition's broadcast section, which every node receives
// and compares with its neighbors' copies.
type gsRep struct {
	success    bool
	b          int
	seedEcho   wire.Message // the nodes' seed slices, node 0 first
	a3Echo     wire.Message // GNIGeneral: the nodes' α3 slices
	sigma, tau []int
}

// gsLayout is what a protocol broadcasts per successful repetition after
// success | b | seed echo: an α3 echo of a3Bits bits if a3Bits > 0, then σ
// as perm entries in [0, perm) of permWidth bits each if perm > 0, then τ
// in the same form if tau is set.
type gsLayout struct {
	a3Bits          int
	perm, permWidth int
	tau             bool
}

// gsHead opens every GNI M₁: the broadcast section and v's spanning-tree
// advice.
type gsHead struct {
	reps      []gsRep
	successes int
	tree      spantree.Advice
}

func (kit *gsKit) writeHead(w *wire.Writer, lay gsLayout, reps []gsRep, tree spantree.Advice) {
	for _, r := range reps {
		w.WriteBool(r.success)
		if !r.success {
			continue
		}
		w.WriteInt(r.b, 1)
		w.WriteBits(r.seedEcho.Data, r.seedEcho.Bits)
		if lay.a3Bits > 0 {
			w.WriteBits(r.a3Echo.Data, r.a3Echo.Bits)
		}
		if lay.perm > 0 {
			writeInts(w, r.sigma, lay.permWidth)
		}
		if lay.tau {
			writeInts(w, r.tau, lay.permWidth)
		}
	}
	writeTree(w, tree, kit.n)
}

func (kit *gsKit) readHead(r *wire.Reader, lay gsLayout) (gsHead, error) {
	h := gsHead{reps: make([]gsRep, kit.reps)}
	var err error
	for i := range h.reps {
		rep := &h.reps[i]
		if rep.success, err = r.ReadBool(); err != nil {
			return h, err
		}
		if !rep.success {
			continue
		}
		h.successes++
		if rep.b, err = r.ReadInt(1); err != nil {
			return h, err
		}
		if rep.seedEcho, err = readBits(r, kit.echoBits()); err != nil {
			return h, err
		}
		if lay.a3Bits > 0 {
			if rep.a3Echo, err = readBits(r, lay.a3Bits); err != nil {
				return h, err
			}
		}
		if lay.perm > 0 {
			if rep.sigma, err = readInts(r, lay.perm, lay.perm, lay.permWidth); err != nil {
				return h, err
			}
		}
		if lay.tau {
			if rep.tau, err = readInts(r, lay.perm, lay.perm, lay.permWidth); err != nil {
				return h, err
			}
		}
	}
	h.tree, err = readTree(r, kit.n, 0)
	return h, err
}

// sameReps reports whether two decoded broadcast sections agree.
func sameReps(a, b []gsRep) bool {
	return slices.EqualFunc(a, b, func(x, y gsRep) bool {
		if x.success != y.success {
			return false
		}
		return !x.success || (x.b == y.b && msgEqual(x.seedEcho, y.seedEcho) &&
			msgEqual(x.a3Echo, y.a3Echo) && slices.Equal(x.sigma, y.sigma) && slices.Equal(x.tau, y.tau))
	})
}

// nbrCap is the capacity of the per-neighbor slices a decide builds. A
// constant capacity lets the compiler keep such a slice on the stack when
// it does not escape, so a node of degree at most nbrCap allocates
// nothing for its neighbors' shares; a larger degree grows it on the
// heap.
const nbrCap = 8

// treeChildren runs node v's spanning-tree check on its own advice and
// its neighbors' (trees[j] is view.Neighbors[j]'s) and returns the
// positions of v's children in view.Neighbors.
func treeChildren(v int, own spantree.Advice, trees []spantree.Advice, view *network.NodeView) ([]int, bool) {
	if !spantree.VerifyLocal(v, own, view.Neighbors, trees) {
		return nil, false
	}
	return spantree.Children(v, view.Neighbors, trees), true
}

// echoSlices concatenates the nodes' slices of one repetition — width
// bits at offset off of each node's first challenge — into its echo.
func echoSlices(challenges []wire.Message, off, width int) (wire.Message, error) {
	var w wire.Writer
	for v, ch := range challenges {
		s, err := subBits(ch, off, width)
		if err != nil {
			return wire.Message{}, fmt.Errorf("core: GNI prover slice of node %d: %w", v, err)
		}
		w.WriteBits(s.Data, s.Bits)
	}
	return w.Message(), nil
}

// proverSeed assembles repetition r's seed echo from the nodes' first
// challenges, which hold one repetition every stride bits, and reads the
// seed from it.
func (kit *gsKit) proverSeed(challenges []wire.Message, r, stride int) (wire.Message, *hashing.GSSeed, error) {
	e, err := echoSlices(challenges, r*stride, kit.sw)
	if err != nil {
		return wire.Message{}, nil, err
	}
	seed, err := kit.params.SeedFromBits(e)
	return e, seed, err
}

// echoedIntact reports whether node v's slice — width bits at offset off
// of its challenge mine — sits unchanged at position v of echo, so the
// prover cannot have biased v's contribution.
func echoedIntact(echo, mine wire.Message, v, off, width int) bool {
	got, err := subBits(echo, v*width, width)
	if err != nil {
		return false
	}
	sent, err := subBits(mine, off, width)
	return err == nil && msgEqual(got, sent)
}

// verifierSeed checks node v's seed slice at offset off of its challenge
// mine inside echo and reads the seed from the echo.
func (kit *gsKit) verifierSeed(v int, mine, echo wire.Message, off int) (*hashing.GSSeed, bool) {
	if !echoedIntact(echo, mine, v, off, kit.sw) {
		return nil, false
	}
	seed, err := kit.params.SeedFromBits(echo)
	return seed, err == nil
}

// hits reports whether the aggregated f_α sum c hashes to the seed's
// target: the root's final check of a claimed success.
func (kit *gsKit) hits(seed *hashing.GSSeed, c *big.Int) bool {
	return kit.params.Finish(seed, c).Cmp(seed.Y) == 0
}

// searchGNIPreimage enumerates (b, σ) in Lehmer order for a member σ(G_b)
// of S = {σ(G_b)} hashing to the seed's target, where rows[b] holds G_b's
// closed rows.
func searchGNIPreimage(params *hashing.GSParams, rows [2][]*bitset.Set, seed *hashing.GSSeed) (int, perm.Perm, bool) {
	n := params.N()
	f := params.Family()
	tab := f.RowTable(seed.Alpha, n)
	mapped := bitset.New(n)
	sum := new(big.Int)
	for b := 0; b < 2; b++ {
		sigma := perm.Identity(n)
		for {
			sum.SetInt64(0)
			for v, row := range rows[b] {
				f.AddModInto(sum, tab.Hash(sigma[v], row.PermuteInto(mapped, sigma)))
			}
			if params.Finish(seed, sum).Cmp(seed.Y) == 0 {
				return b, sigma.Clone(), true
			}
			if !sigma.NextLex() {
				break
			}
		}
	}
	return 0, nil, false
}

// closedRow returns v's closed neighborhood, given its open one, as a row
// of length n.
func closedRow(n, v int, open []int) *bitset.Set {
	row := bitset.FromIndices(n, open...)
	row.Add(v)
	return row
}

// closedRows lists g's closed rows.
func closedRows(g *graph.Graph) []*bitset.Set {
	rows := make([]*bitset.Set, g.N())
	for v := range rows {
		rows[v] = g.ClosedRow(v)
	}
	return rows
}

// pairRows checks the prover view of a pair protocol (G₀ the network, G₁
// in the inputs) and returns both graphs' closed rows.
func (kit *gsKit) pairRows(view *network.ProverView, name string) ([2][]*bitset.Set, error) {
	var rows [2][]*bitset.Set
	if view.Graph.N() != kit.n {
		return rows, fmt.Errorf("core: graph has %d vertices, protocol built for %d", view.Graph.N(), kit.n)
	}
	if len(view.Inputs) != kit.n {
		return rows, fmt.Errorf("core: %s prover needs G1 inputs", name)
	}
	rows[0] = closedRows(view.Graph)
	rows[1] = make([]*bitset.Set, kit.n)
	for v := range rows[1] {
		open, err := decodeGNIInput(view.Inputs[v], kit.n)
		if err != nil {
			return rows, fmt.Errorf("core: %s prover input %d: %w", name, v, err)
		}
		rows[1][v] = closedRow(kit.n, v, open)
	}
	return rows, nil
}

// closedNbhdFromView returns v's closed G_b-neighborhood as seen by the
// verifier: the network neighbors for b = 0, the decoded input for b = 1.
func closedNbhdFromView(view *network.NodeView, b, n int) (*bitset.Set, error) {
	if b == 0 {
		return closedRow(n, view.V, view.Neighbors), nil
	}
	open, err := decodeGNIInput(view.Input, n)
	if err != nil {
		return nil, err
	}
	return closedRow(n, view.V, open), nil
}

// imagesOf maps row's members, ascending, through σ.
func imagesOf(sigma []int, row *bitset.Set) []int {
	out := make([]int, 0, row.Count())
	for u := row.NextSet(0); u >= 0; u = row.NextSet(u + 1) {
		out = append(out, sigma[u])
	}
	return out
}

// subBits extracts m's bits [from, from+width).
func subBits(m wire.Message, from, width int) (wire.Message, error) {
	if from < 0 || width < 0 || from+width > m.Bits {
		return wire.Message{}, fmt.Errorf("core: bit range [%d,%d) outside message of %d bits",
			from, from+width, m.Bits)
	}
	var w wire.Writer
	for i := from; i < from+width; i++ {
		w.WriteBool(m.Data[i/8]&(1<<(uint(i)%8)) != 0)
	}
	return w.Message(), nil
}

// readBits reads the next width bits as a message of their own.
func readBits(r *wire.Reader, width int) (wire.Message, error) {
	raw, err := r.ReadBig(width)
	if err != nil {
		return wire.Message{}, err
	}
	var w wire.Writer
	w.WriteBig(raw, width)
	return w.Message(), nil
}

func writeInts(w *wire.Writer, xs []int, width int) {
	for _, x := range xs {
		w.WriteInt(x, width)
	}
}

// readInts reads count width-bit values, each of which must be below
// bound.
func readInts(r *wire.Reader, count, bound, width int) ([]int, error) {
	out := make([]int, count)
	for i := range out {
		var err error
		if out[i], err = r.ReadInt(width); err != nil {
			return nil, err
		}
		if out[i] >= bound {
			return nil, errors.New("core: image out of range")
		}
	}
	return out, nil
}
