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

// symKit is the machinery of Protocol 1 (Section 3.1) that the three
// symmetry protocols share — SymDMAM, SymDAM (Protocol 2, Section 3.2) and
// DSymDAM (Section 3.3): the hash modulus p and the Theorem 3.2 linear
// family over n×n matrices, the Arthur round that draws a hash index, the
// range-checked codec fields, the verifier's Lines 1–4, and the prover's
// honest mapping and subtree sums. Each protocol embeds one and adds only
// its message layout, its broadcast comparison and where a node's image
// ρ(v) comes from: the neighbor's committed ρ_u, the broadcast ρ, or the
// fixed σ.
type symKit struct {
	n      int
	p      *big.Int
	family *hashing.LinearFamily
}

// newSymKit builds the kit for graphs on n vertices hashed modulo p; name
// labels a construction error.
func newSymKit(name string, n int, p *big.Int) (symKit, error) {
	family, err := hashing.NewLinearFamily(n*n, p)
	if err != nil {
		return symKit{}, fmt.Errorf("core: %s family: %w", name, err)
	}
	return symKit{n: n, p: p, family: family}, nil
}

// N returns the number of vertices the protocol instance is for.
func (kit *symKit) N() int { return kit.n }

// P returns (a copy of) the hash modulus.
func (kit *symKit) P() *big.Int { return new(big.Int).Set(kit.p) }

func (kit *symKit) idWidth() int   { return wire.WidthFor(kit.n) }
func (kit *symKit) hashWidth() int { return wire.WidthForBig(kit.p) }

// hashIndexRound is the Arthur round: every node v draws a hash index
// i_v ∈ Z_p.
func (kit *symKit) hashIndexRound() network.Round {
	return network.Round{Kind: network.Arthur, Challenge: func(_ int, rng *rand.Rand, _ *network.NodeView) wire.Message {
		return bigChallenge(rng, kit.p)
	}}
}

// writeFields writes elements of Z_p.
func (kit *symKit) writeFields(w *wire.Writer, xs ...*big.Int) {
	for _, x := range xs {
		w.WriteBig(x, kit.hashWidth())
	}
}

// symReader reads a symmetry protocol message field by field, checking
// that every vertex id is below n and every field element below p. It
// keeps the first error, and reads nothing after it.
type symReader struct {
	kit *symKit
	r   wire.Reader // held by value, so that decoding allocates no reader
	err error
}

func (kit *symKit) reader(m wire.Message) symReader {
	return symReader{kit: kit, r: *wire.NewReader(m)}
}

// keep records err if it is the first. Storing only a non-nil error
// spares the happy path a write barrier per field.
func (sr *symReader) keep(err error) {
	if err != nil {
		sr.err = err
	}
}

// id reads a vertex id.
func (sr *symReader) id() int {
	if sr.err != nil {
		return 0
	}
	x, err := sr.r.ReadInt(sr.kit.idWidth())
	if err == nil && x >= sr.kit.n {
		err = errors.New("core: vertex id out of range")
	}
	sr.keep(err)
	return x
}

// field reads an element of Z_p.
func (sr *symReader) field() *big.Int {
	if sr.err != nil {
		return nil
	}
	x, err := sr.r.ReadBig(sr.kit.hashWidth())
	if err == nil && x.Cmp(sr.kit.p) >= 0 {
		err = errors.New("core: field value out of range")
	}
	sr.keep(err)
	return x
}

// skip moves past k bits the caller has already compared (see
// SymDAM.decide).
func (sr *symReader) skip(k int) {
	if sr.err == nil {
		sr.keep(sr.r.Skip(k))
	}
}

// tree reads spanning-tree advice written by writeTree, for a tree rooted
// at root.
func (sr *symReader) tree(root int) spantree.Advice {
	if sr.err != nil {
		return spantree.Advice{}
	}
	t, err := readTree(&sr.r, sr.kit.n, root)
	sr.keep(err)
	return t
}

// done returns the first error, or an error if bits are left unread.
func (sr *symReader) done() error {
	if sr.err != nil {
		return sr.err
	}
	return sr.r.Done()
}

// symShare is one node's part of Lines 1–4: its spanning-tree advice, its
// image ρ(v) and its claimed subtree sums a_v and b_v.
type symShare struct {
	tree  spantree.Advice
	image int
	a, b  *big.Int
}

// verify runs Lines 1–4 of Protocol 1 at node v on its own share and its
// neighbors' (nbrs[j] is view.Neighbors[j]'s), under the echoed hash index
// i and the broadcast root r:
//
//	Line 1   the spanning-tree check, which yields C(v) = {u ∈ N(v) : t_u = v}
//	Line 3a  a_v = h_i([v, N(v)]) + Σ_{u∈C(v)} a_u
//	Line 3b  b_v = h_i([ρ(v), ρ(N(v))]) + Σ_{u∈C(v)} b_u
//	Line 4   at the root: a_r = b_r, ρ(r) ≠ r, and i is the root's own i_r
func (kit *symKit) verify(v, root int, i *big.Int, own symShare, nbrs []symShare, view *network.NodeView) bool {
	trees := make([]spantree.Advice, 0, nbrCap)
	for _, sh := range nbrs {
		trees = append(trees, sh.tree)
	}
	children, ok := treeChildren(v, own.tree, trees, view)
	if !ok {
		return false
	}

	tab := kit.rowTable(view.Memo, i)
	row := bitset.New(kit.n)
	row.Add(v)
	for _, u := range view.Neighbors {
		row.Add(u)
	}
	a := tab.Hash(v, row)
	for _, j := range children {
		a = kit.family.AddModInto(a, nbrs[j].a)
	}
	if a.Cmp(own.a) != 0 {
		return false
	}

	row.Clear() // [v, N(v)] is hashed; reuse its storage for ρ(N[v])
	row.Add(own.image)
	for _, sh := range nbrs {
		row.Add(sh.image)
	}
	b := tab.Hash(own.image, row)
	for _, j := range children {
		b = kit.family.AddModInto(b, nbrs[j].b)
	}
	if b.Cmp(own.b) != 0 {
		return false
	}

	if v == root {
		if own.a.Cmp(own.b) != 0 || own.image == v {
			return false
		}
		iv, err := decodeBigChallenge(view.MyChallenges[0], kit.p)
		return err == nil && iv.Cmp(i) == 0
	}
	return true
}

// rowTable returns the row-hash table of index i. Every honest node
// hashes under the same echoed index, so the table is built once per host
// and run, through the memo; in-process the prover's subtreeHashSums
// builds it there first, and prover and verifiers share its row hashes.
// It is the only memo lookup a prover makes, and its owner is this
// unexported kit, so what a prover stores is what a node would build.
func (kit *symKit) rowTable(memo *network.Memo, i *big.Int) *hashing.RowTable {
	return network.Memoize(memo, kit, network.FieldKey(i), func() *hashing.RowTable {
		return kit.family.RowTable(i, kit.n)
	})
}

// checkGraph is the prover's check that g has the size the instance was
// built for.
func (kit *symKit) checkGraph(g *graph.Graph) error {
	if g.N() != kit.n {
		return fmt.Errorf("core: graph has %d vertices, protocol built for %d", g.N(), kit.n)
	}
	return nil
}

// honestMapping is the completeness prover's mapping and root: the graph's
// cached non-trivial automorphism or, on an asymmetric graph where Merlin
// cannot win, the transposition (0 1), so that the protocol proceeds (and
// rejects). The root is the first vertex the mapping moves.
func (kit *symKit) honestMapping(art *setupcache.Artifacts) (perm.Perm, int) {
	rho := art.Automorphism()
	if rho == nil {
		rho = perm.Identity(kit.n)
		rho[0], rho[1] = 1, 0
	}
	return rho, rho.Moved()
}

// rootIndex decodes the hash index the root drew, which the prover echoes
// to every node.
func (kit *symKit) rootIndex(view *network.ProverView, root int) (*big.Int, error) {
	i, err := decodeBigChallenge(view.Challenges[0][root], kit.p)
	if err != nil {
		return nil, fmt.Errorf("core: prover challenge: %w", err)
	}
	return i, nil
}

// perNode assembles a Merlin response from one message per node.
func (kit *symKit) perNode(msg func(v int) wire.Message) *network.Response {
	resp := &network.Response{PerNode: make([]wire.Message, kit.n)}
	for v := range resp.PerNode {
		resp.PerNode[v] = msg(v)
	}
	return resp
}

// subtreeHashSums computes, for every node v, the honest subtree aggregates
//
//	a_v = Σ_{u∈T_v} h_i([u, N(u)])
//	b_v = Σ_{u∈T_v} h_i([ρ(u), ρ(N(u))])
//
// in post-order over the tree described by advice. The table of i comes
// from the run's memo (the ProverView's), where the verifiers find it.
func (kit *symKit) subtreeHashSums(memo *network.Memo, g *graph.Graph, i *big.Int, rho perm.Perm, advice []spantree.Advice) (a, b []*big.Int) {
	n := g.N()
	a = make([]*big.Int, n)
	b = make([]*big.Int, n)
	children := spantree.ChildLists(advice)
	tab := kit.rowTable(memo, i)
	closed := bitset.New(n)
	mapped := bitset.New(n)
	for _, v := range spantree.PostOrder(advice) {
		av := tab.Hash(v, g.ClosedRowInto(v, closed))
		closed.PermuteInto(mapped, rho)
		bv := tab.Hash(rho[v], mapped)
		for _, c := range children[v] {
			av = kit.family.AddModInto(av, a[c])
			bv = kit.family.AddModInto(bv, b[c])
		}
		a[v], b[v] = av, bv
	}
	return a, b
}
