// Package spantree implements the spanning-tree proof-labeling scheme of
// Korman, Kutten and Peleg ("Proof labeling schemes", Distributed Computing
// 2010) — reference [23] of the paper — which every protocol in this module
// uses as a building block: the prover describes a spanning tree by giving
// each node its parent and its distance from the root, and purely local
// checks guarantee global tree-ness.
//
// The scheme: each node v receives advice (root, parent t_v, distance d_v).
// Node v accepts iff
//
//   - its root field equals each neighbor's root field (so, on a connected
//     graph, all nodes agree on the root);
//   - if v is the root: t_v = v and d_v = 0;
//   - otherwise: t_v ∈ N(v) and d_{t_v} = d_v - 1.
//
// If every node accepts, the parent pointers form a spanning tree rooted at
// the agreed root: distances strictly decrease along parent pointers, so
// following them from any node must terminate at the root. The advice is
// 3·ceil(log2 n) bits — the Θ(log n) of [23].
package spantree

import (
	"fmt"
	"slices"

	"dip/internal/graph"
	"dip/internal/wire"
)

// Advice is one node's spanning-tree label.
type Advice struct {
	Root   int // the root all nodes must agree on
	Parent int // v's parent in the tree; the root is its own parent
	Dist   int // v's distance from the root
}

// Bits returns the exact advice length in bits for an n-vertex graph.
func Bits(n int) int {
	return 3 * wire.WidthFor(n)
}

// Encode appends the advice to w using exactly Bits(n) bits.
func (a Advice) Encode(w *wire.Writer, n int) {
	width := wire.WidthFor(n)
	w.WriteInt(a.Root, width)
	w.WriteInt(a.Parent, width)
	w.WriteInt(a.Dist, width)
}

// Decode reads advice written by Encode.
func Decode(r *wire.Reader, n int) (Advice, error) {
	width := wire.WidthFor(n)
	var a Advice
	var err error
	if a.Root, err = r.ReadInt(width); err != nil {
		return Advice{}, fmt.Errorf("spantree root: %w", err)
	}
	if a.Parent, err = r.ReadInt(width); err != nil {
		return Advice{}, fmt.Errorf("spantree parent: %w", err)
	}
	if a.Dist, err = r.ReadInt(width); err != nil {
		return Advice{}, fmt.Errorf("spantree dist: %w", err)
	}
	return a, nil
}

// Compute returns the honest advice for every node: a BFS tree of g rooted
// at root. It fails if g is not connected.
func Compute(g *graph.Graph, root int) ([]Advice, error) {
	parent, dist, err := g.BFSTree(root)
	if err != nil {
		return nil, err
	}
	advice := make([]Advice, g.N())
	for v := range advice {
		advice[v] = Advice{Root: root, Parent: parent[v], Dist: dist[v]}
	}
	return advice, nil
}

// VerifyLocal runs node v's local acceptance test given its own advice and
// its neighbors': nbrs lists N(v) ascending and advice[j] is the advice of
// nbrs[j].
func VerifyLocal(v int, mine Advice, nbrs []int, advice []Advice) bool {
	for _, a := range advice {
		if a.Root != mine.Root {
			return false
		}
	}
	if v == mine.Root {
		return mine.Parent == v && mine.Dist == 0
	}
	j, ok := slices.BinarySearch(nbrs, mine.Parent)
	return ok && advice[j].Dist == mine.Dist-1
}

// Children returns the tree children of v among its neighbors: the
// positions j, ascending, of the neighbors nbrs[j] whose parent pointer
// (advice[j]) is v. This is the set C(v) of Protocols 1 and 2.
func Children(v int, nbrs []int, advice []Advice) []int {
	var out []int
	for j, a := range advice {
		// the root points to itself; it is nobody's child
		if a.Parent == v && a.Parent != nbrs[j] {
			out = append(out, j)
		}
	}
	return out
}

// ChildLists derives, for the honest prover, the children of every node
// from a full advice assignment.
func ChildLists(advice []Advice) [][]int {
	children := make([][]int, len(advice))
	for v, a := range advice {
		if a.Parent != v {
			children[a.Parent] = append(children[a.Parent], v)
		}
	}
	return children
}

// PostOrder returns the vertices of the tree described by advice in
// post-order (children before parents), which is the evaluation order for
// subtree aggregates like the hash sums of Protocol 1.
func PostOrder(advice []Advice) []int {
	children := ChildLists(advice)
	root := -1
	for v, a := range advice {
		if a.Parent == v {
			root = v
			break
		}
	}
	order := make([]int, 0, len(advice))
	var visit func(v int)
	visit = func(v int) {
		for _, c := range children[v] {
			visit(c)
		}
		order = append(order, v)
	}
	if root >= 0 {
		visit(root)
	}
	return order
}
