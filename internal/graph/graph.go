// Package graph implements undirected graphs on the vertex set {0,...,n-1},
// together with the generators and the isomorphism/automorphism machinery
// the paper's protocols depend on.
//
// Conventions follow Section 2 of the paper: N(v) denotes the *closed*
// neighborhood of v (including v itself), and the adjacency matrix used by
// the Sym protocols is the closed-neighborhood matrix Σ_v [v, N(v)], i.e.
// the adjacency matrix with self-loops on every vertex.
package graph

import (
	"fmt"
	"math/rand"
	"strings"

	"dip/internal/bitset"
	"dip/internal/perm"
)

// Graph is a simple undirected graph on vertices {0,...,n-1}. The zero value
// is the empty graph on zero vertices; use New for a graph with vertices.
type Graph struct {
	n    int
	rows []*bitset.Set // rows[v] = open neighborhood of v (no self-loop)
}

// New returns an edgeless graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	g := &Graph{n: n, rows: make([]*bitset.Set, n)}
	for v := range g.rows {
		g.rows[v] = bitset.New(n)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// checkVertex panics if v is not a vertex.
func (g *Graph) checkVertex(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range [0,%d)", v, g.n))
	}
}

// AddEdge adds the undirected edge {u, v}. Self-loops are rejected: the
// closed-neighborhood convention supplies the diagonal implicitly.
func (g *Graph) AddEdge(u, v int) {
	g.checkVertex(u)
	g.checkVertex(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	g.rows[u].Add(v)
	g.rows[v].Add(u)
}

// RemoveEdge removes the undirected edge {u, v} if present.
func (g *Graph) RemoveEdge(u, v int) {
	g.checkVertex(u)
	g.checkVertex(v)
	g.rows[u].Remove(v)
	g.rows[v].Remove(u)
}

// HasEdge reports whether {u, v} is an edge. HasEdge(v, v) is false.
func (g *Graph) HasEdge(u, v int) bool {
	g.checkVertex(u)
	g.checkVertex(v)
	return g.rows[u].Contains(v)
}

// Degree returns the number of neighbors of v (excluding v itself).
func (g *Graph) Degree(v int) int {
	g.checkVertex(v)
	return g.rows[v].Count()
}

// NumEdges returns the number of edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, r := range g.rows {
		total += r.Count()
	}
	return total / 2
}

// Neighbors returns the open neighborhood of v as a slice of vertices.
func (g *Graph) Neighbors(v int) []int {
	g.checkVertex(v)
	return g.rows[v].Indices()
}

// AppendNeighbors appends v's neighbors to buf in ascending order and
// returns the extended slice. It is the allocation-free variant of
// Neighbors for callers that snapshot many adjacency lists into one
// buffer (the proof engine does this once per run).
func (g *Graph) AppendNeighbors(v int, buf []int) []int {
	g.checkVertex(v)
	row := g.rows[v]
	for u := row.NextSet(0); u >= 0; u = row.NextSet(u + 1) {
		buf = append(buf, u)
	}
	return buf
}

// OpenRow returns the open neighborhood of v as a bit vector. The returned
// set is a copy and safe to mutate.
func (g *Graph) OpenRow(v int) *bitset.Set {
	g.checkVertex(v)
	return g.rows[v].Clone()
}

// ClosedRow returns the closed neighborhood N(v) of the paper: the open
// neighborhood plus v itself, as a bit vector. This is the row [v, N(v)]
// contributed by node v to the adjacency matrix in Protocols 1 and 2.
func (g *Graph) ClosedRow(v int) *bitset.Set {
	r := g.OpenRow(v)
	r.Add(v)
	return r
}

// ClosedRowInto is ClosedRow writing into a caller-provided scratch set
// of length N, for loops that hash many rows and want to reuse one buffer.
// Returns dst.
func (g *Graph) ClosedRowInto(v int, dst *bitset.Set) *bitset.Set {
	g.checkVertex(v)
	dst.CopyFrom(g.rows[v])
	dst.Add(v)
	return dst
}

// ContentHash folds the labeled graph's content (vertex count plus every
// adjacency row) into a 64-bit FNV-1a style digest without allocating.
// Equal graphs hash equally; the setup cache uses the digest as a lookup
// key and re-verifies candidates with Equal, so collisions cost a rebuild,
// never a wrong answer.
func (g *Graph) ContentHash() uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	h ^= uint64(g.n)
	h *= fnvPrime
	for _, r := range g.rows {
		h = r.AppendHash(h)
	}
	return h
}

// Clone returns an independent copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{n: g.n, rows: make([]*bitset.Set, g.n)}
	for v, r := range g.rows {
		c.rows[v] = r.Clone()
	}
	return c
}

// Equal reports whether g and h are the same labeled graph.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n {
		return false
	}
	for v := range g.rows {
		if !g.rows[v].Equal(h.rows[v]) {
			return false
		}
	}
	return true
}

// Edges returns all edges as pairs (u, v) with u < v, in lexicographic order.
func (g *Graph) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < g.n; u++ {
		for v := g.rows[u].NextSet(u + 1); v >= 0; v = g.rows[u].NextSet(v + 1) {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// Relabel returns the graph ρ(G): vertex v of g becomes vertex ρ(v). If ρ is
// an automorphism of g, Relabel returns a graph equal to g.
func (g *Graph) Relabel(rho perm.Perm) *Graph {
	if rho.N() != g.n {
		panic(fmt.Sprintf("graph: relabeling size %d for graph of %d vertices", rho.N(), g.n))
	}
	h := New(g.n)
	for _, e := range g.Edges() {
		h.AddEdge(rho[e[0]], rho[e[1]])
	}
	return h
}

// IsAutomorphism reports whether rho (given as a plain mapping, which need
// not be a bijection) is an automorphism of g: a permutation with
// {u,v} ∈ E ⟺ {rho(u), rho(v)} ∈ E.
func (g *Graph) IsAutomorphism(rho []int) bool {
	if len(rho) != g.n || !perm.IsValid(rho) {
		return false
	}
	for u := 0; u < g.n; u++ {
		for v := g.rows[u].NextSet(u + 1); v >= 0; v = g.rows[u].NextSet(v + 1) {
			if !g.rows[rho[u]].Contains(rho[v]) {
				return false
			}
		}
	}
	// A permutation preserving all edges preserves the edge count, and
	// therefore preserves non-edges too; the one-directional check suffices.
	return true
}

// IsConnected reports whether g is connected (the empty graph and the
// 1-vertex graph count as connected).
func (g *Graph) IsConnected() bool {
	if g.n <= 1 {
		return true
	}
	return g.reachableCount(0) == g.n
}

func (g *Graph) reachableCount(src int) int {
	seen := bitset.New(g.n)
	seen.Add(src)
	queue := []int{src}
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := g.rows[u].NextSet(0); v >= 0; v = g.rows[u].NextSet(v + 1) {
			if !seen.Contains(v) {
				seen.Add(v)
				count++
				queue = append(queue, v)
			}
		}
	}
	return count
}

// BFSDistances returns d[v] = distance from src to v, with -1 for
// unreachable vertices. If limit >= 0, the search stops once distances
// exceed limit.
func (g *Graph) BFSDistances(src, limit int) []int {
	g.checkVertex(src)
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if limit >= 0 && dist[u] >= limit {
			continue
		}
		for v := g.rows[u].NextSet(0); v >= 0; v = g.rows[u].NextSet(v + 1) {
			if dist[v] == -1 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// BFSTree returns a spanning tree of g rooted at root, as (parent, dist)
// arrays with parent[root] = root. It returns an error if g is not
// connected: a spanning tree must reach every vertex.
func (g *Graph) BFSTree(root int) (parent, dist []int, err error) {
	g.checkVertex(root)
	dist = g.BFSDistances(root, -1)
	parent = make([]int, g.n)
	for v := range parent {
		parent[v] = -1
	}
	parent[root] = root
	for v := 0; v < g.n; v++ {
		if v == root {
			continue
		}
		if dist[v] == -1 {
			return nil, nil, fmt.Errorf("graph: vertex %d unreachable from root %d", v, root)
		}
		for u := g.rows[v].NextSet(0); u >= 0; u = g.rows[v].NextSet(u + 1) {
			if dist[u] == dist[v]-1 {
				parent[v] = u
				break
			}
		}
	}
	return parent, dist, nil
}

// DegreeSequence returns the sorted-ascending degree sequence.
func (g *Graph) DegreeSequence() []int {
	seq := make([]int, g.n)
	for v := range seq {
		seq[v] = g.Degree(v)
	}
	insertionSort(seq)
	return seq
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// AdjacencyBits packs the upper triangle of the adjacency matrix into a
// bitset: bit index(u,v) for u < v. Two labeled graphs are equal iff their
// AdjacencyBits are equal; the packing is the graph's wire format and the
// canonical-form key.
func (g *Graph) AdjacencyBits() *bitset.Set {
	m := g.n * (g.n - 1) / 2
	out := bitset.New(m)
	idx := 0
	for u := 0; u < g.n; u++ {
		for v := u + 1; v < g.n; v++ {
			if g.rows[u].Contains(v) {
				out.Add(idx)
			}
			idx++
		}
	}
	return out
}

// FromAdjacencyBits reconstructs a graph on n vertices from the packing
// produced by AdjacencyBits.
func FromAdjacencyBits(n int, bits *bitset.Set) (*Graph, error) {
	if want := n * (n - 1) / 2; bits.Len() != want {
		return nil, fmt.Errorf("graph: adjacency packing of %d bits for n=%d, want %d", bits.Len(), n, want)
	}
	g := New(n)
	idx := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if bits.Contains(idx) {
				g.AddEdge(u, v)
			}
			idx++
		}
	}
	return g, nil
}

// String renders the graph as "n=...; edges=[...]".
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d; edges=[", g.n)
	for i, e := range g.Edges() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d-%d", e[0], e[1])
	}
	b.WriteByte(']')
	return b.String()
}

// Shuffle returns an isomorphic copy of g under a uniformly random
// relabeling, together with the relabeling used.
func (g *Graph) Shuffle(rng *rand.Rand) (*Graph, perm.Perm) {
	p := perm.Random(g.n, rng)
	return g.Relabel(p), p
}
