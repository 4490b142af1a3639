package graph

import (
	"math/rand"
	"reflect"
	"testing"

	"dip/internal/perm"
)

func TestNewAndEdges(t *testing.T) {
	g := New(5)
	if g.N() != 5 || g.NumEdges() != 0 {
		t.Fatal("empty graph wrong")
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 4)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if g.HasEdge(0, 4) {
		t.Fatal("phantom edge")
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if got := g.Degree(1); got != 2 {
		t.Fatalf("Degree(1) = %d", got)
	}
	g.RemoveEdge(0, 1)
	if g.HasEdge(0, 1) {
		t.Fatal("edge not removed")
	}
	// Removing a non-edge is a no-op.
	g.RemoveEdge(0, 1)
}

func TestPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"negative n", func() { New(-1) }},
		{"self loop", func() { New(3).AddEdge(1, 1) }},
		{"edge out of range", func() { New(3).AddEdge(0, 3) }},
		{"relabel size", func() { New(3).Relabel(perm.Identity(4)) }},
		{"cycle too small", func() { Cycle(2) }},
		{"doubled empty", func() { Doubled(New(0), 0) }},
		{"doubled anchor", func() { Doubled(Path(3), 5) }},
		{"dumbbell mismatch", func() { LowerBoundDumbbell(Path(3), Path(4)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			tc.f()
		})
	}
}

func TestNeighborsAndRows(t *testing.T) {
	g := Path(4)
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("Neighbors(1) = %v", got)
	}
	open := g.OpenRow(1)
	if open.Contains(1) {
		t.Fatal("open row contains self")
	}
	closed := g.ClosedRow(1)
	if !closed.Contains(1) || !closed.Contains(0) || !closed.Contains(2) {
		t.Fatal("closed row wrong")
	}
	// Rows are copies.
	open.Add(3)
	if g.HasEdge(1, 3) {
		t.Fatal("OpenRow aliases internal state")
	}
}

func TestGenerators(t *testing.T) {
	if g := Path(5); g.NumEdges() != 4 || !g.IsConnected() {
		t.Fatal("Path wrong")
	}
	if g := Cycle(5); g.NumEdges() != 5 || g.Degree(0) != 2 {
		t.Fatal("Cycle wrong")
	}
	if g := Complete(5); g.NumEdges() != 10 {
		t.Fatal("Complete wrong")
	}
	if g := Star(5); g.NumEdges() != 4 || g.Degree(0) != 4 {
		t.Fatal("Star wrong")
	}
}

func TestGNP(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := GNP(50, 0.0, rng)
	if g.NumEdges() != 0 {
		t.Fatal("GNP(0) has edges")
	}
	g = GNP(50, 1.0, rng)
	if g.NumEdges() != 50*49/2 {
		t.Fatal("GNP(1) not complete")
	}
	g = GNP(100, 0.5, rng)
	// Expected 2475 edges; allow wide slack.
	if e := g.NumEdges(); e < 2000 || e > 3000 {
		t.Fatalf("GNP(0.5) edges = %d", e)
	}
	if !ConnectedGNP(20, 0.5, rng).IsConnected() {
		t.Fatal("ConnectedGNP not connected")
	}
}

func TestRandomTree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 10, 40} {
		g := RandomTree(n, rng)
		if g.N() != n {
			t.Fatalf("n=%d: wrong size", n)
		}
		if n > 0 && (g.NumEdges() != n-1 || !g.IsConnected()) {
			t.Fatalf("n=%d: not a tree: %d edges, connected=%v", n, g.NumEdges(), g.IsConnected())
		}
	}
}

func TestConnectivity(t *testing.T) {
	g := New(4)
	if g.IsConnected() {
		t.Fatal("edgeless graph on 4 vertices connected")
	}
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if g.IsConnected() {
		t.Fatal("two components connected")
	}
	g.AddEdge(1, 2)
	if !g.IsConnected() {
		t.Fatal("path not connected")
	}
	if !New(1).IsConnected() || !New(0).IsConnected() {
		t.Fatal("trivial graphs should be connected")
	}
}

func TestBFS(t *testing.T) {
	g := Path(5)
	d := g.BFSDistances(0, -1)
	if !reflect.DeepEqual(d, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("distances = %v", d)
	}
	parent, dist, err := g.BFSTree(2)
	if err != nil {
		t.Fatal(err)
	}
	if parent[2] != 2 || dist[2] != 0 {
		t.Fatal("root wrong")
	}
	if parent[0] != 1 || dist[0] != 2 {
		t.Fatalf("parent[0]=%d dist[0]=%d", parent[0], dist[0])
	}
	// Disconnected graph: error.
	if _, _, err := New(3).BFSTree(0); err == nil {
		t.Fatal("BFSTree on disconnected graph should error")
	}
}

func TestRelabelAndAutomorphism(t *testing.T) {
	g := Path(4)
	rot, _ := perm.FromSlice([]int{3, 2, 1, 0}) // reversal: automorphism of the path
	if !g.IsAutomorphism(rot) {
		t.Fatal("path reversal not automorphism")
	}
	if !g.Relabel(rot).Equal(g) {
		t.Fatal("relabel by automorphism changed graph")
	}
	shift, _ := perm.FromSlice([]int{1, 2, 3, 0})
	if g.IsAutomorphism(shift) {
		t.Fatal("shift is not an automorphism of the path")
	}
	if g.IsAutomorphism([]int{0, 0, 1, 2}) {
		t.Fatal("non-bijection accepted as automorphism")
	}
}

func TestAdjacencyBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		g := GNP(9, 0.4, rng)
		h, err := FromAdjacencyBits(9, g.AdjacencyBits())
		if err != nil {
			t.Fatal(err)
		}
		if !h.Equal(g) {
			t.Fatal("adjacency bits round trip failed")
		}
	}
	if _, err := FromAdjacencyBits(5, Path(4).AdjacencyBits()); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestDoubled(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := ConnectedGNP(7, 0.5, rng)
	g := Doubled(base, 0)
	if g.N() != 16 {
		t.Fatalf("N = %d", g.N())
	}
	if !g.IsConnected() {
		t.Fatal("doubled graph disconnected")
	}
	auto := DoubledAutomorphism(7)
	if !g.IsAutomorphism(auto) {
		t.Fatal("doubled automorphism rejected")
	}
	if auto.IsIdentity() {
		t.Fatal("doubled automorphism trivial")
	}
}

func TestDSymGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := ConnectedGNP(6, 0.5, rng)
	for _, r := range []int{0, 1, 3} {
		g := DSymGraph(f, r)
		if g.N() != 2*6+2*r+1 {
			t.Fatalf("r=%d: N = %d", r, g.N())
		}
		if !IsDSym(g, 6, r) {
			t.Fatalf("r=%d: constructed graph not in DSym", r)
		}
		sigma := DSymAutomorphism(6, r)
		if !g.IsAutomorphism(sigma) {
			t.Fatalf("r=%d: sigma not an automorphism", r)
		}
		// Perturbations leave the language.
		bad := g.Clone()
		bad.AddEdge(1, 2*6) // stray edge from side-A interior to a path node
		if IsDSym(bad, 6, r) {
			t.Fatalf("r=%d: stray edge accepted", r)
		}
		bad2 := g.Clone()
		bad2.RemoveEdge(0, 12) // break the path start (2n = 12)
		if IsDSym(bad2, 6, r) {
			t.Fatalf("r=%d: broken path accepted", r)
		}
	}
	if IsDSym(Path(5), 6, 1) {
		t.Fatal("wrong size accepted")
	}
}

func TestLowerBoundDumbbell(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	fA, err := RandomAsymmetricConnected(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	fB, err := RandomAsymmetricConnected(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	for AreIsomorphic(fA, fB) {
		fB, err = RandomAsymmetricConnected(6, rng)
		if err != nil {
			t.Fatal(err)
		}
	}

	same := LowerBoundDumbbell(fA, fA)
	if FindNontrivialAutomorphism(same) == nil {
		t.Fatal("G(F,F) should be symmetric")
	}
	diff := LowerBoundDumbbell(fA, fB)
	if a := FindNontrivialAutomorphism(diff); a != nil {
		t.Fatalf("G(F_A,F_B) with F_A ≠ F_B should be asymmetric, found %v", a)
	}
	if !diff.IsConnected() || !same.IsConnected() {
		t.Fatal("dumbbells should be connected")
	}
}

func TestDisjointUnion(t *testing.T) {
	g := DisjointUnion(Path(3), Cycle(3))
	if g.N() != 6 || g.NumEdges() != 5 {
		t.Fatalf("union: n=%d e=%d", g.N(), g.NumEdges())
	}
	if g.IsConnected() {
		t.Fatal("disjoint union connected")
	}
	if !g.HasEdge(3, 4) || g.HasEdge(2, 3) {
		t.Fatal("edges misplaced")
	}
}

func TestRandomAsymmetricConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	if _, err := RandomAsymmetricConnected(5, rng); err == nil {
		t.Fatal("n=5 should error")
	}
	g, err := RandomAsymmetricConnected(8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected() || !IsAsymmetric(g) {
		t.Fatal("not asymmetric connected")
	}
}

func TestDegreeSequence(t *testing.T) {
	g := Star(4)
	if got := g.DegreeSequence(); !reflect.DeepEqual(got, []int{1, 1, 1, 3}) {
		t.Fatalf("DegreeSequence = %v", got)
	}
}

func TestShuffle(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := ConnectedGNP(8, 0.5, rng)
	h, p := g.Shuffle(rng)
	if !g.Relabel(p).Equal(h) {
		t.Fatal("Shuffle permutation inconsistent")
	}
	if !AreIsomorphic(g, h) {
		t.Fatal("shuffled copy not isomorphic")
	}
}

func TestString(t *testing.T) {
	g := Path(3)
	if got := g.String(); got != "n=3; edges=[0-1 1-2]" {
		t.Fatalf("String = %q", got)
	}
}
