package spantree

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dip/internal/graph"
	"dip/internal/wire"
)

// verifyAll runs every node's local test against the given advice on g.
func verifyAll(g *graph.Graph, advice []Advice) []bool {
	out := make([]bool, g.N())
	for v := 0; v < g.N(); v++ {
		nbrs := g.Neighbors(v)
		out[v] = VerifyLocal(v, advice[v], nbrs, adviceOf(advice, nbrs))
	}
	return out
}

// adviceOf returns the advice of nbrs, position by position.
func adviceOf(advice []Advice, nbrs []int) []Advice {
	out := make([]Advice, len(nbrs))
	for j, u := range nbrs {
		out[j] = advice[u]
	}
	return out
}

func allTrue(b []bool) bool {
	for _, x := range b {
		if !x {
			return false
		}
	}
	return true
}

func TestHonestAdviceAccepted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	graphs := []*graph.Graph{
		graph.Path(8),
		graph.Cycle(9),
		graph.Complete(5),
		graph.ConnectedGNP(20, 0.3, rng),
		graph.RandomTree(15, rng),
		graph.New(1),
	}
	for gi, g := range graphs {
		for root := 0; root < g.N(); root += 3 {
			advice, err := Compute(g, root)
			if err != nil {
				t.Fatalf("graph %d root %d: %v", gi, root, err)
			}
			if !allTrue(verifyAll(g, advice)) {
				t.Fatalf("graph %d root %d: honest advice rejected", gi, root)
			}
		}
	}
}

func TestComputeDisconnected(t *testing.T) {
	if _, err := Compute(graph.New(3), 0); err == nil {
		t.Fatal("disconnected graph accepted")
	}
}

func TestBadAdviceRejected(t *testing.T) {
	g := graph.Path(6)
	advice, err := Compute(g, 0)
	if err != nil {
		t.Fatal(err)
	}

	mutations := []struct {
		name   string
		mutate func(a []Advice)
	}{
		{"wrong root at one node", func(a []Advice) { a[3].Root = 5 }},
		{"non-neighbor parent", func(a []Advice) { a[3].Parent = 0 }},
		{"distance off by one", func(a []Advice) { a[3].Dist++ }},
		{"root nonzero distance", func(a []Advice) { a[0].Dist = 1 }},
		{"root not own parent", func(a []Advice) { a[0].Parent = 1 }},
		{"cycle via two roots", func(a []Advice) {
			// Claim two different roots in different parts.
			for v := 3; v < 6; v++ {
				a[v].Root = 5
			}
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			bad := append([]Advice(nil), advice...)
			m.mutate(bad)
			if allTrue(verifyAll(g, bad)) {
				t.Fatal("mutated advice accepted by all nodes")
			}
		})
	}
}

func TestForgedTreeOnCycle(t *testing.T) {
	// On a cycle, advice that makes parent pointers go around in a loop
	// must be rejected: distances cannot strictly decrease around a cycle.
	g := graph.Cycle(5)
	advice := make([]Advice, 5)
	for v := 0; v < 5; v++ {
		advice[v] = Advice{Root: 0, Parent: (v + 4) % 5, Dist: v}
	}
	// Node 0: parent 4, dist 0 — but it IS the claimed root, so parent
	// must be itself: rejected there; also edge 4->0 has dist 4 -> 0.
	if allTrue(verifyAll(g, advice)) {
		t.Fatal("cyclic parent pointers accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	n := 37
	a := Advice{Root: 36, Parent: 12, Dist: 20}
	var w wire.Writer
	a.Encode(&w, n)
	if w.Len() != Bits(n) {
		t.Fatalf("encoded %d bits, want %d", w.Len(), Bits(n))
	}
	got, err := Decode(wire.NewReader(w.Message()), n)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("round trip: %+v != %+v", got, a)
	}
}

func TestDecodeShort(t *testing.T) {
	var w wire.Writer
	w.WriteInt(1, 3)
	if _, err := Decode(wire.NewReader(w.Message()), 37); err == nil {
		t.Fatal("short advice accepted")
	}
}

func TestBitsIsLogarithmic(t *testing.T) {
	if Bits(256) != 24 || Bits(1024) != 30 {
		t.Fatalf("Bits(256)=%d Bits(1024)=%d", Bits(256), Bits(1024))
	}
}

func TestChildren(t *testing.T) {
	g := graph.Star(5) // center 0
	advice, err := Compute(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	nbrs := g.Neighbors(0)
	// Children are positions in the neighbor list, ascending.
	if kids := Children(0, nbrs, adviceOf(advice, nbrs)); !slices.Equal(kids, []int{0, 1, 2, 3}) {
		t.Fatalf("children of center = %v", kids)
	}
	// A leaf has no children.
	if got := Children(1, []int{0}, adviceOf(advice, []int{0})); len(got) != 0 {
		t.Fatalf("children of leaf = %v", got)
	}
}

func TestChildListsAndPostOrder(t *testing.T) {
	g := graph.Path(5)
	advice, err := Compute(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	children := ChildLists(advice)
	sort.Ints(children[2])
	if len(children[2]) != 2 {
		t.Fatalf("children of root = %v", children[2])
	}

	order := PostOrder(advice)
	if len(order) != 5 {
		t.Fatalf("post order has %d entries", len(order))
	}
	pos := make(map[int]int, 5)
	for i, v := range order {
		pos[v] = i
	}
	// Children must come before parents.
	for v, a := range advice {
		if a.Parent != v && pos[v] > pos[a.Parent] {
			t.Fatalf("node %d after its parent %d in post order", v, a.Parent)
		}
	}
	// The root is last.
	if order[len(order)-1] != 2 {
		t.Fatalf("root not last: %v", order)
	}
}
