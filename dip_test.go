package dip

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"dip/internal/core"
	"dip/internal/graph"
)

// edgesOf converts an internal graph to the facade's edge-list form.
func edgesOf(g *graph.Graph) [][2]int {
	return g.Edges()
}

func TestProveSymmetryOnCycle(t *testing.T) {
	g := graph.Cycle(8)
	rep, err := Run(Request{Protocol: "sym-dmam", N: 8, Edges: edgesOf(g), Options: Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Fatal("cycle not proven symmetric")
	}
	if rep.Protocol != "sym-dmam" {
		t.Fatalf("protocol = %q", rep.Protocol)
	}
	if rep.MaxProverBits <= 0 || rep.TotalProverBits < rep.MaxProverBits {
		t.Fatalf("cost accounting wrong: %+v", rep)
	}
	if len(rep.Decisions) != 8 {
		t.Fatal("per-node decisions missing")
	}
}

func TestProveSymmetryRejectsAsymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := graph.RandomAsymmetricConnected(8, rng)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(Request{Protocol: "sym-dmam", N: 8, Edges: edgesOf(g), Options: Options{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted {
		t.Fatal("asymmetric graph proven symmetric")
	}
}

func TestProveSymmetryChallengeFirst(t *testing.T) {
	g := graph.Complete(6)
	rep, err := Run(Request{Protocol: "sym-dam", N: 6, Edges: edgesOf(g), Options: Options{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Fatal("K6 not proven symmetric")
	}
}

func TestProveDumbbellSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := graph.ConnectedGNP(6, 0.5, rng)
	g := graph.DSymGraph(f, 1)
	rep, err := Run(Request{Protocol: "dsym-dam", Side: 6, Half: 1, Edges: edgesOf(g), Options: Options{Seed: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Fatal("DSym instance rejected")
	}
}

func TestProveNonIsomorphism(t *testing.T) {
	if testing.Short() {
		t.Skip("GNI run is slow")
	}
	rng := rand.New(rand.NewSource(5))
	a, err := graph.RandomAsymmetricConnected(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := graph.RandomAsymmetricConnected(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	for graph.AreIsomorphic(a, b) {
		if b, err = graph.RandomAsymmetricConnected(6, rng); err != nil {
			t.Fatal(err)
		}
	}
	req := Request{Protocol: "gni-damam", N: 6, Edges: edgesOf(a), Edges1: edgesOf(b),
		Options: Options{Seed: 5, Repetitions: 30}}
	rep, err := Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Protocol != "gni-damam" {
		t.Fatalf("protocol = %q", rep.Protocol)
	}
	// A single run accepts with probability well above 1/2 on a yes
	// instance; retry a couple of seeds to keep the test robust.
	accepted := rep.Accepted
	for s := int64(6); !accepted && s < 9; s++ {
		req.Options.Seed = s
		rep, err = Run(req)
		if err != nil {
			t.Fatal(err)
		}
		accepted = rep.Accepted
	}
	if !accepted {
		t.Fatal("non-isomorphic pair never accepted across 4 seeds")
	}
}

func TestBaselines(t *testing.T) {
	bits, err := SymmetryAdviceBits(64)
	if err != nil {
		t.Fatal(err)
	}
	if bits < 64*63/2 {
		t.Fatalf("baseline advice %d not quadratic", bits)
	}
	g := graph.Star(6)
	rep, err := Run(Request{Protocol: "sym-lcp", N: 6, Edges: edgesOf(g)})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Fatal("LCP rejected star")
	}
}

func TestGroundTruthHelpers(t *testing.T) {
	sym, err := IsSymmetric(8, edgesOf(graph.Cycle(8)))
	if err != nil || !sym {
		t.Fatalf("IsSymmetric(C8) = %v, %v", sym, err)
	}
	iso, err := AreIsomorphic(4, edgesOf(graph.Path(4)), edgesOf(graph.Path(4)))
	if err != nil || !iso {
		t.Fatalf("AreIsomorphic = %v, %v", iso, err)
	}
	iso, err = AreIsomorphic(4, edgesOf(graph.Path(4)), edgesOf(graph.Star(4)))
	if err != nil || iso {
		t.Fatalf("P4 ≅ S4 reported: %v, %v", iso, err)
	}
}

func TestBuildGraphValidation(t *testing.T) {
	if _, err := Run(Request{Protocol: "sym-dmam", N: 0}); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := Run(Request{Protocol: "sym-dmam", N: 3, Edges: [][2]int{{0, 3}}}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := Run(Request{Protocol: "sym-dmam", N: 3, Edges: [][2]int{{1, 1}}}); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := AreIsomorphic(3, nil, [][2]int{{9, 1}}); err == nil {
		t.Fatal("bad second edge list accepted")
	}
}

// TestRunCapsVertices: a request one vertex past MaxVertices is a
// RequestError naming the cap, answered before the graph's adjacency rows
// are allocated (building them would take over a thousand allocations).
func TestRunCapsVertices(t *testing.T) {
	req := Request{Protocol: "sym-dmam", N: MaxVertices + 1, Edges: [][2]int{{0, 1}}}
	var err error
	allocs := testing.AllocsPerRun(3, func() { _, err = Run(req) })
	var reqErr *RequestError
	if !errors.As(err, &reqErr) || !strings.Contains(err.Error(), "cap of 1024 vertices") {
		t.Fatalf("n=%d returned %v, want a RequestError naming the cap", req.N, err)
	}
	if allocs > 20 {
		t.Fatalf("rejecting n=%d took %.0f allocations", req.N, allocs)
	}
}

func TestProveNonIsomorphismGeneralOnSymmetricGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("general GNI run is slow")
	}
	c6 := graph.Cycle(6)
	k33 := graph.New(6)
	for u := 0; u < 3; u++ {
		for v := 3; v < 6; v++ {
			k33.AddEdge(u, v)
		}
	}
	rep, err := Run(Request{Protocol: "gni-general", N: 6, Edges: edgesOf(c6), Edges1: edgesOf(k33),
		Options: Options{Seed: 9, Repetitions: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Protocol != "gni-general" {
		t.Fatalf("protocol = %q", rep.Protocol)
	}
	if !rep.Accepted {
		t.Fatal("symmetric non-isomorphic pair rejected")
	}
	// Isomorphic symmetric pair must be rejected.
	rep, err = Run(Request{Protocol: "gni-general", N: 6, Edges: edgesOf(c6), Edges1: edgesOf(graph.Cycle(6)),
		Options: Options{Seed: 10, Repetitions: 50}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted {
		t.Fatal("isomorphic pair accepted")
	}
}

func TestProveSymmetryFingerprinted(t *testing.T) {
	ring := graph.Cycle(24)
	full, err := Run(Request{Protocol: "sym-lcp", N: 24, Edges: edgesOf(ring), Options: Options{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := Run(Request{Protocol: "sym-rpls", N: 24, Edges: edgesOf(ring), Options: Options{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Accepted || !fp.Accepted {
		t.Fatal("honest runs rejected")
	}
	if fp.MaxNodeToNodeBits*2 >= full.MaxNodeToNodeBits {
		t.Fatalf("fingerprinting saved too little: %d vs %d",
			fp.MaxNodeToNodeBits, full.MaxNodeToNodeBits)
	}
}

func TestProveInducedNonIsomorphism(t *testing.T) {
	if testing.Short() {
		t.Skip("marked GNI run is slow")
	}
	rng := rand.New(rand.NewSource(20))
	a, err := graph.RandomAsymmetricConnected(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	var b *graph.Graph
	for {
		if b, err = graph.RandomAsymmetricConnected(6, rng); err != nil {
			t.Fatal(err)
		}
		if !graph.AreIsomorphic(a, b) {
			break
		}
	}
	// Assemble: a on 0..5 (mark 0), b on 6..11 (mark 1), hub 12 (⊥).
	n := 13
	var edges [][2]int
	marks := make([]int, n)
	for v := 0; v < 6; v++ {
		marks[v] = 0
		marks[v+6] = 1
	}
	marks[12] = -1
	for _, e := range a.Edges() {
		edges = append(edges, e)
	}
	for _, e := range b.Edges() {
		edges = append(edges, [2]int{e[0] + 6, e[1] + 6})
	}
	for v := 0; v < 12; v++ {
		edges = append(edges, [2]int{v, 12})
	}
	rep, err := Run(Request{Protocol: "gni-marked", N: n, Edges: edges, Marks: marks,
		Options: Options{Seed: 21, Repetitions: 40}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Protocol != "gni-marked" {
		t.Fatalf("protocol = %q", rep.Protocol)
	}
	if !rep.Accepted {
		t.Fatal("non-isomorphic induced pair rejected")
	}

	// Validation paths.
	if _, err := Run(Request{Protocol: "gni-marked", N: 2, Marks: []int{0}}); err == nil {
		t.Fatal("mark count mismatch accepted")
	}
	if _, err := Run(Request{Protocol: "gni-marked", N: 2, Marks: []int{0, 7}}); err == nil {
		t.Fatal("invalid mark accepted")
	}
}

// TestMarkedUnequalSetsRejected pins that a marking whose two marked sets
// differ in size is refused as the caller's error before a run starts,
// not left to the honest prover to fail mid-run.
func TestMarkedUnequalSetsRejected(t *testing.T) {
	path := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}}
	_, err := Run(Request{Protocol: "gni-marked", N: 7, Edges: path, Marks: []int{0, 0, 0, 1, 1, 1, 1}})
	var reqErr *RequestError
	if !errors.As(err, &reqErr) || !strings.Contains(err.Error(), "sizes 3 and 4") {
		t.Fatalf("err = %v, want a RequestError naming the set sizes", err)
	}
}

// TestGNISearchBound pins the bound on the GS provers' brute-force
// search: a request whose hashed graph has more than 8 vertices (n for
// gni-damam and gni-general, k for gni-marked) is refused as the caller's
// error while the protocol is built, before any prover runs. Without the
// bound, each honest prover would enumerate 9! permutations per
// repetition, and a run's deadline cannot stop it.
func TestGNISearchBound(t *testing.T) {
	c9 := edgesOf(graph.Cycle(9))
	path18 := edgesOf(graph.Path(18))
	marks := make([]int, 18)
	for v := 9; v < 18; v++ {
		marks[v] = 1
	}
	for _, req := range []Request{
		{Protocol: "gni-damam", N: 9, Edges: c9, Edges1: c9},
		{Protocol: "gni-general", N: 9, Edges: c9, Edges1: c9},
		{Protocol: "gni-marked", N: 18, Edges: path18, Marks: marks},
	} {
		req.Options.Repetitions = 1
		_, err := Run(req)
		var reqErr *RequestError
		if !errors.As(err, &reqErr) || !strings.Contains(err.Error(), "9 vertices > 8") {
			t.Fatalf("%s: err = %v, want a RequestError naming the bound", req.Protocol, err)
		}
	}
}

// TestRepetitionsValidation pins the shared repetition-count resolution:
// negatives are rejected up front with a clear error (for every protocol:
// see TestRunRejectsUnusedFields), zero selects the library-wide default
// (which dipsim's -k flag shares).
func TestRepetitionsValidation(t *testing.T) {
	edges := [][2]int{{0, 1}, {1, 2}}
	_, err := Run(Request{Protocol: "gni-damam", N: 3, Edges: edges, Edges1: edges,
		Options: Options{Repetitions: -1}})
	if err == nil || !strings.Contains(err.Error(), "must be non-negative") {
		t.Fatalf("negative Repetitions returned %v, want validation error", err)
	}
	if _, err := Run(Request{Protocol: "gni-general", N: 3, Edges: edges, Edges1: edges,
		Options: Options{Repetitions: -7}}); err == nil {
		t.Fatal("negative Repetitions accepted by gni-general")
	}
	if _, err := Run(Request{Protocol: "gni-marked", N: 3, Edges: edges, Marks: []int{0, 1, -1},
		Options: Options{Repetitions: -7}}); err == nil {
		t.Fatal("negative Repetitions accepted by gni-marked")
	}
	_, err = Run(Request{Protocol: "gni-damam", N: 3, Edges: edges, Edges1: edges,
		Options: Options{Repetitions: MaxRepetitions + 1}})
	var reqErr *RequestError
	if !errors.As(err, &reqErr) || !strings.Contains(err.Error(), "cap of 1000") {
		t.Fatalf("Repetitions one past the cap returned %v, want a RequestError naming the cap", err)
	}
	if k := resolveRepetitions(0); k != core.DefaultGNIRepetitions {
		t.Fatalf("resolveRepetitions(0) = %d; want the shared default %d", k, core.DefaultGNIRepetitions)
	}
	if k := resolveRepetitions(12); k != 12 {
		t.Fatalf("resolveRepetitions(12) = %d", k)
	}
}
