package core

import (
	"math/rand"
	"testing"

	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/wire"
)

// markedInstance builds a connected n-node network containing two induced
// k-vertex subgraphs: a copy of a (marked 0) and of b (marked 1), joined
// through ⊥-marked hub nodes (so no stray same-mark edges are introduced),
// plus a few cross-mark edges for realism.
func markedInstance(a, b *graph.Graph, hubs int, rng *rand.Rand) (*graph.Graph, []Mark) {
	k := a.N()
	n := 2*k + hubs
	g := graph.New(n)
	marks := make([]Mark, n)
	for v := 0; v < k; v++ {
		marks[v] = MarkZero
		marks[v+k] = MarkOne
	}
	for v := 2 * k; v < n; v++ {
		marks[v] = MarkNone
	}
	for _, e := range a.Edges() {
		g.AddEdge(e[0], e[1])
	}
	for _, e := range b.Edges() {
		g.AddEdge(e[0]+k, e[1]+k)
	}
	// Hubs connect everything (⊥–marked edges do not touch the induced
	// subgraphs).
	for v := 0; v < 2*k; v++ {
		g.AddEdge(v, 2*k+v%hubs)
	}
	for h := 1; h < hubs; h++ {
		g.AddEdge(2*k, 2*k+h)
	}
	// Cross-mark edges are irrelevant to both induced subgraphs.
	for i := 0; i < k; i++ {
		if rng.Intn(2) == 0 {
			g.AddEdge(rng.Intn(k), k+rng.Intn(k))
		}
	}
	return g, marks
}

func TestMarkedGNIValidation(t *testing.T) {
	if _, err := NewMarkedGNI(10, 2, 5, 0); err == nil {
		t.Fatal("k=2 accepted")
	}
	if _, err := NewMarkedGNI(5, 3, 5, 0); err == nil {
		t.Fatal("n < 2k accepted")
	}
	if _, err := NewMarkedGNI(14, 6, 0, 0); err == nil {
		t.Fatal("reps=0 accepted")
	}
	if _, err := NewMarkedGNI(18, maxHashedVertices+1, 1, 0); err == nil {
		t.Fatal("k above the search bound accepted")
	}
	proto, err := NewMarkedGNI(14, 6, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if proto.N() != 14 || proto.K() != 6 || proto.Reps() != 10 {
		t.Fatal("accessors wrong")
	}
	if th := proto.Threshold(); th < 1 || th > 10 {
		t.Fatalf("threshold %d", th)
	}
}

func TestEncodeMarks(t *testing.T) {
	msgs, err := EncodeMarks([]Mark{MarkZero, MarkOne, MarkNone})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []Mark{MarkZero, MarkOne, MarkNone} {
		got, err := decodeMark(msgs[i])
		if err != nil || got != want {
			t.Fatalf("mark %d: got %v, %v", i, got, err)
		}
	}
	if _, err := EncodeMarks([]Mark{Mark(7)}); err == nil {
		t.Fatal("invalid mark accepted")
	}
}

func TestMarkedGNISeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("marked GNI separation is slow")
	}
	rng := rand.New(rand.NewSource(95))
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
	bShuffled, _ := b.Shuffle(rng)
	aShuffled, _ := a.Shuffle(rng)

	const hubs = 3
	gYes, marksYes := markedInstance(a, bShuffled, hubs, rng)
	gNo, marksNo := markedInstance(a, aShuffled, hubs, rng)

	proto, err := NewMarkedGNI(gYes.N(), 6, 60, 95)
	if err != nil {
		t.Fatal(err)
	}
	run := func(g *graph.Graph, marks []Mark, seed0 int64, trials int) float64 {
		accepts := 0
		for i := 0; i < trials; i++ {
			res, err := proto.Run(g, marks, proto.HonestProver(), seed0+int64(i))
			if err != nil {
				t.Fatal(err)
			}
			if res.Accepted {
				accepts++
			}
		}
		return float64(accepts) / float64(trials)
	}
	yesRate := run(gYes, marksYes, 100, 8)
	noRate := run(gNo, marksNo, 200, 8)
	t.Logf("marked GNI: yes %.2f, no %.2f (threshold %d/%d)",
		yesRate, noRate, proto.Threshold(), proto.Reps())
	if yesRate <= 1.0/3 {
		t.Fatalf("yes rate %.2f too low", yesRate)
	}
	if noRate >= 1.0/3 {
		t.Fatalf("no rate %.2f too high", noRate)
	}
}

func TestMarkedGNIWrongSetSizeRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(96))
	a, err := graph.RandomAsymmetricConnected(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, marks := markedInstance(a, a.Clone(), 3, rng)
	// Remove one node from the 1-marked set: sizes now differ from k.
	marks[6+3] = MarkNone
	proto, err := NewMarkedGNI(g.N(), 6, 5, 96)
	if err != nil {
		t.Fatal(err)
	}
	// The honest prover refuses to build a proof for the wrong set size.
	if _, err := proto.Run(g, marks, proto.HonestProver(), 1); err == nil {
		t.Fatal("expected prover error for mismatched set sizes")
	}
	// A prover that lies about the counts is caught by the aggregation.
	inner := &markedProver{proto: proto}
	lying := proverFunc(func(round int, view *network.ProverView) (*network.Response, error) {
		// Re-mark the node in the prover's view to fake the right size.
		fixed := make([]wire.Message, len(view.Inputs))
		copy(fixed, view.Inputs)
		var w wire.Writer
		w.WriteInt(int(MarkOne), 2)
		fixed[9] = w.Message()
		return inner.Respond(round, &network.ProverView{
			Graph: view.Graph, Inputs: fixed, Challenges: view.Challenges,
		})
	})
	res, err := proto.Run(g, marks, lying, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("count-faking prover accepted")
	}
}

func TestMarkedGNICostScalesWithNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	a, err := graph.RandomAsymmetricConnected(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := a.Shuffle(rng)
	g, marks := markedInstance(a, b, 4, rng)
	proto, err := NewMarkedGNI(g.N(), 6, 4, 97)
	if err != nil {
		t.Fatal(err)
	}
	res, err := proto.Run(g, marks, proto.HonestProver(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.MaxProverBits() == 0 {
		t.Fatal("no communication measured")
	}
	// The per-node cost is O(reps·(k log k + n)) — sanity bound.
	n, k, reps := g.N(), 6, 4
	bound := 64 * reps * (k*wire.WidthFor(k) + n)
	if got := res.Cost.MaxProverBits(); got > bound {
		t.Fatalf("MaxProverBits = %d exceeds sanity bound %d", got, bound)
	}
}

func TestMarkedGNIStateSizeMismatch(t *testing.T) {
	proto, err := NewMarkedGNI(14, 6, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proto.Run(graph.Cycle(5), []Mark{MarkZero}, proto.HonestProver(), 0); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestMarkedGNIRankForgeryCaught(t *testing.T) {
	// A prover that assigns two 0-marked nodes the same rank (collapsing
	// them onto one induced vertex) must be caught by the rank-multiset
	// check with high probability.
	rng := rand.New(rand.NewSource(98))
	a, err := graph.RandomAsymmetricConnected(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := a.Shuffle(rng)
	g, marks := markedInstance(a, b, 3, rng)
	proto, err := NewMarkedGNI(g.N(), 6, 3, 98)
	if err != nil {
		t.Fatal(err)
	}

	accepts := 0
	const trials = 12
	for seed := int64(0); seed < trials; seed++ {
		inner := &markedProver{proto: proto}
		forging := proverFunc(func(round int, view *network.ProverView) (*network.Response, error) {
			resp, err := inner.Respond(round, view)
			if err != nil || round != 0 {
				return resp, err
			}
			// Rewrite node 1's rank to duplicate node 0's (both 0-marked).
			// Re-encode node 1's message and fix all claims about node 1
			// in its neighbors' messages so cross-checks still pass; the
			// multiset check is then the only line of defense.
			msg1, err := proto.decodeFirst(resp.PerNode[1], view.Graph.Degree(1))
			if err != nil {
				return nil, err
			}
			forgedRank := inner.ranks[0]
			msg1.rank = forgedRank
			resp.PerNode[1] = proto.encodeFirst(msg1)
			for _, u := range view.Graph.Neighbors(1) {
				mu, err := proto.decodeFirst(resp.PerNode[u], view.Graph.Degree(u))
				if err != nil {
					return nil, err
				}
				for i, w := range view.Graph.Neighbors(u) {
					if w == 1 {
						mu.claims[i].rank = forgedRank
					}
				}
				resp.PerNode[u] = proto.encodeFirst(mu)
			}
			return resp, nil
		})
		res, err := proto.Run(g, marks, forging, seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Accepted {
			accepts++
		}
	}
	if accepts > 1 {
		t.Fatalf("rank forgery accepted %d/%d times", accepts, trials)
	}
}
