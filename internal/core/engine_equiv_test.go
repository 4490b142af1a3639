package core

import (
	"math/rand"
	"net"
	"reflect"
	"testing"

	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/peer"
	"dip/internal/perm"
	"dip/internal/wire"
)

// peerFleet boots k peer servers on ephemeral TCP ports, each rebuilding
// the case's spec through its SpecBuilder exactly as a dippeer process
// would, and returns a fleet over them, closed at cleanup. Every run of
// the networked equivalence column is a session minted from it.
func peerFleet(t *testing.T, k int, build func() *network.Spec) *peer.Fleet {
	t.Helper()
	addrs := make([]string, k)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &peer.Server{Build: func([]byte) (*network.Spec, error) { return build(), nil }}
		go srv.Serve(l)
		t.Cleanup(func() {
			l.Close()
			srv.Close()
		})
		addrs[i] = l.Addr().String()
	}
	fleet, err := peer.NewFleet(addrs, peer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })
	return fleet
}

// equivCase is one protocol workload run under both executors.
type equivCase struct {
	name string
	// spec is rebuilt per run so closure state cannot leak between runs.
	spec func() *network.Spec
	g    *graph.Graph
	// inputs may be nil.
	inputs []wire.Message
	// prover is rebuilt per run: provers are stateful within a run.
	prover func() network.Prover
}

// TestEngineEquivalenceAllProtocols is the executor contract: for every
// protocol in the repository, the sequential executor and the networked
// one (verifier nodes hosted by a real TCP peer fleet) must produce
// bit-identical Cost, Decisions, and Transcript at a fixed seed, for
// honest and cheating provers alike.
func TestEngineEquivalenceAllProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol sweep is slow")
	}
	for _, tc := range equivCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			fleet := peerFleet(t, 3, tc.spec)
			for _, seed := range []int64{1, 17} {
				opts := network.Options{Seed: seed, RecordTranscript: true}
				seqRes, err := network.Run(tc.spec(), tc.g, tc.inputs, tc.prover(), opts)
				if err != nil {
					t.Fatalf("sequential: %v", err)
				}
				netOpts := opts
				netOpts.Transport = fleet.NewRun(nil)
				netRes, err := network.Run(tc.spec(), tc.g, tc.inputs, tc.prover(), netOpts)
				if err != nil {
					t.Fatalf("networked: %v", err)
				}
				if !reflect.DeepEqual(seqRes, netRes) {
					t.Fatalf("seed %d: executors diverge:\nsequential: accepted=%v decisions=%v cost=%+v\nnetworked:  accepted=%v decisions=%v cost=%+v",
						seed,
						seqRes.Accepted, seqRes.Decisions, seqRes.Cost,
						netRes.Accepted, netRes.Decisions, netRes.Cost)
				}
				// The DeepEqual above proves the executors agree on the
				// per-round breakdown; check it is also internally
				// consistent — every round charged, nothing double-counted.
				checkPerRoundSums(t, seed, &seqRes.Cost)
			}
		})
	}
}

// equivCases builds one workload per protocol in the repository (honest
// and cheating provers alike) on fixed instances drawn from seed 42.
func equivCases(t *testing.T) []equivCase {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	base, err := graph.RandomAsymmetricConnected(7, rng)
	if err != nil {
		t.Fatal(err)
	}
	sym := graph.Doubled(base, 0) // 16 vertices, symmetric
	n := sym.N()
	asym, err := graph.RandomAsymmetricConnected(n, rng)
	if err != nil {
		t.Fatal(err)
	}
	dsymG := graph.DSymGraph(graph.ConnectedGNP(6, 0.5, rng), 1)
	gnp := graph.ConnectedGNP(20, 0.3, rng)

	dmam, err := NewSymDMAM(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	dam := seedKeyedSymDAM(t, n, 1)
	dsym, err := NewDSymDAM(6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	symLCP, err := NewSymLCP(n)
	if err != nil {
		t.Fatal(err)
	}
	treeLCP, err := NewSpanTreeLCP(gnp.N())
	if err != nil {
		t.Fatal(err)
	}
	rpls, err := NewSymRPLS(n, 1)
	if err != nil {
		t.Fatal(err)
	}

	const gniN, gniK = 6, 4
	gniYes, err := NewGNIYesInstance(gniN, rng)
	if err != nil {
		t.Fatal(err)
	}
	gniNo, err := NewGNINoInstance(gniN, rng)
	if err != nil {
		t.Fatal(err)
	}
	damam, err := NewGNIDAMAM(gniN, gniK, 1)
	if err != nil {
		t.Fatal(err)
	}
	gniDAM, err := NewGNIDAM(gniN, gniK, 1)
	if err != nil {
		t.Fatal(err)
	}
	general, err := NewGNIGeneral(gniN, gniK, 1)
	if err != nil {
		t.Fatal(err)
	}
	gniLCP, err := NewGNILCP(gniN)
	if err != nil {
		t.Fatal(err)
	}
	c6 := graph.Cycle(gniN)
	c6Shuffled, _ := c6.Shuffle(rng)

	// Marked GNI: two disjoint rigid 6-vertex subgraphs joined by hubs.
	markedG, marks := markedEquivInstance(t, rng)
	marked, err := NewMarkedGNI(markedG.N(), 6, gniK, 1)
	if err != nil {
		t.Fatal(err)
	}
	markInputs, err := EncodeMarks(marks)
	if err != nil {
		t.Fatal(err)
	}

	cheatRho := perm.RandomNonIdentity(n, rand.New(rand.NewSource(3)))

	return []equivCase{
		{"sym-dmam-honest", dmam.Spec, sym, nil, dmam.HonestProver},
		// The factory reseeds its own RNG so both executor runs see the
		// same cheating mapping.
		{"sym-dmam-cheat", dmam.Spec, asym, nil, func() network.Prover {
			return dmam.RandomMappingProver(rand.New(rand.NewSource(7)))
		}},
		{"sym-dam-honest", dam.Spec, sym, nil, dam.HonestProver},
		{"sym-dam-cheat", dam.Spec, asym, nil, func() network.Prover {
			return dam.ProverWithMapping(cheatRho, cheatRho.Moved())
		}},
		{"dsym-dam", dsym.Spec, dsymG, nil, dsym.HonestProver},
		{"sym-lcp", symLCP.Spec, sym, nil, symLCP.HonestProver},
		{"spantree-lcp", treeLCP.Spec, gnp, nil, treeLCP.HonestProver},
		{"sym-rpls", rpls.Spec, sym, nil, rpls.HonestProver},
		{"gni-damam-yes", damam.Spec, gniYes.G0, EncodeGNIInputs(gniYes.G1), damam.HonestProver},
		{"gni-damam-no", damam.Spec, gniNo.G0, EncodeGNIInputs(gniNo.G1), damam.OptimalGNICheater},
		{"gni-dam", gniDAM.Spec, gniYes.G0, EncodeGNIInputs(gniYes.G1), gniDAM.HonestProver},
		{"gni-general", general.Spec, c6, EncodeGNIInputs(c6Shuffled), general.HonestProver},
		{"gni-marked", marked.Spec, markedG, markInputs, marked.HonestProver},
		{"gni-lcp", gniLCP.Spec, gniYes.G0, EncodeGNIInputs(gniYes.G1), gniLCP.HonestProver},
	}
}

// checkPerRoundSums asserts that a run's per-round cost breakdown
// decomposes the aggregate accounting exactly: for every node and every
// direction, the per-round entries sum to the aggregate slice, and the
// per-round prover bits at the argmax node reconstruct MaxProverBits.
func checkPerRoundSums(t *testing.T, seed int64, c *network.Cost) {
	t.Helper()
	for v := range c.ToProver {
		to, from, nbr := 0, 0, 0
		for k := range c.PerRound {
			to += c.PerRound[k].ToProver[v]
			from += c.PerRound[k].FromProver[v]
			nbr += c.PerRound[k].NodeToNode[v]
		}
		if to != c.ToProver[v] || from != c.FromProver[v] || nbr != c.NodeToNode[v] {
			t.Fatalf("seed %d node %d: per-round sums (%d,%d,%d) != aggregates (%d,%d,%d)",
				seed, v, to, from, nbr, c.ToProver[v], c.FromProver[v], c.NodeToNode[v])
		}
	}
	arg := c.ArgMaxProverNode()
	sum := 0
	for _, b := range c.ProverBitsByRound(arg) {
		sum += b
	}
	if sum != c.MaxProverBits() {
		t.Fatalf("seed %d: per-round prover bits at node %d sum to %d, MaxProverBits is %d",
			seed, arg, sum, c.MaxProverBits())
	}
}

// markedEquivInstance builds a small yes-instance for the marked GNI
// formulation: two non-isomorphic rigid 6-vertex graphs as marked induced
// subgraphs, joined through three unmarked hub vertices.
func markedEquivInstance(t *testing.T, rng *rand.Rand) (*graph.Graph, []Mark) {
	t.Helper()
	const k, hubs = 6, 3
	a, err := graph.RandomAsymmetricConnected(k, rng)
	if err != nil {
		t.Fatal(err)
	}
	var b *graph.Graph
	for {
		if b, err = graph.RandomAsymmetricConnected(k, rng); err != nil {
			t.Fatal(err)
		}
		if !graph.AreIsomorphic(a, b) {
			break
		}
	}
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
	for v := 0; v < 2*k; v++ {
		g.AddEdge(v, 2*k+v%hubs)
	}
	for h := 1; h < hubs; h++ {
		g.AddEdge(2*k, 2*k+h)
	}
	return g, marks
}
