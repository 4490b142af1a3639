package core

import (
	"math/rand"
	"reflect"
	"testing"

	"dip/internal/faults"
	"dip/internal/graph"
	"dip/internal/network"
)

// TestEngineEquivalenceUnderFaults extends the engine-equivalence contract
// to corrupted runs: for every fault class, on each plane it supports, the
// sequential executor and the networked one over a real TCP peer fleet
// must produce bit-identical Results (decisions, cost, and the full
// transcript, which records the corrupted deliveries). This is the
// property that makes the fault matrix executor-agnostic: a fault
// schedule is a pure function of the seed, not of where nodes run or of
// socket timing — and on the networked executor the corrupted copies
// genuinely cross sockets, since injectors run in the coordinator's
// funnel before each delivery is shipped to its peer.
func TestEngineEquivalenceUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep is slow")
	}
	rng := rand.New(rand.NewSource(42))
	base, err := graph.RandomAsymmetricConnected(7, rng)
	if err != nil {
		t.Fatal(err)
	}
	sym := graph.Doubled(base, 0)
	n := sym.N()

	dmam, err := NewSymDMAM(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	dam, err := NewSymDAM(n, 1)
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
	damam, err := NewGNIDAMAM(gniN, gniK, 1)
	if err != nil {
		t.Fatal(err)
	}

	// A spread of round structures: MAM with broadcast checks, AM with a
	// huge advice message, an RPLS with Digest rounds (the digest is what
	// travels the exchange plane), and the GNI workhorse.
	cases := []equivCase{
		{"sym-dmam", dmam.Spec, sym, nil, dmam.HonestProver},
		{"sym-dam", dam.Spec, sym, nil, dam.HonestProver},
		{"sym-rpls", rpls.Spec, sym, nil, rpls.HonestProver},
		{"gni-damam", damam.Spec, gniYes.G0, EncodeGNIInputs(gniYes.G1), damam.HonestProver},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fleet := peerFleet(t, 3, tc.spec)
			for _, name := range faults.Names() {
				class, ok := faults.ByName(name)
				if !ok {
					t.Fatalf("class %q vanished", name)
				}
				for _, plane := range class.Planes {
					t.Run(name+"/"+string(plane), func(t *testing.T) {
						const seed = 17
						run := func(mode string) *network.Result {
							opts := network.Options{Seed: seed, RecordTranscript: true}
							if mode == "networked" {
								opts.Transport = fleet.NewRun(nil)
							}
							// Fresh injector per run: Replay and NodeSwap
							// carry per-run state.
							nn := tc.g.N()
							switch plane {
							case faults.PlaneProver:
								opts.Corrupt = faults.Corruptor(seed, nn, class.New())
							case faults.PlaneExchange:
								opts.CorruptExchange = faults.ExchangeCorruptor(seed, nn, class.New())
							}
							res, err := network.Run(tc.spec(), tc.g, tc.inputs, tc.prover(), opts)
							if err != nil {
								t.Fatalf("%s: %v", mode, err)
							}
							return res
						}
						seqRes, netRes := run("sequential"), run("networked")
						if !reflect.DeepEqual(seqRes, netRes) {
							t.Fatalf("executors diverge under %s on %s plane:\nsequential: accepted=%v decisions=%v\nnetworked: accepted=%v decisions=%v",
								name, plane,
								seqRes.Accepted, seqRes.Decisions,
								netRes.Accepted, netRes.Decisions)
						}
						checkPerRoundSums(t, seed, &seqRes.Cost)
					})
				}
			}
		})
	}
}
