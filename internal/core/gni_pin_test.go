package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/wire"
)

// gniTranscriptDigest is the SHA-256 of TestGNITranscriptsPinned's stream.
// It was recorded before the GNI protocols moved their f_α, h3 and
// Schwartz–Zippel sums onto hashing.LinearFamily, so a change that
// computes a different but self-consistent residue fails here even when
// every decision and bit count stays the same.
const gniTranscriptDigest = "863f8ae9ee8002a062096ac19204a4868206de4a897e3b1ae97af410fb80cb36"

// TestGNITranscriptsPinned runs the four GNI protocols with their honest
// provers on a yes- and a no-instance, seeds 1–3, and hashes each
// protocol's moduli (p, q, and p₂ or q3), every Result (decisions, cost
// accounting, the full transcript) and every node-to-node exchange
// message into one digest. At n = 6 (k = 6 for gni-marked) the field prime
// q is below 2^32; the n = 8 runs of gni-damam and gni-general take q
// above it. gni-general's q3 exceeds 2^32 at both sizes.
func TestGNITranscriptsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("GNI transcript sweep is slow")
	}
	h := sha256.New()
	run := func(name string, seed int64, spec *network.Spec, g *graph.Graph, inputs []wire.Message, prover network.Prover) {
		opts := network.Options{
			Seed:             seed,
			RecordTranscript: true,
			CorruptExchange: func(round, from, to int, m wire.Message) wire.Message {
				fmt.Fprintf(h, "x %d %d>%d ", round, from, to)
				hashMessage(h, m)
				return m
			},
		}
		res, err := network.Run(spec, g, inputs, prover, opts)
		if err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		fmt.Fprintf(h, "%s decisions=%v cost=%v\n", name, res.Decisions, res.Cost)
		for k, r := range res.Transcript.Rounds {
			for v, m := range r.PerNode {
				fmt.Fprintf(h, "t %d %s %d ", k, r.Kind, v)
				hashMessage(h, m)
			}
		}
	}
	moduli := func(name string, seed int64, kit *gsKit, extra *big.Int) {
		fmt.Fprintf(h, "%s seed=%d p=%v q=%v extra=%v\n", name, seed, kit.params.P(), kit.params.Q(), extra)
	}
	for _, n := range []int{6, 8} {
		reps := 4
		if n == 8 {
			reps = 2
		}
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			yes, err := NewGNIYesInstance(n, rng)
			if err != nil {
				t.Fatal(err)
			}
			no, err := NewGNINoInstance(n, rng)
			if err != nil {
				t.Fatal(err)
			}
			// gni-general's no-instance is symmetric, so its prover
			// enumerates non-trivial automorphisms τ.
			cycle := graph.Cycle(n)
			cycleShuffled, _ := cycle.Shuffle(rng)
			pairs := []struct {
				label  string
				g0, g1 *graph.Graph
			}{{"yes", yes.G0, yes.G1}, {"no", no.G0, no.G1}}

			damam, err := NewGNIDAMAM(n, reps, seed)
			if err != nil {
				t.Fatal(err)
			}
			moduli("gni-damam", seed, &damam.gsKit, damam.p2)
			for _, in := range pairs {
				run("gni-damam-"+in.label, seed, damam.Spec(), in.g0, EncodeGNIInputs(in.g1), damam.HonestProver())
			}
			general, err := NewGNIGeneral(n, reps, seed)
			if err != nil {
				t.Fatal(err)
			}
			moduli("gni-general", seed, &general.gsKit, general.q3)
			run("gni-general-yes", seed, general.Spec(), yes.G0, EncodeGNIInputs(yes.G1), general.HonestProver())
			run("gni-general-no", seed, general.Spec(), cycle, EncodeGNIInputs(cycleShuffled), general.HonestProver())
			if n == 8 {
				continue
			}

			dam, err := NewGNIDAM(n, reps, seed)
			if err != nil {
				t.Fatal(err)
			}
			moduli("gni-dam", seed, &dam.gsKit, nil)
			for _, in := range pairs {
				run("gni-dam-"+in.label, seed, dam.Spec(), in.g0, EncodeGNIInputs(in.g1), dam.HonestProver())
			}
			const hubs = 3
			for _, in := range pairs {
				g, marks := markedInstance(in.g0, in.g1, hubs, rng)
				marked, err := NewMarkedGNI(g.N(), n, reps, seed)
				if err != nil {
					t.Fatal(err)
				}
				moduli("gni-marked-"+in.label, seed, &marked.gsKit, marked.p2)
				inputs, err := EncodeMarks(marks)
				if err != nil {
					t.Fatal(err)
				}
				run("gni-marked-"+in.label, seed, marked.Spec(), g, inputs, marked.HonestProver())
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != gniTranscriptDigest {
		t.Fatalf("GNI runs hash to %s, want %s", got, gniTranscriptDigest)
	}
}
