package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/big"
	"testing"

	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/prime"
	"dip/internal/wire"
)

// heavyMixDigest is the SHA-256 of TestHeavyMixTranscriptsPinned's stream.
// It was recorded before the prime scan was sieved and the linear hash
// moved to running powers, so a change that picks a different prime of the
// same width, or computes a different but self-consistent hash residue,
// fails here even though every honest run still accepts with the same bit
// counts.
const heavyMixDigest = "1bd009428ade90f608209deb3b0e63a370dc35277ecaa1b5f9253c15b1dd2b8b"

// TestHeavyMixTranscriptsPinned runs the protocols of the heavy serving
// mix (sym-dam, sym-rpls, sym-lcp) with their honest provers on the
// 64-vertex cycle, instance and run seeds 1–24, and hashes each instance's
// modulus, every Result (decisions, cost accounting, the full prover
// transcript) and every node-to-node exchange message (sym-rpls's
// fingerprints, sym-lcp's forwarded advice) into one digest.
func TestHeavyMixTranscriptsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy-mix sweep is slow")
	}
	const n = 64
	g := graph.Cycle(n)
	h := sha256.New()
	for seed := int64(1); seed <= 24; seed++ {
		dam := seedKeyedSymDAM(t, n, seed)
		rpls, err := NewSymRPLS(n, seed)
		if err != nil {
			t.Fatal(err)
		}
		lcp, err := NewSymLCP(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			spec    *network.Spec
			prover  network.Prover
			modulus *big.Int
		}{
			{dam.Spec(), dam.HonestProver(), dam.P()},
			{rpls.Spec(), rpls.HonestProver(), rpls.p},
			{lcp.Spec(), lcp.HonestProver(), nil},
		} {
			fmt.Fprintf(h, "%s seed=%d p=%v\n", c.spec.Name, seed, c.modulus)
			opts := network.Options{
				Seed:             seed,
				RecordTranscript: true,
				CorruptExchange: func(round, from, to int, m wire.Message) wire.Message {
					fmt.Fprintf(h, "x %d %d>%d ", round, from, to)
					hashMessage(h, m)
					return m
				},
			}
			res, err := network.Run(c.spec, g, nil, c.prover, opts)
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.spec.Name, seed, err)
			}
			if !res.Accepted {
				t.Fatalf("%s seed %d: honest run rejected", c.spec.Name, seed)
			}
			fmt.Fprintf(h, "decisions=%v cost=%v\n", res.Decisions, res.Cost)
			for k, r := range res.Transcript.Rounds {
				for v, m := range r.PerNode {
					fmt.Fprintf(h, "t %d %s %d ", k, r.Kind, v)
					hashMessage(h, m)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != heavyMixDigest {
		t.Fatalf("heavy-mix runs hash to %s, want %s", got, heavyMixDigest)
	}
}

// seedKeyedSymDAM builds sym-dam on the modulus NewSymDAM drew for seed
// before its modulus became the least prime of the window: the prime
// InWindow finds from a seed-keyed start. heavyMixDigest and
// symFaultDigest were recorded on these moduli; they pin the hashing and
// the codecs, which do not depend on which prime of the window is used.
func seedKeyedSymDAM(t testing.TB, n int, seed int64) *SymDAM {
	t.Helper()
	lo, hi, err := prime.PowerWindow(n)
	if err != nil {
		t.Fatal(err)
	}
	p, err := prime.InWindow(lo, hi, seed)
	if err != nil {
		t.Fatal(err)
	}
	dam, err := NewSymDAMWithPrime(n, p)
	if err != nil {
		t.Fatal(err)
	}
	return dam
}

// hashMessage writes a message's bit length and payload bytes into h.
func hashMessage(h hash.Hash, m wire.Message) {
	fmt.Fprintf(h, "%d:%x\n", m.Bits, m.Data)
}
