package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dip/internal/faults"
	"dip/internal/network"
)

// gniFaultDigest is the SHA-256 of TestGNIFaultedRunsPinned's lines. It
// pins what the four GNI verifiers decide on corrupted messages, so a
// change to their codecs or decode-and-reject paths that moves a single
// decision or bit count fails here.
const gniFaultDigest = "5a3fe056ab1fb7a8793c79904dca93dbd43903232478b052453deaf8bc18f5c9"

// symFaultDigest is the SHA-256 of TestSymFaultedRunsPinned's lines,
// recorded before the symmetry protocols moved onto one shared kit. It
// pins what the Sym verifiers and the labeling schemes decide on
// corrupted messages.
const symFaultDigest = "4697cb6a645ac3337eac244c91afa5d89f9f93bb52a915dd0116c4d122476267"

// TestGNIFaultedRunsPinned runs each GNI protocol's equivalence workload
// under every fault class on every plane it supports, at injection
// probabilities 1 and 0.3 and seeds 1–3 (264 runs), and requires the
// outcomes to hash to gniFaultDigest.
func TestGNIFaultedRunsPinned(t *testing.T) {
	checkFaultedRunsPinned(t, 264, gniFaultDigest,
		"gni-damam-yes", "gni-dam", "gni-general", "gni-marked")
}

// TestSymFaultedRunsPinned is TestGNIFaultedRunsPinned for the symmetry
// protocols and the labeling schemes: the seven Sym workloads (462 runs)
// and gni-lcp (66 runs).
func TestSymFaultedRunsPinned(t *testing.T) {
	checkFaultedRunsPinned(t, 528, symFaultDigest,
		"sym-dmam-honest", "sym-dmam-cheat", "sym-dam-honest", "sym-dam-cheat",
		"dsym-dam", "sym-lcp", "sym-rpls", "gni-lcp")
}

// checkFaultedRunsPinned runs the named equivalence workloads, in
// equivCases order, under every fault class on every plane it supports,
// at injection probabilities 1 and 0.3 and seeds 1–3. Each run
// contributes one line: acceptance, per-node decisions, MaxProverBits and
// TotalProverBits. It requires want lines hashing to digest.
func checkFaultedRunsPinned(t *testing.T, want int, digest string, names ...string) {
	if testing.Short() {
		t.Skip("fault sweep is slow")
	}
	var lines []string
	for _, tc := range equivCases(t) {
		if !slices.Contains(names, tc.name) {
			continue
		}
		for _, name := range faults.Names() {
			class, _ := faults.ByName(name)
			for _, plane := range class.Planes {
				for _, prob := range []float64{1, 0.3} {
					for seed := int64(1); seed <= 3; seed++ {
						opts := network.Options{Seed: seed}
						inj := faults.WithProbability(prob, class.New())
						n := tc.g.N()
						switch plane {
						case faults.PlaneProver:
							opts.Corrupt = faults.Corruptor(seed, n, inj)
						case faults.PlaneExchange:
							opts.CorruptExchange = faults.ExchangeCorruptor(seed, n, inj)
						}
						line := fmt.Sprintf("%s %s/%s p=%g seed=%d ", tc.name, name, plane, prob, seed)
						res, err := network.Run(tc.spec(), tc.g, tc.inputs, tc.prover(), opts)
						if err != nil {
							line += "error: " + err.Error()
						} else {
							line += fmt.Sprintf("accepted=%v decisions=%v max=%d total=%d",
								res.Accepted, res.Decisions, res.Cost.MaxProverBits(), res.Cost.TotalProverBits())
						}
						lines = append(lines, line)
					}
				}
			}
		}
	}
	if len(lines) != want {
		t.Fatalf("%d faulted runs, want %d", len(lines), want)
	}
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	if got := hex.EncodeToString(sum[:]); got != digest {
		for _, l := range lines {
			t.Log(l)
		}
		t.Fatalf("faulted runs hash to %s, want %s", got, digest)
	}
}
