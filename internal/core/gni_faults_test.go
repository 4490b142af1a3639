package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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

// TestGNIFaultedRunsPinned runs each GNI protocol's equivalence workload
// under every fault class on every plane it supports, at injection
// probabilities 1 and 0.3 and seeds 1–3 (264 runs), and requires the
// outcomes to hash to gniFaultDigest. Each run contributes one line:
// acceptance, per-node decisions, MaxProverBits and TotalProverBits.
func TestGNIFaultedRunsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep is slow")
	}
	var lines []string
	for _, tc := range equivCases(t) {
		switch tc.name {
		case "gni-damam-yes", "gni-dam", "gni-general", "gni-marked":
		default:
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
	if len(lines) != 264 {
		t.Fatalf("%d faulted runs, want 264", len(lines))
	}
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	if got := hex.EncodeToString(sum[:]); got != gniFaultDigest {
		for _, l := range lines {
			t.Log(l)
		}
		t.Fatalf("faulted GNI runs hash to %s, want %s", got, gniFaultDigest)
	}
}
