package stats

import (
	"math"
	"strings"
	"testing"
)

func TestEstimateBernoulli(t *testing.T) {
	e := EstimateBernoulli(21, 50)
	if math.Abs(e.Rate-0.42) > 1e-9 {
		t.Fatalf("rate = %v", e.Rate)
	}
	if !(e.Lo < e.Rate && e.Rate < e.Hi) {
		t.Fatalf("interval [%v, %v] does not bracket %v", e.Lo, e.Hi, e.Rate)
	}
	if e.Lo < 0 || e.Hi > 1 {
		t.Fatal("interval outside [0,1]")
	}
	if !strings.Contains(e.String(), "21/50") {
		t.Fatalf("String = %q", e.String())
	}
	zero := EstimateBernoulli(0, 0)
	if zero.Rate != 0 {
		t.Fatal("empty estimate wrong")
	}
}

func TestWilsonEdgeCases(t *testing.T) {
	lo, hi := WilsonInterval(0, 0, 1.96)
	if lo != 0 || hi != 1 {
		t.Fatal("no-trials interval should be [0,1]")
	}
	lo, hi = WilsonInterval(0, 100, 1.96)
	if lo != 0 || hi > 0.1 {
		t.Fatalf("all-failures interval [%v, %v]", lo, hi)
	}
	lo, hi = WilsonInterval(100, 100, 1.96)
	if hi < 0.999 || lo < 0.9 {
		t.Fatalf("all-successes interval [%v, %v]", lo, hi)
	}
	// Wider samples narrow the interval.
	lo1, hi1 := WilsonInterval(5, 10, 1.96)
	lo2, hi2 := WilsonInterval(500, 1000, 1.96)
	if hi2-lo2 >= hi1-lo1 {
		t.Fatal("interval did not narrow with more trials")
	}
}

func TestChernoffTrials(t *testing.T) {
	n := ChernoffTrials(0.1, 0.05)
	// ln(40)/(2·0.01) ≈ 184.4 → 185.
	if n != 185 {
		t.Fatalf("ChernoffTrials = %d, want 185", n)
	}
	if ChernoffTrials(0, 0.05) != 0 || ChernoffTrials(0.1, 0) != 0 || ChernoffTrials(0.1, 2) != 0 {
		t.Fatal("invalid inputs should return 0")
	}
	// Smaller eps needs more trials.
	if ChernoffTrials(0.01, 0.05) <= ChernoffTrials(0.1, 0.05) {
		t.Fatal("trials not monotone in eps")
	}
}

// TestDeriveSeedStreams pins the properties RunTrials depends on:
// determinism, and distinct streams for distinct (seed, index) pairs.
func TestDeriveSeedStreams(t *testing.T) {
	if DeriveSeed(1, 2) != DeriveSeed(1, 2) {
		t.Fatal("not deterministic")
	}
	seen := make(map[int64]bool)
	for seed := int64(0); seed < 8; seed++ {
		for stream := int64(0); stream < 256; stream++ {
			z := DeriveSeed(seed, stream)
			if seen[z] {
				t.Fatalf("collision at (%d, %d)", seed, stream)
			}
			seen[z] = true
		}
	}
	// Nearby inputs must not give nearby outputs (the harness feeds
	// consecutive trial indices).
	if d := DeriveSeed(1, 0) - DeriveSeed(1, 1); d > -1000 && d < 1000 {
		t.Fatalf("consecutive streams too close: delta %d", d)
	}
}

// TestCertifyingTrials checks that the planned count separates the paper's
// 2/3 vs 1/3 thresholds: an observed rate of 1 over that many trials has a
// Wilson lower bound above 2/3, and rate 0 an upper bound below 1/3.
func TestCertifyingTrials(t *testing.T) {
	n := CertifyingTrials(1.0/8, 0.005)
	if n <= 0 {
		t.Fatal("no trials planned")
	}
	if lo, _ := WilsonInterval(n, n, 1.96); lo <= 2.0/3 {
		t.Fatalf("lo = %v at %d/%d: cannot certify completeness > 2/3", lo, n, n)
	}
	if _, hi := WilsonInterval(0, n, 1.96); hi >= 1.0/3 {
		t.Fatalf("hi = %v at 0/%d: cannot certify soundness < 1/3", hi, n)
	}
}
