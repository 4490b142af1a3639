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

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestMaxInt(t *testing.T) {
	if MaxInt(nil) != 0 {
		t.Fatal("empty max")
	}
	if got := MaxInt([]int{3, 9, 1}); got != 9 {
		t.Fatalf("MaxInt = %v", got)
	}
	if got := MaxInt([]int{-5, -2}); got != -2 {
		t.Fatalf("MaxInt = %v", got)
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

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {87.5, 4.5},
	}
	for _, tc := range cases {
		if got := Percentile(xs, tc.p); got != tc.want {
			t.Errorf("Percentile(xs, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v", got)
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single element: %v", got)
	}
	// A tie at the top of 60 samples: p95 and p99 interpolate between
	// equal values and must both be that value exactly. The a·(1-f) + b·f
	// form gave p95 = 1.1531850000000001 > p99 here, and dip-load/v1
	// validation refused the file as non-monotone.
	ties := make([]float64, 60)
	for i := range ties {
		ties[i] = float64(i) / 100
	}
	for i := 56; i < 60; i++ {
		ties[i] = 1.153185
	}
	p95, p99 := Percentile(ties, 95), Percentile(ties, 99)
	if p95 != 1.153185 || p99 != 1.153185 {
		t.Errorf("tied top: p95 = %v, p99 = %v, want both 1.153185", p95, p99)
	}
}
