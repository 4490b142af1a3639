// Package stats provides the small statistical toolkit the experiment
// harness uses: Bernoulli estimation with Wilson confidence intervals and
// Chernoff-style repetition planning.
package stats

import (
	"fmt"
	"math"
)

// Estimate is an estimated Bernoulli probability with a confidence
// interval.
type Estimate struct {
	Successes int
	Trials    int
	Rate      float64
	Lo, Hi    float64 // 95% Wilson interval
}

// EstimateBernoulli summarizes successes/trials with a 95% Wilson interval.
func EstimateBernoulli(successes, trials int) Estimate {
	if trials <= 0 {
		return Estimate{}
	}
	lo, hi := WilsonInterval(successes, trials, 1.96)
	return Estimate{
		Successes: successes,
		Trials:    trials,
		Rate:      float64(successes) / float64(trials),
		Lo:        lo,
		Hi:        hi,
	}
}

// String renders the estimate as "0.42 [0.31, 0.54] (21/50)".
func (e Estimate) String() string {
	return fmt.Sprintf("%.2f [%.2f, %.2f] (%d/%d)", e.Rate, e.Lo, e.Hi, e.Successes, e.Trials)
}

// WilsonInterval returns the Wilson score interval for a Bernoulli
// proportion at the given z-value (1.96 for 95%).
func WilsonInterval(successes, trials int, z float64) (lo, hi float64) {
	if trials <= 0 {
		return 0, 1
	}
	n := float64(trials)
	p := float64(successes) / n
	z2 := z * z
	denom := 1 + z2/n
	center := (p + z2/(2*n)) / denom
	margin := z / denom * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo = center - margin
	hi = center + margin
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// ChernoffTrials returns the number of independent repetitions needed so
// that the empirical mean of a Bernoulli variable deviates from its
// expectation by more than eps with probability at most delta (two-sided
// Hoeffding bound): n ≥ ln(2/δ) / (2 ε²).
func ChernoffTrials(eps, delta float64) int {
	if eps <= 0 || delta <= 0 || delta >= 1 {
		return 0
	}
	return int(math.Ceil(math.Log(2/delta) / (2 * eps * eps)))
}

// CertifyingTrials returns a trial count sufficient to separate the
// paper's completeness (> 2/3) and soundness (< 1/3) thresholds: enough
// repetitions that a protocol whose true acceptance probability is at
// least atLeast bounded away from the threshold yields a Wilson interval
// excluding it. Concretely it takes the Hoeffding count for estimating
// within margin at confidence 1-delta, so an observed rate of 1.0 (resp.
// 0.0) certifies p > 1 - 2·margin (resp. p < 2·margin).
func CertifyingTrials(margin, delta float64) int {
	return ChernoffTrials(margin, delta)
}

// DeriveSeed deterministically derives the seed of an independent random
// stream from a base seed and a stream index, using the splitmix64
// finalizer. Trial i of an experiment draws all randomness from
// DeriveSeed(seed, i), making per-trial results independent of worker
// scheduling: the harness can replay any trial in isolation.
func DeriveSeed(seed, stream int64) int64 {
	return int64(Mix64(uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)*0xD1342543DE82EF95 + 0x2545F4914F6CDD1D))
}

// Mix64 is the splitmix64 finalizer (Steele, Lea & Flood's
// SplittableRandom output function): a bijection on 64-bit words that
// sends nearby inputs to unrelated outputs. Every seed derivation in the
// module runs its own combination of words through it.
func Mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// SplitMix is a math/rand Source64 running splitmix64: Mix64 over a Weyl
// sequence, whose state the value is. It seeds in O(1) from 8 bytes of
// state, where math/rand's default source pays a ~10µs, 4.8KB
// initialization; seeded randomness here needs to be deterministic and
// well-distributed, not cryptographic. Start a stream at state x with
// rand.New(&s) for s := SplitMix(x).
type SplitMix uint64

// Uint64 advances the state and returns its mix.
func (s *SplitMix) Uint64() uint64 {
	*s += 0x9E3779B97F4A7C15
	return Mix64(uint64(*s))
}

// Int63 returns the top 63 bits of Uint64.
func (s *SplitMix) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed sets the state to seed.
func (s *SplitMix) Seed(seed int64) { *s = SplitMix(seed) }
