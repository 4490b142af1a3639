package network

import "math/rand"

// nodeRNG builds node v's private randomness stream: a splitmix64 sequence
// seeded by mix(seed, v). The sequential executor and every NodeState
// host construct node RNGs exclusively through this seeding (directly, or
// by re-seeding a pooled *rand.Rand with the same mix — see
// runState.reset) — that shared construction is what makes their random
// draws, and hence their results, bit-identical.
//
// The source is deliberately not math/rand's default: the lagged-Fibonacci
// rngSource pays a ~10µs, 4.8KB initialization per node, which at n=256
// dominates an entire engine run. splitmix64 seeds in O(1) with 8 bytes of
// state; engine randomness only needs to be deterministic and
// well-distributed, not cryptographic.
func nodeRNG(seed int64, v int) *rand.Rand {
	src := nodeSource(seed, v)
	return rand.New(&src)
}

// nodeSource is nodeRNG's underlying source, exposed so runState can place
// all n sources in one backing array.
func nodeSource(seed int64, v int) splitmixSource {
	return splitmixSource{state: uint64(mix(seed, int64(v)))}
}

// splitmixSource is a rand.Source64 running splitmix64 (Steele, Lea &
// Flood's SplittableRandom output function over a Weyl sequence).
type splitmixSource struct{ state uint64 }

func (s *splitmixSource) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmixSource) Seed(seed int64) { s.state = uint64(seed) }

// mix derives a per-node seed from the master seed (splitmix64 finalizer).
func mix(seed, v int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(v)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}
