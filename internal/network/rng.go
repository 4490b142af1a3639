package network

import "dip/internal/stats"

// nodeSource is node v's private randomness stream: a splitmix64 sequence
// (stats.SplitMix) seeded by mix(seed, v). Every Host seeds its nodes
// exclusively this way (directly, or by re-seeding a pooled *rand.Rand
// with the same mix — see Host.reset), which is what makes a node's
// draws, and hence its results, the same on whichever host plays it.
// splitmix64 seeds in O(1), where math/rand's default source would cost
// about 10µs per node, which at n = 256 dominates an engine run.
func nodeSource(seed int64, v int) stats.SplitMix {
	return stats.SplitMix(mix(seed, int64(v)))
}

// mix derives a per-node seed from the master seed.
func mix(seed, v int64) int64 {
	return int64(stats.Mix64(uint64(seed)*0x9E3779B97F4A7C15 + uint64(v)*0xBF58476D1CE4E5B9))
}
