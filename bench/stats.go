package main

import (
	"math"
	"slices"
)

// median of xs; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// percentile is the nearest-rank p-quantile of xs. ok reports whether at
// least minTail samples lie above it, the condition for reporting that
// percentile at all (for p99: at least 1000 samples).
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	rank = min(max(rank, 0), len(s)-1)
	return s[rank], len(s)-1-rank >= minTail
}

// quartiles are the three cut points of xs into four groups, computed as
// Python's statistics.quantiles(xs, n=4) does by default (the "exclusive"
// method), so that spreads read the same here and in other tools.
func quartiles(xs []float64) [3]float64 {
	var q [3]float64
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return q
	case 1:
		return [3]float64{s[0], s[0], s[0]}
	}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
