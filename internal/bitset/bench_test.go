package bitset

import (
	"math/rand"
	"testing"
)

func benchSet(n int, density float64, seed int64) *Set {
	rng := rand.New(rand.NewSource(seed))
	s := New(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			s.Add(i)
		}
	}
	return s
}

func BenchmarkCount(b *testing.B) {
	x := benchSet(4096, 0.5, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Count()
	}
}

func BenchmarkIterate(b *testing.B) {
	x := benchSet(4096, 0.1, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := x.NextSet(0); j >= 0; j = x.NextSet(j + 1) {
		}
	}
}

func BenchmarkPermute(b *testing.B) {
	x := benchSet(1024, 0.5, 5)
	rng := rand.New(rand.NewSource(6))
	p := make([]int, 1024)
	for i := range p {
		p[i] = i
	}
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Permute(p)
	}
}
