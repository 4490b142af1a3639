// Package perm implements permutations of the vertex set {0, ..., n-1}.
//
// Permutations are the central object of the paper's protocols: the Sym
// prover commits to a claimed automorphism ρ, and the GNI prover answers the
// Goldwasser-Sipser challenge with a permutation σ. This package provides
// composition, inversion, sampling, cycle notation, and lexicographic
// successor for enumerating S_n in a canonical order without
// materializing it.
package perm

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
)

// Perm is a permutation of {0,...,n-1}: p[i] is the image of i. A Perm is
// valid if it is a bijection; constructors in this package always return
// valid permutations, and FromSlice validates.
type Perm []int

// Identity returns the identity permutation on n elements.
func Identity(n int) Perm {
	p := make(Perm, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// FromSlice validates that s is a bijection on {0,...,len(s)-1} and returns
// it as a Perm. The slice is copied.
func FromSlice(s []int) (Perm, error) {
	n := len(s)
	seen := make([]bool, n)
	for i, v := range s {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("perm: image %d of %d out of range [0,%d)", v, i, n)
		}
		if seen[v] {
			return nil, fmt.Errorf("perm: image %d repeated", v)
		}
		seen[v] = true
	}
	p := make(Perm, n)
	copy(p, s)
	return p, nil
}

// IsValid reports whether p is a bijection on {0,...,len(p)-1}. It is used
// by verifiers to reject prover-supplied mappings that are not permutations.
func IsValid(s []int) bool {
	_, err := FromSlice(s)
	return err == nil
}

// Random returns a uniformly random permutation on n elements.
func Random(n int, rng *rand.Rand) Perm {
	p := Identity(n)
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// RandomNonIdentity returns a uniformly random permutation among the n!-1
// non-identity permutations. n must be at least 2.
func RandomNonIdentity(n int, rng *rand.Rand) Perm {
	if n < 2 {
		panic(fmt.Sprintf("perm: no non-identity permutation on %d elements", n))
	}
	for {
		p := Random(n, rng)
		if !p.IsIdentity() {
			return p
		}
	}
}

// N returns the number of elements.
func (p Perm) N() int { return len(p) }

// Clone returns an independent copy.
func (p Perm) Clone() Perm {
	c := make(Perm, len(p))
	copy(c, p)
	return c
}

// IsIdentity reports whether p fixes every element.
func (p Perm) IsIdentity() bool {
	for i, v := range p {
		if i != v {
			return false
		}
	}
	return true
}

// Equal reports whether p and q are the same permutation.
func (p Perm) Equal(q Perm) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Compose returns the permutation "p after q": (p∘q)(i) = p(q(i)).
func (p Perm) Compose(q Perm) Perm {
	if len(p) != len(q) {
		panic(fmt.Sprintf("perm: composing sizes %d and %d", len(p), len(q)))
	}
	r := make(Perm, len(p))
	for i := range r {
		r[i] = p[q[i]]
	}
	return r
}

// Inverse returns p⁻¹.
func (p Perm) Inverse() Perm {
	inv := make(Perm, len(p))
	for i, v := range p {
		inv[v] = i
	}
	return inv
}

// Moved returns some element i with p(i) != i, or -1 if p is the identity.
// Protocol 1's prover broadcasts such a witness as the spanning-tree root.
func (p Perm) Moved() int {
	for i, v := range p {
		if i != v {
			return i
		}
	}
	return -1
}

// Cycles returns the cycle decomposition of p, each cycle starting with its
// smallest element, cycles sorted by their smallest element. Fixed points
// appear as 1-cycles.
func (p Perm) Cycles() [][]int {
	n := len(p)
	seen := make([]bool, n)
	var cycles [][]int
	for i := 0; i < n; i++ {
		if seen[i] {
			continue
		}
		cycle := []int{i}
		seen[i] = true
		for j := p[i]; j != i; j = p[j] {
			cycle = append(cycle, j)
			seen[j] = true
		}
		cycles = append(cycles, cycle)
	}
	return cycles
}

// String renders p in cycle notation, e.g. "(0 2 1)(3 4)"; the identity
// renders as "id".
func (p Perm) String() string {
	var parts []string
	for _, c := range p.Cycles() {
		if len(c) == 1 {
			continue
		}
		strs := make([]string, len(c))
		for i, v := range c {
			strs[i] = fmt.Sprint(v)
		}
		parts = append(parts, "("+strings.Join(strs, " ")+")")
	}
	if len(parts) == 0 {
		return "id"
	}
	return strings.Join(parts, "")
}

// NextLex advances p to its lexicographic successor in place and reports
// whether one existed; when p is the last permutation it is left unchanged
// and NextLex returns false. Streaming enumeration with NextLex is how the
// honest GNI prover searches S_n for a hash preimage without materializing
// the whole group.
func (p Perm) NextLex() bool {
	n := len(p)
	i := n - 2
	for i >= 0 && p[i] >= p[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := n - 1
	for p[j] <= p[i] {
		j--
	}
	p[i], p[j] = p[j], p[i]
	for l, r := i+1, n-1; l < r; l, r = l+1, r-1 {
		p[l], p[r] = p[r], p[l]
	}
	return true
}

// Sorted reports whether p is sorted ascending (i.e. is the identity); a
// convenience used by enumeration loops.
func (p Perm) Sorted() bool {
	return sort.IntsAreSorted(p)
}
