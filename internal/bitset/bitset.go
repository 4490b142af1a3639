// Package bitset provides dense, fixed-length bit vectors.
//
// The paper represents subsets of the vertex set V as characteristic vectors
// in {0,1}^V (Section 2.1), and adjacency-matrix rows as vectors N(v). This
// package is the concrete realization of those vectors: a Set is a sequence
// of n bits backed by 64-bit words, supporting the membership, permutation
// and iteration operations the protocols need.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-length bit vector. The zero value is an empty vector of
// length 0; use New to create a vector of a given length.
//
// All binary operations require both operands to have the same length and
// panic otherwise: mixing vector lengths is a programming error, not a
// runtime condition, in every caller in this module.
type Set struct {
	n     int
	words []uint64
}

// New returns a zeroed bit vector of length n. n must be non-negative.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative length %d", n))
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromIndices returns a bit vector of length n with the given bits set.
func FromIndices(n int, indices ...int) *Set {
	s := New(n)
	for _, i := range indices {
		s.Add(i)
	}
	return s
}

// Len returns the length (number of bit positions) of the vector.
func (s *Set) Len() int { return s.n }

// AppendHash folds the vector's length and content into h (FNV-1a over the
// backing words) and returns the extended hash. It allocates nothing, which
// is what makes it usable as the per-request cache-key fold in the setup
// cache: equal vectors fold equally, and no operation sets a bit at or
// beyond Len, so the fold is canonical.
func (s *Set) AppendHash(h uint64) uint64 {
	const fnvPrime = 1099511628211
	h ^= uint64(s.n)
	h *= fnvPrime
	for _, w := range s.words {
		h ^= w
		h *= fnvPrime
	}
	return h
}

// check panics if i is out of range.
func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Add sets bit i.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove clears bit i.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Flip toggles bit i.
func (s *Set) Flip(i int) {
	s.check(i)
	s.words[i/wordBits] ^= 1 << (uint(i) % wordBits)
}

// Contains reports whether bit i is set.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether no bits are set.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// CopyFrom overwrites s with t's bits. The sets must have equal length.
func (s *Set) CopyFrom(t *Set) {
	s.sameLen(t, "CopyFrom")
	copy(s.words, t.words)
}

// Equal reports whether s and t have the same length and the same bits.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i, w := range s.words {
		if w != t.words[i] {
			return false
		}
	}
	return true
}

func (s *Set) sameLen(t *Set, op string) {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: %s of mismatched lengths %d and %d", op, s.n, t.n))
	}
}

// Clear zeroes all bits.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// NextSet returns the index of the first set bit at position >= from, or -1
// if there is none. Iterate over all members with:
//
//	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) { ... }
func (s *Set) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= s.n {
		return -1
	}
	wi := from / wordBits
	w := s.words[wi] >> (uint(from) % wordBits)
	if w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// Indices returns the indices of all set bits in increasing order.
func (s *Set) Indices() []int {
	out := make([]int, 0, s.Count())
	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
		out = append(out, i)
	}
	return out
}

// String renders the vector as a string of '0'/'1' characters, index 0 first.
func (s *Set) String() string {
	var b strings.Builder
	b.Grow(s.n)
	for i := 0; i < s.n; i++ {
		if s.Contains(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// Bytes returns the vector packed into bytes, little-endian within each byte
// (bit i of the vector is bit i%8 of byte i/8). The result has length
// ceil(n/8).
func (s *Set) Bytes() []byte {
	out := make([]byte, (s.n+7)/8)
	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
		out[i/8] |= 1 << (uint(i) % 8)
	}
	return out
}

// Permute returns the vector whose bit p(i) equals s's bit i. p must be a
// mapping from [0,n) to [0,n); if p is not injective, later indices win.
// This is the characteristic-vector action ρ(S) from Section 3.1.1 of the
// paper: ρ(S)_v = 1 iff there is u with ρ(u) = v and S_u = 1.
func (s *Set) Permute(p []int) *Set {
	return s.PermuteInto(New(s.n), p)
}

// PermuteInto is Permute writing into a caller-provided set of the same
// length, which is cleared first. It lets loops that permute many rows reuse
// one scratch set instead of allocating per row. Returns out.
func (s *Set) PermuteInto(out *Set, p []int) *Set {
	if len(p) != s.n {
		panic(fmt.Sprintf("bitset: permute mapping has length %d, want %d", len(p), s.n))
	}
	out.sameLen(s, "PermuteInto")
	out.Clear()
	for i := s.NextSet(0); i >= 0; i = s.NextSet(i + 1) {
		out.Add(p[i])
	}
	return out
}
