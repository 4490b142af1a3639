// Package hashing implements the two hash families the paper's protocols
// are built on:
//
//   - the linear family of Theorem 3.2 (used by Protocols 1 and 2 and the
//     DSym protocol) — see LinearFamily;
//   - a concrete ε-almost-pairwise-independent family with a distributable
//     seed (used by the GNI protocol of Section 4) — see GSParams.
package hashing

import (
	"fmt"
	"math/big"
	"math/rand"

	"dip/internal/bitset"
)

// LinearFamily is the hash family of Theorem 3.2: for a prime p, the family
// {h_i : i ∈ Z_p} of functions from m-coordinate vectors over Z_p to Z_p,
// with
//
//	h_i(x) = Σ_{j=1..m} x_j · i^j  (mod p).
//
// Properties (Theorem 3.2):
//  1. Linearity: h_i(x + x') = h_i(x) + h_i(x') with coordinatewise sums
//     taken mod p — this is what lets the nodes hash the adjacency matrix
//     by each hashing its own row and summing up the spanning tree;
//  2. Collision: for x ≠ x', Pr_i[h_i(x) = h_i(x')] ≤ m/p, because the
//     difference is a non-zero polynomial of degree ≤ m in i.
type LinearFamily struct {
	m int      // dimension of the hashed vectors
	p *big.Int // prime modulus; |H| = p
	// pSmall is the modulus as a uint64 when it is below 2^32 — small
	// enough that products of residues fit in uint64 — and 0 otherwise.
	// Protocol 1's cubic-window modulus (p ≤ 100n³) qualifies for every
	// realistic n, and the evaluation loops below use machine arithmetic
	// for it: the residues are identical to the big.Int path (both compute
	// Σ i^{j+1} mod p over the same ring), only ~20× cheaper and
	// allocation-free per term. Protocol 2's Θ(n log n)-bit modulus never
	// qualifies and always takes the big.Int path.
	pSmall uint64
}

// NewLinearFamily returns the family for m-dimensional vectors over Z_p.
// p must be a prime larger than 1; primality is the caller's contract
// (moduli come from the prime package) and is not re-checked here.
func NewLinearFamily(m int, p *big.Int) (*LinearFamily, error) {
	if m < 1 {
		return nil, fmt.Errorf("hashing: dimension %d < 1", m)
	}
	if p.Cmp(big.NewInt(2)) < 0 {
		return nil, fmt.Errorf("hashing: modulus %v < 2", p)
	}
	f := &LinearFamily{m: m, p: new(big.Int).Set(p)}
	if f.p.IsUint64() {
		if v := f.p.Uint64(); v < 1<<32 {
			f.pSmall = v
		}
	}
	return f, nil
}

// smallSeed reports whether i can take the machine-arithmetic path:
// the modulus is small and 0 ≤ i < p. Out-of-range seeds (adversarial
// callers) fall back to the big.Int path, which reduces them mod p with
// the same result.
func (f *LinearFamily) smallSeed(i *big.Int) (uint64, bool) {
	if f.pSmall == 0 || !i.IsUint64() {
		return 0, false
	}
	v := i.Uint64()
	return v, v < f.pSmall
}

// powmodSmall computes base^exp mod p by square-and-multiply for p < 2^32
// (so every product fits in uint64). base must already be reduced mod p.
func powmodSmall(base, exp, p uint64) uint64 {
	result := uint64(1 % p)
	for exp > 0 {
		if exp&1 == 1 {
			result = result * base % p
		}
		base = base * base % p
		exp >>= 1
	}
	return result
}

// M returns the dimension of the hashed vectors.
func (f *LinearFamily) M() int { return f.m }

// P returns (a copy of) the modulus.
func (f *LinearFamily) P() *big.Int { return new(big.Int).Set(f.p) }

// Size returns |H| = p: the number of functions in the family.
func (f *LinearFamily) Size() *big.Int { return f.P() }

// RandomSeed returns a uniformly random hash index i ∈ Z_p.
func (f *LinearFamily) RandomSeed(rng *rand.Rand) *big.Int {
	return new(big.Int).Rand(rng, f.p)
}

// ValidSeed reports whether i is a valid hash index (0 ≤ i < p).
func (f *LinearFamily) ValidSeed(i *big.Int) bool {
	return i.Sign() >= 0 && i.Cmp(f.p) < 0
}

// HashIndicator evaluates h_i on the characteristic vector of the given
// coordinate set: h_i(χ) = Σ_{j ∈ set} i^{j+1} mod p. Coordinates are
// 0-based; coordinate j corresponds to the monomial i^{j+1} so that the
// constant term is never used and h_i(0) = 0. Coordinates may come in any
// order and repeat; the powers are taken by running powers (see
// smallPowers and bigPowers), cheapest when the coordinates ascend.
func (f *LinearFamily) HashIndicator(i *big.Int, coords []int) *big.Int {
	if iv, ok := f.smallSeed(i); ok {
		pw := smallPowers{i: iv, p: f.pSmall}
		var sum uint64
		for _, j := range coords {
			f.checkCoord(j)
			sum = (sum + pw.next(uint64(j+1))) % f.pSmall
		}
		return new(big.Int).SetUint64(sum)
	}
	pw := newBigPowers(i, f.p)
	sum := new(big.Int)
	for _, j := range coords {
		f.checkCoord(j)
		sum.Add(sum, pw.next(j+1))
		if sum.Cmp(f.p) >= 0 {
			sum.Sub(sum, f.p)
		}
	}
	return sum
}

func (f *LinearFamily) checkCoord(j int) {
	if j < 0 || j >= f.m {
		panic(fmt.Sprintf("hashing: coordinate %d out of range [0,%d)", j, f.m))
	}
}

// smallPowers yields i^e mod p (p < 2^32, i < p) for a sequence of
// exponents e ≥ 1 by running powers: each power is the previous one times
// i^{gap}, and only the first exponent, or one below its predecessor, pays
// a full square-and-multiply. Either way the arithmetic is exact in Z_p,
// so every power equals powmodSmall(i, e, p).
type smallPowers struct {
	i, p      uint64
	cur, prev uint64 // prev = 0: no power taken yet
}

func (w *smallPowers) next(e uint64) uint64 {
	switch {
	case w.prev == 0 || e < w.prev:
		w.cur = powmodSmall(w.i, e, w.p)
	case e > w.prev:
		w.cur = w.cur * powmodSmall(w.i, e-w.prev, w.p) % w.p
	}
	w.prev = e
	return w.cur
}

// bigPowers is smallPowers for a big.Int modulus. The seed is reduced into
// [0, p) once (big.Int.Exp of a negative or oversized base gives the same
// residue), and a gap of one multiplies by it without an exponentiation.
type bigPowers struct {
	i, p, cur, step, e *big.Int
	prev               int // 0: no power taken yet
}

func newBigPowers(i, p *big.Int) *bigPowers {
	return &bigPowers{i: new(big.Int).Mod(i, p), p: p,
		cur: new(big.Int), step: new(big.Int), e: new(big.Int)}
}

// next returns i^e mod p in storage the next call overwrites.
func (w *bigPowers) next(e int) *big.Int {
	switch {
	case w.prev == 0 || e < w.prev:
		w.cur.Exp(w.i, w.e.SetInt64(int64(e)), w.p)
	case e == w.prev+1:
		w.cur.Mod(w.cur.Mul(w.cur, w.i), w.p)
	case e > w.prev:
		w.step.Exp(w.i, w.e.SetInt64(int64(e-w.prev)), w.p)
		w.cur.Mod(w.cur.Mul(w.cur, w.step), w.p)
	}
	w.prev = e
	return w.cur
}

// HashRowMatrix evaluates h_i on the row matrix [row, r] of Section 3.1.1 —
// the n×n boolean matrix that is r in the given row and zero elsewhere —
// flattened row-major into an n²-dimensional vector. The family dimension
// must be n². This is the per-node hash both Sym protocols compute locally:
// node v hashes [v, N(v)] and [ρ(v), ρ(N(v))].
func (f *LinearFamily) HashRowMatrix(i *big.Int, n, row int, r *bitset.Set) *big.Int {
	if n*n != f.m {
		panic(fmt.Sprintf("hashing: matrix side %d for family dimension %d", n, f.m))
	}
	if row < 0 || row >= n {
		panic(fmt.Sprintf("hashing: row %d out of range [0,%d)", row, n))
	}
	if r.Len() != n {
		panic(fmt.Sprintf("hashing: row vector of length %d, want %d", r.Len(), n))
	}
	if iv, ok := f.smallSeed(i); ok {
		// Iterate the set bits directly — no coords slice, no big.Int
		// terms. The coordinates row*n+c are in range by the panics above.
		pw := smallPowers{i: iv, p: f.pSmall}
		var sum uint64
		for c := r.NextSet(0); c >= 0; c = r.NextSet(c + 1) {
			sum = (sum + pw.next(uint64(row*n+c+1))) % f.pSmall
		}
		return new(big.Int).SetUint64(sum)
	}
	coords := make([]int, 0, r.Count())
	for c := r.NextSet(0); c >= 0; c = r.NextSet(c + 1) {
		coords = append(coords, row*n+c)
	}
	return f.HashIndicator(i, coords)
}

// HashDense evaluates h_i on an arbitrary vector x over Z_p given as int64
// coordinates (used by tests to exercise linearity with coefficients > 1).
func (f *LinearFamily) HashDense(i *big.Int, x []int64) *big.Int {
	if len(x) != f.m {
		panic(fmt.Sprintf("hashing: vector of length %d, want %d", len(x), f.m))
	}
	sum := new(big.Int)
	e := new(big.Int)
	coef := new(big.Int)
	for j, xj := range x {
		if xj == 0 {
			continue
		}
		e.SetInt64(int64(j + 1))
		term := new(big.Int).Exp(i, e, f.p)
		coef.SetInt64(xj)
		term.Mul(term, coef)
		sum.Add(sum, term)
		sum.Mod(sum, f.p)
	}
	return sum
}

// AddMod returns (a + b) mod p for this family's modulus: the tree-sum
// operation used when hash values are aggregated up the spanning tree.
func (f *LinearFamily) AddMod(a, b *big.Int) *big.Int {
	if av, ok := f.smallSeed(a); ok {
		if bv, ok := f.smallSeed(b); ok {
			// Both below p < 2^32, so the sum cannot overflow.
			return new(big.Int).SetUint64((av + bv) % f.pSmall)
		}
	}
	s := new(big.Int).Add(a, b)
	return s.Mod(s, f.p)
}

// AddModInto is AddMod for accumulation chains: it folds b into dst, which
// the caller must own exclusively (a fresh hash value, not a decoded message
// field someone else still reads). Reusing dst's storage keeps tree-sum
// loops allocation-free on the small-modulus path.
func (f *LinearFamily) AddModInto(dst, b *big.Int) *big.Int {
	if av, ok := f.smallSeed(dst); ok {
		if bv, ok := f.smallSeed(b); ok {
			return dst.SetUint64((av + bv) % f.pSmall)
		}
	}
	dst.Add(dst, b)
	return dst.Mod(dst, f.p)
}
