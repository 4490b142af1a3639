// Package hashing implements the two hash families the paper's protocols
// are built on:
//
//   - the linear family of Theorem 3.2 (used by Protocols 1 and 2 and the
//     DSym protocol, and by the GNI protocols for their inner hash, their
//     automorphism check and their Schwartz–Zippel sums) — see
//     LinearFamily;
//   - a concrete ε-almost-pairwise-independent family with a distributable
//     seed (used by the GNI protocol of Section 4) — see GSParams. Its
//     inner layer is a LinearFamily.
package hashing

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
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

// HashIndicator evaluates h_i on the characteristic vector of the given
// coordinate set: h_i(χ) = Σ_{j ∈ set} i^{j+1} mod p. Coordinates are
// 0-based; coordinate j corresponds to the monomial i^{j+1} so that the
// constant term is never used and h_i(0) = 0. Coordinates may come in any
// order and repeat; the powers are taken by a power walk (see smallWalk),
// cheapest when the coordinates ascend.
func (f *LinearFamily) HashIndicator(i *big.Int, coords []int) *big.Int {
	if iv, ok := f.smallSeed(i); ok {
		w := newSmallWalk(iv, f.pSmall)
		var sum uint64
		for _, j := range coords {
			f.checkCoord(j)
			if sum += w.next(j + 1); sum >= f.pSmall {
				sum -= f.pSmall
			}
		}
		return new(big.Int).SetUint64(sum)
	}
	w := newBigWalk(i, f.p)
	sum := new(big.Int)
	for _, j := range coords {
		f.checkCoord(j)
		sum.Add(sum, w.next(j+1))
		if sum.Cmp(f.p) >= 0 {
			sum.Sub(sum, f.p)
		}
	}
	return sum
}

// HashBits evaluates h_i on the first nbits bits of a message, coordinate j
// being bit j of data in the wire package's order (bit j%8 of byte j/8):
// h_i(x) = Σ_{j < nbits, x_j = 1} i^{j+1} mod p. Bits at or past nbits are
// ignored. It equals HashIndicator on the ascending positions of the set
// bits, but reads the message a 64-bit word at a time, the rows of a
// RowTable with rows of 64 columns:
//
//	h_i(x) = Σ_k i^{64k} · Σ_{t ∈ word k} i^{t+1},
//
// the outer sum by Horner's rule in i^64 from the top word down, the inner
// one from a table of i^0..i^64 on the stack (smallWordPowers). A set bit
// costs one addition, a word one multiplication. It panics unless
// 0 ≤ nbits ≤ M() and data holds nbits bits.
func (f *LinearFamily) HashBits(i *big.Int, data []byte, nbits int) *big.Int {
	if nbits < 0 || nbits > f.m || nbits > 8*len(data) {
		panic(fmt.Sprintf("hashing: %d bits of a %d-byte message for dimension %d", nbits, len(data), f.m))
	}
	data = data[:(nbits+7)/8]
	words := (nbits + wordBits - 1) / wordBits
	// Only a message of more than one word reads i^64, and then every
	// power up to it; the top word's Horner step multiplies 0.
	top := min(nbits, wordBits)
	if iv, ok := f.smallSeed(i); ok {
		p := f.pSmall
		var pw [wordBits + 1]uint64
		smallWordPowers(&pw, iv, p, top)
		var acc uint64
		for k := words - 1; k >= 0; k-- {
			// At most 64 terms below 2^32 each: s fits in uint64. acc and
			// s%p are below p < 2^32, so acc·i^64 + s%p ≤ (p−1)² + (p−1) <
			// 2^64: reducing s first is what keeps the step exact.
			var s uint64
			for w := messageWord(data, nbits, k); w != 0; w &= w - 1 {
				s += pw[bits.TrailingZeros64(w)+1]
			}
			acc = (acc*pw[wordBits] + s%p) % p
		}
		return new(big.Int).SetUint64(acc)
	}
	var pw [wordBits + 1]big.Int
	bigWordPowers(&pw, i, f.p, top)
	acc, s := new(big.Int), new(big.Int)
	for k := words - 1; k >= 0; k-- {
		s.SetInt64(0)
		for w := messageWord(data, nbits, k); w != 0; w &= w - 1 {
			s.Add(s, &pw[bits.TrailingZeros64(w)+1])
		}
		acc.Mul(acc, &pw[wordBits])
		acc.Mod(acc.Add(acc, s), f.p)
	}
	return acc
}

// wordBits is the row length HashBits reads a message in.
const wordBits = 64

// messageWord returns bits 64k..64k+63 of the message, bit t of the word
// being message bit 64k+t, with the bits at or past nbits cleared. data
// holds exactly ⌈nbits/8⌉ bytes, so word k < ⌈nbits/64⌉ has at least one.
func messageWord(data []byte, nbits, k int) uint64 {
	var w uint64
	if b := data[8*k:]; len(b) >= 8 {
		w = binary.LittleEndian.Uint64(b)
	} else {
		for j, c := range b {
			w |= uint64(c) << (8 * j)
		}
	}
	if rest := nbits - wordBits*k; rest < wordBits {
		w &= 1<<rest - 1
	}
	return w
}

// smallWordPowers sets pw[e] = i^e mod p for 0 ≤ e ≤ top ≤ 64 (p < 2^32,
// i < p). Two short chains set the anchors, i^1..i^8 and i^16, i^24, ...,
// and every other entry is the product of two anchors, independent of its
// neighbors, so the multiplications overlap instead of waiting on one
// chain of length top.
func smallWordPowers(pw *[wordBits + 1]uint64, i, p uint64, top int) {
	pw[0] = 1 % p
	for e := 1; e <= min(top, 8); e++ {
		pw[e] = pw[e-1] * i % p
	}
	for e := 16; e <= top; e += 8 {
		pw[e] = pw[e-8] * pw[8] % p
	}
	for e := 9; e <= top; e++ {
		if e%8 != 0 {
			pw[e] = pw[e&^7] * pw[e&7] % p
		}
	}
}

// bigWordPowers is smallWordPowers for a big.Int modulus, filled as one
// chain: a big.Int product is a call of its own, with nothing to overlap.
// Every product is reduced mod p, so an oversized or negative seed gives
// the residues big.Int.Exp would.
func bigWordPowers(pw *[wordBits + 1]big.Int, i, p *big.Int, top int) {
	pw[0].SetInt64(1)
	for e := 1; e <= top; e++ {
		pw[e].Mod(pw[e].Mul(&pw[e-1], i), p)
	}
}

func (f *LinearFamily) checkCoord(j int) {
	if j < 0 || j >= f.m {
		panic(fmt.Sprintf("hashing: coordinate %d out of range [0,%d)", j, f.m))
	}
}

// walkTable is how many powers i^1..i^walkTable a power walk keeps.
const walkTable = 64

// smallWalk yields i^e mod p (p < 2^32, i < p) for a sequence of exponents
// e ≥ 1: each power is the previous one times i^gap, with i^gap read from
// a table of i^1..i^walkTable that is filled up to the largest gap met so
// far. A gap beyond the table pays one square-and-multiply, and an
// exponent below its predecessor restarts the walk from i^0. The walk
// lives on its caller's stack, and the arithmetic is exact in Z_p, so
// every power equals powmodSmall(i, e, p).
type smallWalk struct {
	p, cur uint64
	prev   int // the exponent of cur
	filled int // tab[:filled] holds i^1..i^filled
	tab    [walkTable]uint64
}

func newSmallWalk(i, p uint64) smallWalk {
	w := smallWalk{p: p, cur: 1, filled: 1}
	w.tab[0] = i
	return w
}

func (w *smallWalk) next(e int) uint64 {
	if e < w.prev {
		w.cur, w.prev = 1, 0
	}
	if gap := e - w.prev; gap > 0 {
		step := w.tab[0] // a gap of 1, common in dense runs of set bits
		if gap > 1 {
			step = w.step(gap)
		}
		w.cur = w.cur * step % w.p
		w.prev = e
	}
	return w.cur
}

// step returns i^gap for gap ≥ 2.
func (w *smallWalk) step(gap int) uint64 {
	if gap > walkTable {
		return powmodSmall(w.tab[0], uint64(gap), w.p)
	}
	for ; w.filled < gap; w.filled++ {
		w.tab[w.filled] = w.tab[w.filled-1] * w.tab[0] % w.p
	}
	return w.tab[gap-1]
}

// bigWalk is smallWalk for a big.Int modulus. The seed is reduced into
// [0, p) once (big.Int.Exp of a negative or oversized base gives the same
// residue).
type bigWalk struct {
	p            *big.Int
	cur, e, pow  big.Int
	prev, filled int
	tab          [walkTable]big.Int
}

func newBigWalk(i, p *big.Int) *bigWalk {
	w := &bigWalk{p: p, filled: 1}
	w.cur.SetInt64(1)
	w.tab[0].Mod(i, p)
	return w
}

// next returns i^e mod p in storage the next call overwrites.
func (w *bigWalk) next(e int) *big.Int {
	if e < w.prev {
		w.cur.SetInt64(1)
		w.prev = 0
	}
	if gap := e - w.prev; gap > 0 {
		w.cur.Mod(w.cur.Mul(&w.cur, w.step(gap)), w.p)
		w.prev = e
	}
	return &w.cur
}

func (w *bigWalk) step(gap int) *big.Int {
	if gap > walkTable {
		return w.pow.Exp(&w.tab[0], w.e.SetInt64(int64(gap)), w.p)
	}
	for ; w.filled < gap; w.filled++ {
		t := &w.tab[w.filled]
		t.Mod(t.Mul(&w.tab[w.filled-1], &w.tab[0]), w.p)
	}
	return &w.tab[gap-1]
}

// RowTable hashes the row matrices [row, r] of Section 3.1.1 — the
// matrix of n columns that is r in the given row and zero elsewhere,
// flattened row-major — under one index i. It is the per-node hash of the
// Sym protocols, where the family's dimension is n²: node v hashes
// [v, N(v)] and [ρ(v), ρ(N(v))], and the prover hashes every node's pair.
// The GNI protocols hash their rows of σ(G_b) through it, and gni-general
// its τ block too, as rows n..2n−1 of a family of dimension 2n². Since
//
//	h_i([row, r]) = Σ_{c∈r} i^{row·n+c+1} = i^{row·n} · Σ_{c∈r} i^{c+1},
//
// the table keeps i^k for k ≤ n and i^{vn} for v < m/n, and a row hash
// costs one addition per set bit and one multiplication, with no
// exponentiation. The arithmetic is exact in Z_p, so every hash equals
// the one HashIndicator gives for the row's coordinates.
//
// On the big.Int path a table also remembers, per row, the last vector it
// hashed there and that hash: one (vector, residue) pair per row, the
// vector compared in full. In an honest Sym run that pair is all a row
// ever sees, since for an automorphism ρ, [ρ(v), ρ(N[v])] = [ρ(v),
// N[ρ(v)]]: every b-hash is the a-hash of row ρ(v), and a host's prover
// and verifiers share the table (see core's symKit.rowTable), so each row
// is multiplied and reduced once per run. A vector that differs (a
// corrupted share, another σ of a GNI search) is hashed and takes the
// row's place. The uint64 path computes every hash: its multiplication
// costs less than the copy a reuse would return.
//
// A table is used from one goroutine, like the memo that holds it.
type RowTable struct {
	f *LinearFamily
	n int
	// The powers i^0..i^n, then i^{0·n}..i^{(m/n−1)·n}: in small when
	// the family's modulus is below 2^32 (pSmall ≠ 0), in big otherwise.
	small []uint64
	big   []big.Int
	// Big path only: last[row] is the vector last hashed at row and
	// hash[row] its hash, with words carved from one array of m/n·len(p)
	// words, so storing one allocates nothing. They start as the empty
	// vector and 0, its hash.
	last []bitset.Set
	hash []big.Int
}

// RowTable builds the table of hash index i (reduced mod p) for rows of n
// columns. The family dimension must be a multiple of n; the rows run
// below m/n.
func (f *LinearFamily) RowTable(i *big.Int, n int) *RowTable {
	if n < 1 || f.m%n != 0 {
		panic(fmt.Sprintf("hashing: row length %d for family dimension %d", n, f.m))
	}
	rows := f.m / n
	t := &RowTable{f: f, n: n}
	if f.pSmall != 0 {
		iv, ok := f.smallSeed(i)
		if !ok {
			iv = new(big.Int).Mod(i, f.p).Uint64()
		}
		t.small = make([]uint64, n+1+rows)
		t.small[0] = 1 % f.pSmall
		for k := 1; k <= n; k++ {
			t.small[k] = t.small[k-1] * iv % f.pSmall
		}
		hi := t.small[n+1:]
		hi[0] = t.small[0]
		for v := 1; v < rows; v++ {
			hi[v] = hi[v-1] * t.small[n] % f.pSmall
		}
		return t
	}
	t.big = make([]big.Int, n+1+rows)
	t.big[0].SetInt64(1)
	t.big[1].Mod(i, f.p)
	for k := 2; k <= n; k++ {
		t.big[k].Mod(t.big[k].Mul(&t.big[k-1], &t.big[1]), f.p)
	}
	hi := t.big[n+1:]
	hi[0].SetInt64(1)
	for v := 1; v < rows; v++ {
		hi[v].Mod(hi[v].Mul(&hi[v-1], &t.big[n]), f.p)
	}
	t.last = bitset.NewSlice(rows, n)
	t.hash = make([]big.Int, rows)
	w := len(f.p.Bits())
	words := make([]big.Word, rows*w)
	for v := range t.hash {
		t.hash[v].SetBits(words[v*w : v*w : (v+1)*w])
	}
	return t
}

// Hash returns h_i([row, r]) for row < m/n and r of length n, in a
// big.Int the caller owns. It keeps no reference to r.
func (t *RowTable) Hash(row int, r *bitset.Set) *big.Int {
	if rows := t.f.m / t.n; row < 0 || row >= rows {
		panic(fmt.Sprintf("hashing: row %d out of range [0,%d)", row, rows))
	}
	if r.Len() != t.n {
		panic(fmt.Sprintf("hashing: row vector of length %d, want %d", r.Len(), t.n))
	}
	if p := t.f.pSmall; p != 0 {
		// At most n terms below 2^32 each: the sum fits in uint64.
		var sum uint64
		for c := r.NextSet(0); c >= 0; c = r.NextSet(c + 1) {
			sum += t.small[c+1]
		}
		return new(big.Int).SetUint64(sum % p * t.small[t.n+1+row] % p)
	}
	if t.last[row].Equal(r) {
		return new(big.Int).Set(&t.hash[row])
	}
	// The column sum stays below n·p and the product below n·p², so one
	// buffer of 3w words holds both and neither regrows as it is formed.
	w := len(t.f.p.Bits()) + 1
	buf := make([]big.Word, 3*w)
	sum := new(big.Int).SetBits(buf[:0:w])
	for c := r.NextSet(0); c >= 0; c = r.NextSet(c + 1) {
		sum.Add(sum, &t.big[c+1])
	}
	h := new(big.Int).SetBits(buf[w:w])
	h.Mul(sum, &t.big[t.n+1+row])
	h.Mod(h, t.f.p)
	t.last[row].CopyFrom(r)
	t.hash[row].Set(h)
	return h
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
// loops allocation-free on the small-modulus path. On the big-modulus path,
// operands that are both residues in [0, p), as every tree sum's are, sum
// below 2p, so one subtraction of p replaces the division; any other
// operand still goes through Mod.
func (f *LinearFamily) AddModInto(dst, b *big.Int) *big.Int {
	if av, ok := f.smallSeed(dst); ok {
		if bv, ok := f.smallSeed(b); ok {
			return dst.SetUint64((av + bv) % f.pSmall)
		}
	}
	if f.isResidue(dst) && f.isResidue(b) {
		if dst.Add(dst, b); dst.Cmp(f.p) >= 0 {
			dst.Sub(dst, f.p)
		}
		return dst
	}
	dst.Add(dst, b)
	return dst.Mod(dst, f.p)
}

// isResidue reports whether x lies in [0, p).
func (f *LinearFamily) isResidue(x *big.Int) bool {
	return x.Sign() >= 0 && x.Cmp(f.p) < 0
}
