package hashing

import (
	"fmt"
	"math/big"
	"math/rand"

	"dip/internal/prime"
	"dip/internal/wire"
)

// GSParams holds the parameters of our concrete ε-almost-pairwise-
// independent hash family for the distributed Goldwasser–Sipser protocol
// (Section 4 of the paper).
//
// The paper requires a hash from {0,1}^{n²} (adjacency matrices) to a range
// whose size is proportional to n!, such that (a) the seed is short enough
// to be contributed in small per-node pieces, (b) the hash is computable up
// a spanning tree from per-node row contributions, and (c) a claimed hash
// value is verifiable by the nodes. The paper defers its construction to the
// full version; ours is:
//
//	f_α(x) = Σ_{i} x_i · α^{i+1}            (mod q)   ε-almost-universal
//	h(x)   = ((s·f_α(x) + t) mod q) mod p             range [p]
//
// with p prime ≈ mult·n! and q prime in [100·n⁴·p, 200·n⁴·p]. The seed
// (α, s, t) plus the Goldwasser–Sipser target y is Θ(n log n) bits in total
// and is assembled from per-node bit slices (SeedBits / SliceWidth), so each
// node contributes — and later re-verifies in the prover's echo — its own
// small part, which is exactly the distribution property the paper needs.
//
// Properties (shown in DESIGN.md §4.2 and checked empirically in tests):
//
//	Pr[h(x) = y]                ∈ (1 ± p/q) / p
//	Pr[h(x)=y ∧ h(x')=y']      ≤ (1 + O(n²·p/q + p/q)) / p²   for x ≠ x'
//
// With q ≥ 100·n⁴·p the relative distortion ε is O(1/n²).
type GSParams struct {
	n int      // number of graph vertices
	m int      // hashed-vector dimension: n²
	p *big.Int // range prime, ≈ mult·n!
	q *big.Int // field prime, ∈ [100·n⁴·p, 200·n⁴·p]
}

// NewGSParams derives hash parameters for graphs on n vertices. The range
// prime is drawn from [mult·n!, 2·mult·n!]; the Goldwasser–Sipser analysis
// wants the yes-instance set size 2·n! to be a constant fraction of the
// range, so mult = 4 (range ≈ 4–8·n!) is the standard choice.
func NewGSParams(n int, mult int64, seed int64) (*GSParams, error) {
	return NewGSParamsDim(n, 1, mult, seed)
}

// NewGSParamsDim is NewGSParams for a hashed-vector dimension of
// dimFactor·n² coordinates. The general (automorphism-compensated) GNI
// protocol hashes pairs (adjacency matrix, automorphism indicator) and
// needs dimFactor = 2.
func NewGSParamsDim(n, dimFactor int, mult, seed int64) (*GSParams, error) {
	if n < 2 {
		return nil, fmt.Errorf("hashing: GS params need n >= 2, got %d", n)
	}
	if dimFactor < 1 || dimFactor > 4 {
		return nil, fmt.Errorf("hashing: dimension factor %d outside [1,4]", dimFactor)
	}
	p, err := prime.NearFactorial(n, mult, seed)
	if err != nil {
		return nil, fmt.Errorf("range prime: %w", err)
	}
	n4 := new(big.Int).Exp(big.NewInt(int64(n)), big.NewInt(4), nil)
	lo := new(big.Int).Mul(big.NewInt(100*int64(dimFactor)), new(big.Int).Mul(n4, p))
	hi := new(big.Int).Mul(big.NewInt(2), lo)
	q, err := prime.InWindow(lo, hi, seed+1)
	if err != nil {
		return nil, fmt.Errorf("field prime: %w", err)
	}
	return &GSParams{n: n, m: dimFactor * n * n, p: p, q: q}, nil
}

// N returns the number of graph vertices the parameters were derived for.
func (g *GSParams) N() int { return g.n }

// M returns the hashed-vector dimension (dimFactor·n²).
func (g *GSParams) M() int { return g.m }

// P returns (a copy of) the range prime.
func (g *GSParams) P() *big.Int { return new(big.Int).Set(g.p) }

// Q returns (a copy of) the field prime.
func (g *GSParams) Q() *big.Int { return new(big.Int).Set(g.q) }

// oversample is the number of extra random bits drawn per field element so
// that reduction mod q (or mod p) has negligible bias (≤ 2^-64).
const oversample = 64

// fieldBits is the number of raw random bits backing one element of Z_q.
func (g *GSParams) fieldBits() int { return wire.WidthForBig(g.q) + oversample }

// rangeBits is the number of raw random bits backing the target y ∈ Z_p.
func (g *GSParams) rangeBits() int { return wire.WidthForBig(g.p) + oversample }

// SeedBits returns the total number of raw random bits that define a seed:
// three field elements (α, s, t) and one range element (the target y).
func (g *GSParams) SeedBits() int { return 3*g.fieldBits() + g.rangeBits() }

// SliceWidth returns the number of seed bits each of the n nodes
// contributes: ceil(SeedBits / n). The last node's slice is zero-padded.
func (g *GSParams) SliceWidth() int {
	return (g.SeedBits() + g.n - 1) / g.n
}

// GSSeed is an assembled seed: the hash coefficients and the
// Goldwasser–Sipser target.
type GSSeed struct {
	Alpha, S, T *big.Int // elements of Z_q
	Y           *big.Int // target in Z_p
}

// SeedFromSlices assembles a seed from the n per-node bit slices (each
// SliceWidth bits wide, node 0 first): it reads the seed from their
// concatenation with SeedFromBits.
func (g *GSParams) SeedFromSlices(slices []wire.Message) (*GSSeed, error) {
	if len(slices) != g.n {
		return nil, fmt.Errorf("hashing: %d seed slices, want %d", len(slices), g.n)
	}
	var all wire.Writer
	for i, s := range slices {
		if s.Bits != g.SliceWidth() {
			return nil, fmt.Errorf("hashing: slice %d has %d bits, want %d", i, s.Bits, g.SliceWidth())
		}
		all.WriteBits(s.Data, s.Bits)
	}
	return g.SeedFromBits(all.Message())
}

// RandomSlices draws the n per-node seed slices uniformly at random, as the
// Arthur round of the GNI protocol does (one slice per node).
func (g *GSParams) RandomSlices(rng *rand.Rand) []wire.Message {
	out := make([]wire.Message, g.n)
	for i := range out {
		var w wire.Writer
		for b := 0; b < g.SliceWidth(); b++ {
			w.WriteBool(rng.Intn(2) == 1)
		}
		out[i] = w.Message()
	}
	return out
}

// PowerTable precomputes α^0 .. α^{m} mod q so that provers enumerating many
// permutations can evaluate row terms without repeated modular
// exponentiation.
type PowerTable struct {
	q      *big.Int
	powers []*big.Int
}

// Powers returns a table of α^0..α^{m} mod q, where m = n² is the largest
// exponent RowTerm uses.
func (g *GSParams) Powers(alpha *big.Int) *PowerTable {
	t := &PowerTable{q: g.q, powers: make([]*big.Int, g.m+1)}
	t.powers[0] = big.NewInt(1)
	for i := 1; i <= g.m; i++ {
		t.powers[i] = new(big.Int).Mul(t.powers[i-1], alpha)
		t.powers[i].Mod(t.powers[i], g.q)
	}
	return t
}

// RowTerm evaluates node v's contribution to f_α: the sum of α^{row·n+c+1}
// over the set columns c of the (row-indexed) matrix row. With a power
// table it costs one modular addition per set column. Rows beyond n-1
// address the extra blocks of a widened (dimFactor > 1) domain.
func (g *GSParams) RowTerm(t *PowerTable, row int, cols []int) *big.Int {
	if row < 0 || (row+1)*g.n > g.m {
		panic(fmt.Sprintf("hashing: row %d out of range [0,%d)", row, g.m/g.n))
	}
	sum := new(big.Int)
	for _, c := range cols {
		if c < 0 || c >= g.n {
			panic(fmt.Sprintf("hashing: column %d out of range [0,%d)", c, g.n))
		}
		idx := row*g.n + c + 1
		if idx >= len(t.powers) {
			panic("hashing: power table too small")
		}
		sum.Add(sum, t.powers[idx])
	}
	return sum.Mod(sum, g.q)
}

// RowTermSlow is RowTerm without a power table, using modular
// exponentiation per column; it is what a single node computes once per
// protocol run.
func (g *GSParams) RowTermSlow(alpha *big.Int, row int, cols []int) *big.Int {
	if row < 0 || (row+1)*g.n > g.m {
		panic(fmt.Sprintf("hashing: row %d out of range [0,%d)", row, g.m/g.n))
	}
	sum := new(big.Int)
	e := new(big.Int)
	for _, c := range cols {
		if c < 0 || c >= g.n {
			panic(fmt.Sprintf("hashing: column %d out of range [0,%d)", c, g.n))
		}
		e.SetInt64(int64(row*g.n + c + 1))
		sum.Add(sum, new(big.Int).Exp(alpha, e, g.q))
		sum.Mod(sum, g.q)
	}
	return sum
}

// AddModQ returns (a + b) mod q: the tree-aggregation step for partial f_α
// sums.
func (g *GSParams) AddModQ(a, b *big.Int) *big.Int {
	s := new(big.Int).Add(a, b)
	return s.Mod(s, g.q)
}

// Finish applies the outer pairwise-independent map and the range
// reduction: ((s·fsum + t) mod q) mod p.
func (g *GSParams) Finish(seed *GSSeed, fsum *big.Int) *big.Int {
	z := new(big.Int).Mul(seed.S, fsum)
	z.Add(z, seed.T)
	z.Mod(z, g.q)
	return z.Mod(z, g.p)
}

// SeedFromBits assembles a seed from a concatenated bit string of at least
// SeedBits bits (extra bits are ignored): the bits are split into the four
// raw fields and reduced into the respective moduli. The GNI protocols
// read the seed from the prover's echo of the nodes' slices this way.
func (g *GSParams) SeedFromBits(m wire.Message) (*GSSeed, error) {
	if m.Bits < g.SeedBits() {
		return nil, fmt.Errorf("hashing: %d seed bits, need %d", m.Bits, g.SeedBits())
	}
	r := wire.NewReader(m)
	read := func(width int, mod *big.Int) (*big.Int, error) {
		raw, err := r.ReadBig(width)
		if err != nil {
			return nil, err
		}
		return raw.Mod(raw, mod), nil
	}
	var seed GSSeed
	var err error
	if seed.Alpha, err = read(g.fieldBits(), g.q); err != nil {
		return nil, err
	}
	if seed.S, err = read(g.fieldBits(), g.q); err != nil {
		return nil, err
	}
	if seed.T, err = read(g.fieldBits(), g.q); err != nil {
		return nil, err
	}
	if seed.Y, err = read(g.rangeBits(), g.p); err != nil {
		return nil, err
	}
	return &seed, nil
}
