package hashing

import (
	"fmt"
	"math/big"

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
// with p prime ≈ mult·n! and q prime in [100·n⁴·p, 200·n⁴·p]. The inner
// layer f_α is the Theorem 3.2 family over q (Family), so a node hashes its
// row with a RowTable and the partial sums fold up the tree with
// AddModInto. The seed (α, s, t) plus the Goldwasser–Sipser target y is
// Θ(n log n) bits in total (SeedBits) and is assembled from per-node bit
// slices of ⌈SeedBits/n⌉ bits, so each node contributes — and later
// re-verifies in the prover's echo — its own small part, which is exactly
// the distribution property the paper needs.
//
// Properties (shown in DESIGN.md §4.2 and checked empirically in tests):
//
//	Pr[h(x) = y]                ∈ (1 ± p/q) / p
//	Pr[h(x)=y ∧ h(x')=y']      ≤ (1 + O(n²·p/q + p/q)) / p²   for x ≠ x'
//
// With q ≥ 100·n⁴·p the relative distortion ε is O(1/n²).
type GSParams struct {
	n int           // number of graph vertices
	p *big.Int      // range prime, ≈ mult·n!
	f *LinearFamily // f_α: dimension dimFactor·n², modulus the field prime q
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
	f, err := NewLinearFamily(dimFactor*n*n, q)
	if err != nil {
		return nil, err
	}
	return &GSParams{n: n, p: p, f: f}, nil
}

// N returns the number of graph vertices the parameters were derived for.
func (g *GSParams) N() int { return g.n }

// P returns (a copy of) the range prime.
func (g *GSParams) P() *big.Int { return new(big.Int).Set(g.p) }

// Q returns (a copy of) the field prime.
func (g *GSParams) Q() *big.Int { return g.f.P() }

// Family returns the inner layer f_α: the Theorem 3.2 family of dimension
// dimFactor·n² over the field prime q, whose index is the seed's α.
func (g *GSParams) Family() *LinearFamily { return g.f }

// oversample is the number of extra random bits drawn per field element so
// that reduction mod q (or mod p) has negligible bias (≤ 2^-64).
const oversample = 64

// fieldBits is the number of raw random bits backing one element of Z_q.
func (g *GSParams) fieldBits() int { return wire.WidthForBig(g.f.p) + oversample }

// rangeBits is the number of raw random bits backing the target y ∈ Z_p.
func (g *GSParams) rangeBits() int { return wire.WidthForBig(g.p) + oversample }

// SeedBits returns the total number of raw random bits that define a seed:
// three field elements (α, s, t) and one range element (the target y).
func (g *GSParams) SeedBits() int { return 3*g.fieldBits() + g.rangeBits() }

// GSSeed is an assembled seed: the hash coefficients and the
// Goldwasser–Sipser target.
type GSSeed struct {
	Alpha, S, T *big.Int // elements of Z_q
	Y           *big.Int // target in Z_p
}

// Finish applies the outer pairwise-independent map and the range
// reduction: ((s·fsum + t) mod q) mod p.
func (g *GSParams) Finish(seed *GSSeed, fsum *big.Int) *big.Int {
	z := new(big.Int).Mul(seed.S, fsum)
	z.Add(z, seed.T)
	z.Mod(z, g.f.p)
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
	if seed.Alpha, err = read(g.fieldBits(), g.f.p); err != nil {
		return nil, err
	}
	if seed.S, err = read(g.fieldBits(), g.f.p); err != nil {
		return nil, err
	}
	if seed.T, err = read(g.fieldBits(), g.f.p); err != nil {
		return nil, err
	}
	if seed.Y, err = read(g.rangeBits(), g.p); err != nil {
		return nil, err
	}
	return &seed, nil
}
