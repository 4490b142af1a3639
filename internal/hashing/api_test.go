package hashing

import (
	"math/big"
	"math/rand"
	"testing"

	"dip/internal/bitset"
	"dip/internal/prime"
	"dip/internal/wire"
)

func mustGS(t testing.TB, n int) *GSParams {
	t.Helper()
	g, err := NewGSParams(n, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewGSParams(t *testing.T) {
	if _, err := NewGSParams(1, 4, 0); err == nil {
		t.Fatal("n=1 accepted")
	}
	g := mustGS(t, 6)
	f := prime.Factorial(6)
	lo := new(big.Int).Mul(big.NewInt(4), f)
	hi := new(big.Int).Mul(big.NewInt(8), f)
	if g.P().Cmp(lo) < 0 || g.P().Cmp(hi) > 0 {
		t.Fatalf("P = %v outside [4·6!, 8·6!]", g.P())
	}
	// q in [100 n^4 p, 400 n^4 p] (window is [lo, 2lo]).
	n4p := new(big.Int).Mul(big.NewInt(6*6*6*6), g.P())
	qlo := new(big.Int).Mul(big.NewInt(100), n4p)
	qhi := new(big.Int).Mul(big.NewInt(200), n4p)
	if g.Q().Cmp(qlo) < 0 || g.Q().Cmp(qhi) > 0 {
		t.Fatalf("Q = %v outside window", g.Q())
	}
	if g.N() != 6 {
		t.Fatal("N wrong")
	}
	// f_α is the Theorem 3.2 family over q, of dimension dimFactor·n².
	for _, dim := range []int{1, 2} {
		g, err := NewGSParamsDim(6, dim, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		if f := g.Family(); f.M() != dim*36 || f.P().Cmp(g.Q()) != 0 {
			t.Fatalf("dimFactor %d: family of dimension %d over %v, want %d over q = %v", dim, f.M(), f.P(), dim*36, g.Q())
		}
	}
}

func TestSeedBitsScaling(t *testing.T) {
	// Seed must be Θ(n log n) bits: check growth and sanity.
	g6, g8 := mustGS(t, 6), mustGS(t, 8)
	if g8.SeedBits() <= g6.SeedBits() {
		t.Fatal("seed bits not growing")
	}
}

// randomSlices draws the n per-node seed slices of ⌈SeedBits/n⌉ bits
// each, as the GNI protocols' first Arthur round does.
func randomSlices(g *GSParams, rng *rand.Rand) []wire.Message {
	width := (g.SeedBits() + g.N() - 1) / g.N()
	out := make([]wire.Message, g.N())
	for i := range out {
		var w wire.Writer
		for b := 0; b < width; b++ {
			w.WriteBool(rng.Intn(2) == 1)
		}
		out[i] = w.Message()
	}
	return out
}

// echo concatenates slices, node 0 first, as the GNI prover's seed echo
// does.
func echo(slices []wire.Message) wire.Message {
	var all wire.Writer
	for _, s := range slices {
		all.WriteBits(s.Data, s.Bits)
	}
	return all.Message()
}

// randomSeed reads a seed from the echo of random slices.
func randomSeed(t testing.TB, g *GSParams, rng *rand.Rand) *GSSeed {
	t.Helper()
	seed, err := g.SeedFromBits(echo(randomSlices(g, rng)))
	if err != nil {
		t.Fatal(err)
	}
	return seed
}

func TestSeedFromSlicesRoundTrip(t *testing.T) {
	g := mustGS(t, 6)
	rng := rand.New(rand.NewSource(2))
	slices := randomSlices(g, rng)
	seed, err := g.SeedFromBits(echo(slices))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*big.Int{seed.Alpha, seed.S, seed.T} {
		if v.Sign() < 0 || v.Cmp(g.Q()) >= 0 {
			t.Fatalf("field element %v out of range", v)
		}
	}
	if seed.Y.Sign() < 0 || seed.Y.Cmp(g.P()) >= 0 {
		t.Fatalf("target %v out of range", seed.Y)
	}
	// Determinism: same slices, same seed.
	seed2, err := g.SeedFromBits(echo(slices))
	if err != nil {
		t.Fatal(err)
	}
	if seed.Alpha.Cmp(seed2.Alpha) != 0 || seed.Y.Cmp(seed2.Y) != 0 {
		t.Fatal("seed from slices not deterministic")
	}
}

func TestSeedFromSlicesValidation(t *testing.T) {
	g := mustGS(t, 6)
	rng := rand.New(rand.NewSource(3))
	slices := randomSlices(g, rng)
	if _, err := g.SeedFromBits(echo(slices[:5])); err == nil {
		t.Fatal("echo of 5 of 6 slices accepted")
	}
	var w wire.Writer
	w.WriteBool(true)
	slices[5] = w.Message()
	if _, err := g.SeedFromBits(echo(slices)); err == nil {
		t.Fatal("echo with a one-bit slice accepted")
	}
}

// TestRowTermMatchesSlow checks f_α's row terms, hashed from a RowTable
// as the GNI nodes and provers hash them, against HashIndicator on the
// row's coordinates: in both blocks of a 2n²-dimensional family, with q
// below 2^32 (n = 6) and above it (n = 8).
func TestRowTermMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{6, 8} {
		g, err := NewGSParamsDim(n, 2, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		f := g.Family()
		seed := randomSeed(t, g, rng)
		tab := f.RowTable(seed.Alpha, n)
		for trial := 0; trial < 30; trial++ {
			row := rng.Intn(2 * n)
			cols := bitset.New(n)
			var coords []int
			for c := 0; c < n; c++ {
				if rng.Intn(2) == 1 {
					cols.Add(c)
					coords = append(coords, row*n+c)
				}
			}
			if fast, slow := tab.Hash(row, cols), f.HashIndicator(seed.Alpha, coords); fast.Cmp(slow) != 0 {
				t.Fatalf("n=%d row %d: RowTable %v, HashIndicator %v", n, row, fast, slow)
			}
		}
	}
}

// TestRowTermPanics pins the range checks a row term gets from RowTable
// (rows below m/n, row vectors of length n) and from bitset (columns
// below n).
func TestRowTermPanics(t *testing.T) {
	g, err := NewGSParamsDim(4, 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab := g.Family().RowTable(big.NewInt(3), 4)
	cases := []func(){
		func() { tab.Hash(8, bitset.New(4)) },
		func() { tab.Hash(-1, bitset.New(4)) },
		func() { tab.Hash(0, bitset.New(5)) },
		func() { bitset.FromIndices(4, 4) },
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			c()
		}()
	}
}

func TestFinishAndAddModQ(t *testing.T) {
	g := mustGS(t, 4)
	seed := &GSSeed{Alpha: big.NewInt(2), S: big.NewInt(3), T: big.NewInt(5), Y: big.NewInt(0)}
	f := big.NewInt(10)
	// (3*10+5) mod q mod p = 35 mod p (q,p >> 35).
	if got := g.Finish(seed, f); got.Int64() != 35 {
		t.Fatalf("Finish = %v, want 35", got)
	}
	// Partial f_α sums fold mod q.
	a := new(big.Int).Sub(g.Q(), big.NewInt(1))
	if got := g.Family().AddModInto(a, big.NewInt(2)); got.Int64() != 1 {
		t.Fatalf("sum mod q wraparound = %v, want 1", got)
	}
}

func TestUniformityOfRange(t *testing.T) {
	// Pr[h(x) = y] must be close to 1/p. Estimate by hashing a fixed input
	// under many random seeds and chi-square-style checking bucket counts.
	// Use a tiny n so p is small enough for buckets to fill.
	g, err := NewGSParams(3, 4, 1) // p ≈ 24..48
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	p := int(g.P().Int64())
	counts := make([]int, p)
	coords := []int{3, 5} // row 1, columns 0 and 2
	const trials = 20000
	for i := 0; i < trials; i++ {
		seed := randomSeed(t, g, rng)
		fsum := g.Family().HashIndicator(seed.Alpha, coords)
		h := g.Finish(seed, fsum)
		counts[h.Int64()]++
	}
	want := float64(trials) / float64(p)
	for y, c := range counts {
		if float64(c) < want*0.6 || float64(c) > want*1.4 {
			t.Fatalf("bucket %d has %d hits, want about %.0f", y, c, want)
		}
	}
}

func TestPairwiseCollisionRate(t *testing.T) {
	// For x ≠ x', Pr[h(x) = h(x')] should be about 1/p: sample seeds and
	// compare two different rows.
	g, err := NewGSParams(3, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	p := float64(g.P().Int64())
	collisions := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		seed := randomSeed(t, g, rng)
		h1 := g.Finish(seed, g.Family().HashIndicator(seed.Alpha, []int{0, 1}))
		h2 := g.Finish(seed, g.Family().HashIndicator(seed.Alpha, []int{0, 2}))
		if h1.Cmp(h2) == 0 {
			collisions++
		}
	}
	rate := float64(collisions) / trials
	if rate > 2.0/p {
		t.Fatalf("pairwise collision rate %.5f, want about 1/p = %.5f", rate, 1/p)
	}
}

func TestSeedFromBitsMatchesSlices(t *testing.T) {
	g := mustGS(t, 6)
	rng := rand.New(rand.NewSource(9))
	all := echo(randomSlices(g, rng))
	if all.Bits == g.SeedBits() {
		t.Fatal("test wants padded slices")
	}
	fromSlices, err := g.SeedFromBits(all)
	if err != nil {
		t.Fatal(err)
	}
	// The padding past SeedBits is ignored.
	var exact wire.Writer
	r := wire.NewReader(all)
	for b := 0; b < g.SeedBits(); b++ {
		bit, err := r.ReadBool()
		if err != nil {
			t.Fatal(err)
		}
		exact.WriteBool(bit)
	}
	fromBits, err := g.SeedFromBits(exact.Message())
	if err != nil {
		t.Fatal(err)
	}
	if fromSlices.Alpha.Cmp(fromBits.Alpha) != 0 || fromSlices.Y.Cmp(fromBits.Y) != 0 ||
		fromSlices.S.Cmp(fromBits.S) != 0 || fromSlices.T.Cmp(fromBits.T) != 0 {
		t.Fatal("SeedFromBits reads the padded echo differently")
	}
	// Too few bits errors.
	var short wire.Writer
	short.WriteUint(1, 10)
	if _, err := g.SeedFromBits(short.Message()); err == nil {
		t.Fatal("short seed accepted")
	}
}
