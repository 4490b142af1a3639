package hashing

import (
	"math/big"
	"math/rand"
	"testing"

	"dip/internal/bitset"
	"dip/internal/prime"
)

func mustFamily(t *testing.T, m int, p int64) *LinearFamily {
	t.Helper()
	f, err := NewLinearFamily(m, big.NewInt(p))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewLinearFamilyValidation(t *testing.T) {
	if _, err := NewLinearFamily(0, big.NewInt(7)); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := NewLinearFamily(4, big.NewInt(1)); err == nil {
		t.Fatal("p=1 accepted")
	}
}

func TestHashIndicatorKnownValues(t *testing.T) {
	// p=101, i=2: coordinates {0,2} hash to 2^1 + 2^3 = 10.
	f := mustFamily(t, 4, 101)
	got := f.HashIndicator(big.NewInt(2), []int{0, 2})
	if got.Int64() != 10 {
		t.Fatalf("hash = %v, want 10", got)
	}
	// Empty set hashes to 0.
	if got := f.HashIndicator(big.NewInt(2), nil); got.Sign() != 0 {
		t.Fatalf("hash of empty = %v", got)
	}
	// Seed 0 hashes everything to 0.
	if got := f.HashIndicator(new(big.Int), []int{0, 1, 2, 3}); got.Sign() != 0 {
		t.Fatalf("hash with seed 0 = %v", got)
	}
}

func TestHashIndicatorRangePanics(t *testing.T) {
	f := mustFamily(t, 4, 101)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f.HashIndicator(big.NewInt(2), []int{4})
}

func TestLinearity(t *testing.T) {
	// Theorem 3.2 (1): h(x + x') = h(x) + h(x') with sums mod p.
	rng := rand.New(rand.NewSource(1))
	p, err := prime.ForCubicWindow(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewLinearFamily(16, p)
	if err != nil {
		t.Fatal(err)
	}
	pv := p.Int64()
	for trial := 0; trial < 50; trial++ {
		seed := f.RandomSeed(rng)
		x := make([]int64, 16)
		y := make([]int64, 16)
		sum := make([]int64, 16)
		for j := range x {
			x[j] = rng.Int63n(pv)
			y[j] = rng.Int63n(pv)
			sum[j] = (x[j] + y[j]) % pv
		}
		lhs := f.HashDense(seed, sum)
		rhs := f.AddMod(f.HashDense(seed, x), f.HashDense(seed, y))
		if lhs.Cmp(rhs) != 0 {
			t.Fatalf("linearity violated: %v != %v", lhs, rhs)
		}
	}
}

func TestRowMatrixDecomposition(t *testing.T) {
	// Hashing a full matrix row-by-row and summing must equal hashing the
	// flattened indicator directly.
	rng := rand.New(rand.NewSource(2))
	n := 5
	p, err := prime.ForCubicWindow(n, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewLinearFamily(n*n, p)
	if err != nil {
		t.Fatal(err)
	}
	seed := f.RandomSeed(rng)

	rows := make([]*bitset.Set, n)
	var flat []int
	for v := 0; v < n; v++ {
		rows[v] = bitset.New(n)
		for c := 0; c < n; c++ {
			if rng.Intn(2) == 1 {
				rows[v].Add(c)
				flat = append(flat, v*n+c)
			}
		}
	}
	tab := f.RowTable(seed, n)
	total := new(big.Int)
	for v := 0; v < n; v++ {
		total = f.AddMod(total, tab.Hash(v, rows[v]))
	}
	direct := f.HashIndicator(seed, flat)
	if total.Cmp(direct) != 0 {
		t.Fatalf("row decomposition: %v != %v", total, direct)
	}
}

func TestHashRowMatrixPanics(t *testing.T) {
	f := mustFamily(t, 16, 101)
	cases := []func(){
		func() { f.RowTable(big.NewInt(1), 5) },                        // n does not divide m
		func() { f.RowTable(big.NewInt(1), 0) },                        // empty rows
		func() { f.RowTable(big.NewInt(1), 4).Hash(4, bitset.New(4)) }, // row range
		func() { f.RowTable(big.NewInt(1), 2).Hash(8, bitset.New(2)) }, // row range, m/n = 8
		func() { f.RowTable(big.NewInt(1), 4).Hash(0, bitset.New(3)) }, // row length
		func() { f.HashDense(big.NewInt(1), make([]int64, 3)) },        // dense length
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

func TestCollisionBound(t *testing.T) {
	// Theorem 3.2 (2): for x != x', Pr_i[h_i(x)=h_i(x')] <= m/p. With a
	// small prime we can enumerate ALL seeds and count collisions exactly.
	m := 9
	p := int64(97)
	f := mustFamily(t, m, p)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		x := []int{rng.Intn(m)}
		y := []int{rng.Intn(m)}
		for y[0] == x[0] {
			y[0] = rng.Intn(m)
		}
		collisions := 0
		for i := int64(0); i < p; i++ {
			if f.HashIndicator(big.NewInt(i), x).Cmp(f.HashIndicator(big.NewInt(i), y)) == 0 {
				collisions++
			}
		}
		if float64(collisions) > float64(m) {
			t.Fatalf("collisions = %d over p=%d seeds, bound m=%d", collisions, p, m)
		}
	}
}

func TestCollisionRateAtProtocolParameters(t *testing.T) {
	// With p in [10n³,100n³] and m = n², the bound m/p <= 1/(10n) is what
	// gives Protocol 1 soundness 1/3 with room to spare. Sample seeds.
	n := 6
	p, err := prime.ForCubicWindow(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewLinearFamily(n*n, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	x := []int{0, 7, 13}
	y := []int{0, 7, 14}
	collisions := 0
	const trials = 4000
	for i := 0; i < trials; i++ {
		seed := f.RandomSeed(rng)
		if f.HashIndicator(seed, x).Cmp(f.HashIndicator(seed, y)) == 0 {
			collisions++
		}
	}
	// Bound: m/p = 36/2160+ < 0.017; allow generous sampling slack.
	if rate := float64(collisions) / trials; rate > 0.05 {
		t.Fatalf("collision rate %.4f exceeds bound", rate)
	}
}

func TestSeedHelpers(t *testing.T) {
	f := mustFamily(t, 4, 101)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		if s := f.RandomSeed(rng); s.Sign() < 0 || s.Cmp(f.P()) >= 0 {
			t.Fatalf("RandomSeed produced invalid %v", s)
		}
	}
	if f.Size().Int64() != 101 || f.P().Int64() != 101 || f.M() != 4 {
		t.Fatal("accessors wrong")
	}
	// P returns a copy.
	f.P().SetInt64(7)
	if f.P().Int64() != 101 {
		t.Fatal("P aliases internal state")
	}
}

// bigPathFamily returns a family identical to f except that the uint64
// fast path is disabled, forcing every evaluation through big.Int.
func bigPathFamily(t *testing.T, f *LinearFamily) *LinearFamily {
	t.Helper()
	g, err := NewLinearFamily(f.M(), f.P())
	if err != nil {
		t.Fatal(err)
	}
	g.pSmall = 0
	return g
}

// TestSmallModulusFastPathMatchesBig cross-checks the uint64 evaluation
// against the big.Int reference over random seeds, coordinate sets, and
// row matrices. The two paths must agree bit-for-bit: cached reports are
// compared byte-identically against cold runs downstream.
func TestSmallModulusFastPathMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{3, 5, 8, 12} {
		p, err := prime.ForCubicWindow(n, 7)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := NewLinearFamily(n*n, p)
		if err != nil {
			t.Fatal(err)
		}
		if fast.pSmall == 0 {
			t.Fatalf("n=%d: cubic-window modulus %v did not take the fast path", n, p)
		}
		slow := bigPathFamily(t, fast)
		for trial := 0; trial < 50; trial++ {
			i := fast.RandomSeed(rng)
			coords := make([]int, 0, n)
			row := bitset.New(n)
			for c := 0; c < n; c++ {
				if rng.Intn(2) == 1 {
					coords = append(coords, rng.Intn(n*n))
					row.Add(c)
				}
			}
			if got, want := fast.HashIndicator(i, coords), slow.HashIndicator(i, coords); got.Cmp(want) != 0 {
				t.Fatalf("n=%d HashIndicator(%v, %v) = %v, big path %v", n, i, coords, got, want)
			}
			r := rng.Intn(n)
			got, want := fast.RowTable(i, n).Hash(r, row), slow.RowTable(i, n).Hash(r, row)
			if got.Cmp(want) != 0 {
				t.Fatalf("n=%d RowTable(%v).Hash(row %d) = %v, big path %v", n, i, r, got, want)
			}
			sum := fast.AddMod(got, want)
			if sum.Cmp(slow.AddMod(got, want)) != 0 {
				t.Fatalf("n=%d AddMod mismatch", n)
			}
		}
		// Out-of-range and huge seeds must fall back, still correct.
		huge := new(big.Int).Add(fast.P(), big.NewInt(5))
		if got, want := fast.HashIndicator(huge, []int{1, 3}), slow.HashIndicator(huge, []int{1, 3}); got.Cmp(want) != 0 {
			t.Fatalf("n=%d out-of-range seed: %v vs %v", n, got, want)
		}
	}
}

// TestAddModIntoMatchesMod checks AddModInto against (a + b) mod p on a
// modulus below 2^32 and one above 2^64: on random residues, which take
// the one-subtraction path, and on 0, 1, p−1, p, 2p and negative operands
// in every pairing (1 + (p−1) sums to exactly p), which must still reduce
// in full. The result must reuse dst and leave b unchanged.
func TestAddModIntoMatchesMod(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cubic, err := prime.ForCubicWindow(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	power, err := prime.ForPowerWindow(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*big.Int{cubic, power} {
		f, err := NewLinearFamily(16, p)
		if err != nil {
			t.Fatal(err)
		}
		edges := []*big.Int{
			new(big.Int),
			big.NewInt(1),
			new(big.Int).Sub(p, big.NewInt(1)),
			new(big.Int).Set(p),
			new(big.Int).Lsh(p, 1),
			big.NewInt(-1),
			new(big.Int).Neg(p),
			new(big.Int).Sub(big.NewInt(-3), p),
		}
		var pairs [][2]*big.Int
		for _, a := range edges {
			for _, b := range edges {
				pairs = append(pairs, [2]*big.Int{a, b})
			}
		}
		for k := 0; k < 500; k++ {
			pairs = append(pairs, [2]*big.Int{f.RandomSeed(rng), f.RandomSeed(rng)})
		}
		for _, ab := range pairs {
			a, b := ab[0], ab[1]
			want := new(big.Int).Add(a, b)
			want.Mod(want, p)
			bWas := new(big.Int).Set(b)
			dst := new(big.Int).Set(a)
			got := f.AddModInto(dst, b)
			if got != dst || got.Cmp(want) != 0 || b.Cmp(bWas) != 0 {
				t.Fatalf("p=%v: AddModInto(%v, %v) = %v (reused dst: %v, b now %v), want %v",
					p, a, bWas, got, got == dst, b, want)
			}
		}
	}
}

// TestRunningPowersMatchDense checks HashIndicator, which reduces the
// seed mod p and exponentiates it per coordinate, and RowTable, which
// takes its powers from a table, against HashDense, which exponentiates
// the seed as given. It covers both evaluation paths (a cubic-window
// modulus below 2^32 and a power-window modulus above 2^64),
// coordinates sorted, shuffled and repeated (a repeat counts twice),
// seeds at and beyond the edges of Z_p, and families of dimension 2n²,
// whose rows run up to 2n−1 (gni-general's τ block).
func TestRunningPowersMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cubic, err := prime.ForCubicWindow(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	power, err := prime.ForPowerWindow(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		n      int
		p      *big.Int
		small  bool
		blocks int
	}{
		{"cubic-window", 12, cubic, true, 1},
		{"cubic-window, two blocks", 12, cubic, true, 2},
		{"power-window", 16, power, false, 1},
		{"power-window, two blocks", 8, power, false, 2},
	} {
		n, m := tc.n, tc.blocks*tc.n*tc.n
		f, err := NewLinearFamily(m, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if (f.pSmall != 0) != tc.small {
			t.Fatalf("%s: modulus %v took the wrong path", tc.name, tc.p)
		}
		seeds := []*big.Int{
			new(big.Int),
			new(big.Int).Sub(tc.p, big.NewInt(1)),
			new(big.Int).Add(tc.p, big.NewInt(5)),
			big.NewInt(-7),
		}
		for k := 0; k < 8; k++ {
			seeds = append(seeds, f.RandomSeed(rng))
		}
		for _, i := range seeds {
			for trial := 0; trial < 20; trial++ {
				var sorted []int
				for j := 0; j < m; j++ {
					if rng.Intn(3) == 0 {
						sorted = append(sorted, j)
					}
				}
				shuffled := append([]int(nil), sorted...)
				rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
				repeated := append([]int(nil), sorted...)
				for k := 0; k < 6 && len(sorted) > 0; k++ {
					at := rng.Intn(len(repeated))
					repeated = append(repeated[:at+1], repeated[at:]...)
				}
				repeated = append(repeated, shuffled...)
				for _, coords := range [][]int{sorted, shuffled, repeated} {
					dense := make([]int64, m)
					for _, j := range coords {
						dense[j]++
					}
					if got, want := f.HashIndicator(i, coords), f.HashDense(i, dense); got.Cmp(want) != 0 {
						t.Fatalf("%s seed %v HashIndicator(%v) = %v, HashDense %v", tc.name, i, coords, got, want)
					}
				}
				row := rng.Intn(tc.blocks * n)
				r := bitset.New(n)
				dense := make([]int64, m)
				for c := 0; c < n; c++ {
					if rng.Intn(2) == 0 {
						r.Add(c)
						dense[row*n+c] = 1
					}
				}
				if got, want := f.RowTable(i, n).Hash(row, r), f.HashDense(i, dense); got.Cmp(want) != 0 {
					t.Fatalf("%s seed %v RowTable.Hash(row %d) = %v, HashDense %v", tc.name, i, row, got, want)
				}
			}
		}
	}
}

// setBitsMessage returns nbits bits (and a byte of slack) with the given
// coordinates set, plus every bit past nbits set as well: HashBits must
// ignore them.
func setBitsMessage(coords []int, nbits int) []byte {
	data := make([]byte, (nbits+7)/8+1)
	for _, j := range coords {
		data[j/8] |= 1 << (j % 8)
	}
	for j := nbits; j < 8*len(data); j++ {
		data[j/8] |= 1 << (j % 8)
	}
	return data
}

// TestHashBitsMatchesDense checks HashBits and HashIndicator against
// HashDense on coordinate sets whose gaps hit each case of the power walk:
// 1 (one multiplication by i), 64 (the table's last entry), 65 (the first
// gap past the table) and more than 1,000; on lengths that end inside a
// byte, with set bits past them; on seeds 0, p−1, p, above p and negative;
// for a modulus below 2^32 and one above 2^64.
func TestHashBitsMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const m = 2400
	cubic, err := prime.ForCubicWindow(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	power, err := prime.ForPowerWindow(16)
	if err != nil {
		t.Fatal(err)
	}
	run := func(start, gap, count int) []int {
		var coords []int
		for k := 0; k < count && start+k*gap < m; k++ {
			coords = append(coords, start+k*gap)
		}
		return coords
	}
	random := func() []int {
		var coords []int
		for j := 0; j < m; j++ {
			if rng.Intn(5) == 0 {
				coords = append(coords, j)
			}
		}
		return coords
	}
	sets := map[string][]int{
		"gap 1":       run(3, 1, 70),
		"gap 64":      run(5, 64, 30),
		"gap 65":      run(7, 65, 30),
		"gap 1,001":   run(2, 1001, 3),
		"gaps mixed":  {0, 1, 65, 129, 130, 1200, 1264, 2399},
		"first at 64": {63, 64},
		"first at 65": {64, 1100},
		"random":      random(),
		"empty":       nil,
	}
	for _, tc := range []struct {
		name  string
		p     *big.Int
		small bool
	}{
		{"cubic-window", cubic, true},
		{"power-window", power, false},
	} {
		f, err := NewLinearFamily(m, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if (f.pSmall != 0) != tc.small {
			t.Fatalf("%s: modulus %v took the wrong path", tc.name, tc.p)
		}
		seeds := []*big.Int{
			new(big.Int),
			new(big.Int).Sub(tc.p, big.NewInt(1)),
			new(big.Int).Set(tc.p),
			new(big.Int).Add(tc.p, big.NewInt(5)),
			big.NewInt(-7),
			f.RandomSeed(rng),
			f.RandomSeed(rng),
		}
		for name, coords := range sets {
			for _, nbits := range []int{m, m - 1, m - 3, 1203, 130, 65, 64, 8, 7, 1, 0} {
				var in []int
				dense := make([]int64, m)
				for _, j := range coords {
					if j < nbits {
						in = append(in, j)
						dense[j] = 1
					}
				}
				data := setBitsMessage(in, nbits)
				for _, i := range seeds {
					want := f.HashDense(i, dense)
					if got := f.HashBits(i, data, nbits); got.Cmp(want) != 0 {
						t.Fatalf("%s, %s, %d bits, seed %v: HashBits = %v, HashDense %v", tc.name, name, nbits, i, got, want)
					}
					if got := f.HashIndicator(i, in); got.Cmp(want) != 0 {
						t.Fatalf("%s, %s, %d bits, seed %v: HashIndicator = %v, HashDense %v", tc.name, name, nbits, i, got, want)
					}
				}
			}
		}
	}
}

func TestHashBitsPanics(t *testing.T) {
	f := mustFamily(t, 20, 101)
	for _, c := range []struct {
		data  []byte
		nbits int
	}{
		{make([]byte, 3), 21}, // past the dimension
		{make([]byte, 2), 17}, // past the data
		{make([]byte, 3), -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("HashBits(%d bytes, %d bits) did not panic", len(c.data), c.nbits)
				}
			}()
			f.HashBits(big.NewInt(2), c.data, c.nbits)
		}()
	}
}
