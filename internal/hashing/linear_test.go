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
		func() { f.RowTable(big.NewInt(1), 5) },                        // wrong n
		func() { f.RowTable(big.NewInt(1), 4).Hash(4, bitset.New(4)) }, // row range
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
		s := f.RandomSeed(rng)
		if !f.ValidSeed(s) {
			t.Fatalf("RandomSeed produced invalid %v", s)
		}
	}
	if f.ValidSeed(big.NewInt(101)) || f.ValidSeed(big.NewInt(-1)) {
		t.Fatal("ValidSeed accepted out-of-range")
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

// TestRunningPowersMatchDense checks HashIndicator, which takes powers by
// running powers, and RowTable, which takes them from a table, against
// HashDense, which keeps one full exponentiation per coordinate. It covers both evaluation paths (a
// cubic-window modulus below 2^32 and a power-window modulus above 2^64),
// coordinates sorted, shuffled and repeated (a repeat counts twice, and a
// coordinate below its predecessor restarts the running power), and seeds
// at and beyond the edges of Z_p.
func TestRunningPowersMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	cubic, err := prime.ForCubicWindow(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	power, err := prime.ForPowerWindow(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		n     int
		p     *big.Int
		small bool
	}{
		{"cubic-window", 12, cubic, true},
		{"power-window", 16, power, false},
	} {
		n, m := tc.n, tc.n*tc.n
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
				row := rng.Intn(n)
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
