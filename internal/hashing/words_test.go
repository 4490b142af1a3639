package hashing

import (
	"math/big"
	"math/rand"
	"testing"

	"dip/internal/bitset"
	"dip/internal/prime"
)

// maxSmallPrime is the greatest prime below 2^32: the largest modulus the
// uint64 path takes, where a Horner step that reduced its word sum too
// late would overflow.
const maxSmallPrime = 1<<32 - 5

// TestHashBitsWordEdges checks the word-wise HashBits against
// HashIndicator and HashDense at the lengths where words begin and end (0,
// 1, 63, 64, 65, 127, 128, 129 and the family dimension), on messages with
// set bits past nbits in the same word and in later bytes, on data whose
// length is not a multiple of 8, under seeds 0, 1, p−1, p and above p, for
// three moduli: the greatest prime below 2^32 (on all-ones words, every
// word sum as large as it gets), a cubic-window prime and a power-window
// prime above 2^64.
func TestHashBitsWordEdges(t *testing.T) {
	const m = 300
	cubic, err := prime.ForCubicWindow(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	power, err := prime.ForPowerWindow(16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	for _, tc := range []struct {
		name  string
		p     *big.Int
		small bool
	}{
		{"2^32-5", big.NewInt(maxSmallPrime), true},
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
			big.NewInt(0),
			big.NewInt(1),
			new(big.Int).Sub(tc.p, big.NewInt(1)),
			new(big.Int).Set(tc.p),
			new(big.Int).Add(tc.p, big.NewInt(3)),
			new(big.Int).Lsh(tc.p, 70),
			f.RandomSeed(rng),
		}
		// Each pattern fills a message of ⌈nbits/8⌉ + slack bytes, so set
		// bits run on past nbits in its last word and in the bytes after.
		patterns := map[string]func(j int) bool{
			"all ones":     func(int) bool { return true },
			"word edges":   func(j int) bool { return j%64 == 0 || j%64 == 63 },
			"one per byte": func(j int) bool { return j%8 == 5 },
			"random":       func(int) bool { return rng.Intn(3) == 0 },
		}
		for name, set := range patterns {
			for _, nbits := range []int{0, 1, 63, 64, 65, 127, 128, 129, m} {
				for _, slack := range []int{0, 1, 3, 8} {
					data := make([]byte, (nbits+7)/8+slack)
					var coords []int
					dense := make([]int64, m)
					for j := 0; j < 8*len(data); j++ {
						if !set(j) {
							continue
						}
						data[j/8] |= 1 << (j % 8)
						if j < nbits {
							coords = append(coords, j)
							dense[j] = 1
						}
					}
					for _, i := range seeds {
						got := f.HashBits(i, data, nbits)
						if want := f.HashIndicator(i, coords); got.Cmp(want) != 0 {
							t.Fatalf("%s, %s, %d bits of %d bytes, seed %v: HashBits = %v, HashIndicator %v",
								tc.name, name, nbits, len(data), i, got, want)
						}
						if want := f.HashDense(i, dense); got.Cmp(want) != 0 {
							t.Fatalf("%s, %s, %d bits of %d bytes, seed %v: HashBits = %v, HashDense %v",
								tc.name, name, nbits, len(data), i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestHashBitsWordStepOverflow pins the one Horner step that overflows a
// uint64 when the word sum is reduced too late: under the greatest prime
// p below 2^32, a seed i with i^64 ≡ p−2 (−2 is a square mod p, and 64 is
// invertible on the squares, whose order (p−1)/2 is odd), and a message
// whose top word holds only bit 63, the accumulator reaches the last word
// at p−2, so acc·i^64 = (p−2)² > 2^64 − 14·2^32, and the all-ones last
// word's sum of 64 residues exceeds what is left below 2^64.
func TestHashBitsWordStepOverflow(t *testing.T) {
	p := big.NewInt(maxSmallPrime)
	f, err := NewLinearFamily(128, p)
	if err != nil {
		t.Fatal(err)
	}
	y := new(big.Int).Sub(p, big.NewInt(2))
	order := new(big.Int).Rsh(p, 1) // (p−1)/2
	e := new(big.Int).ModInverse(big.NewInt(64), order)
	i := new(big.Int).Exp(y, e, p)
	if got := new(big.Int).Exp(i, big.NewInt(64), p); got.Cmp(y) != 0 {
		t.Fatalf("i^64 = %v, want p−2 = %v", got, y)
	}
	data := make([]byte, 16)
	coords := make([]int, 0, 65)
	for j := 0; j < 64; j++ {
		data[j/8] |= 1 << (j % 8)
		coords = append(coords, j)
	}
	data[15] = 0x80
	coords = append(coords, 127)
	var raw uint64 // the last word's sum before reduction
	for j := 1; j <= 64; j++ {
		raw += new(big.Int).Exp(i, big.NewInt(int64(j)), p).Uint64()
	}
	if ym := y.Uint64(); raw <= ^uint64(0)-ym*ym {
		t.Fatalf("the last word's sum %d leaves (p−2)² + sum below 2^64: the case does not overflow", raw)
	}
	if got, want := f.HashBits(i, data, 128), f.HashIndicator(i, coords); got.Cmp(want) != 0 {
		t.Fatalf("HashBits = %v, HashIndicator %v", got, want)
	}
}

// TestRowTableReuse drives one row of a big-path table through the
// sequences its per-row reuse must survive, and requires every answer to
// equal HashIndicator on the row's coordinates: two vectors alternating
// on one row; a returned hash folded into a sum with AddModInto, then the
// row hashed again; the caller's vector changed after a call, then hashed
// again; a row, left alone, while another row changes. The rows are 70
// columns wide, so a vector spans two words. The uint64 path runs the same
// sequences.
func TestRowTableReuse(t *testing.T) {
	const n = 70
	power, err := prime.ForPowerWindow(16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct {
		name  string
		p     *big.Int
		small bool
	}{
		{"power-window", power, false},
		{"2^32-5", big.NewInt(maxSmallPrime), true},
	} {
		f, err := NewLinearFamily(n*n, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		if (f.pSmall != 0) != tc.small {
			t.Fatalf("%s: modulus %v took the wrong path", tc.name, tc.p)
		}
		i := f.RandomSeed(rng)
		tab := f.RowTable(i, n)
		check := func(step string, row int, r *bitset.Set, got *big.Int) {
			t.Helper()
			var coords []int
			for c := r.NextSet(0); c >= 0; c = r.NextSet(c + 1) {
				coords = append(coords, row*n+c)
			}
			if want := f.HashIndicator(i, coords); got.Cmp(want) != 0 {
				t.Fatalf("%s: %s: row %d %v hashes to %v, want %v", tc.name, step, row, r, got, want)
			}
		}
		hash := func(step string, row int, r *bitset.Set) *big.Int {
			t.Helper()
			h := tab.Hash(row, r)
			check(step, row, r, h)
			return h
		}

		x := bitset.FromIndices(n, 0, 3, 64, 69)
		y := bitset.FromIndices(n, 0, 3, 65, 69) // x with one bit of its second word moved
		hash("empty row, untouched table", 5, bitset.New(n))
		for k := 0; k < 3; k++ {
			hash("alternating x", 5, x)
			hash("alternating y", 5, y)
		}

		// A returned hash belongs to the caller: folding into it must not
		// reach the table's copy.
		h := hash("before folding", 7, x)
		f.AddModInto(h, big.NewInt(1))
		f.AddModInto(h, f.HashIndicator(i, []int{7*n + 1}))
		hash("after folding the last answer", 7, x)
		h = hash("second answer", 7, x)
		f.AddModInto(h, h)
		hash("after folding the second answer into itself", 7, x)

		// The table keeps no reference to the caller's vector.
		r := x.Clone()
		hash("before the caller's change", 9, r)
		r.Add(10)
		hash("after the caller added a bit", 9, r)
		r.Remove(64)
		r.Remove(10)
		hash("after the caller removed two bits", 9, r)
		hash("the original vector again", 9, x)

		// Rows keep their own pairs.
		hash("row 11 with x", 11, x)
		hash("row 12 with y", 12, y)
		hash("row 11 with x after row 12", 11, x)
		hash("row 12 with x", 12, x)
		hash("row 11 emptied", 11, bitset.New(n))

		for k := 0; k < 40; k++ {
			row := rng.Intn(4)
			r := bitset.New(n)
			for c := 0; c < n; c++ {
				if rng.Intn(3) == 0 {
					r.Add(c)
				}
			}
			hash("random", row, r)
			hash("random, repeated", row, r)
		}
	}
}

// BenchmarkHashBits times one fingerprint of the heavy mix's sym-rpls
// advice shape: a message of 2,406 bits (the advice on a 64-cycle), 257
// of them set, under the cubic-window modulus of n = 64.
func BenchmarkHashBits(b *testing.B) {
	const nbits, set = 2406, 257
	p, err := prime.ForCubicWindow(64, 1)
	if err != nil {
		b.Fatal(err)
	}
	f, err := NewLinearFamily(nbits, p)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	data := make([]byte, (nbits+7)/8)
	for k := 0; k < set; {
		if j := rng.Intn(nbits); data[j/8]&(1<<(j%8)) == 0 {
			data[j/8] |= 1 << (j % 8)
			k++
		}
	}
	seed := f.RandomSeed(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		f.HashBits(seed, data, nbits)
	}
}
