package prime

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

func TestFactorial(t *testing.T) {
	cases := []struct {
		n    int
		want int64
	}{{0, 1}, {1, 1}, {2, 2}, {5, 120}, {10, 3628800}}
	for _, c := range cases {
		if got := Factorial(c.n); got.Int64() != c.want {
			t.Errorf("Factorial(%d) = %v, want %d", c.n, got, c.want)
		}
	}
	// 20! = 2432902008176640000 still fits in int64.
	if got := Factorial(20); got.Int64() != 2432902008176640000 {
		t.Errorf("Factorial(20) = %v", got)
	}
}

func TestInWindowFindsPrime(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		p, err := InWindow(big.NewInt(100), big.NewInt(200), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !IsPrime(p) {
			t.Fatalf("seed %d: %v not prime", seed, p)
		}
		if p.Cmp(big.NewInt(100)) < 0 || p.Cmp(big.NewInt(200)) > 0 {
			t.Fatalf("seed %d: %v outside window", seed, p)
		}
	}
}

func TestInWindowTiny(t *testing.T) {
	p, err := InWindow(big.NewInt(2), big.NewInt(2), 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Int64() != 2 {
		t.Fatalf("got %v, want 2", p)
	}
}

func TestInWindowNoPrime(t *testing.T) {
	// [24, 28] contains no prime.
	if _, err := InWindow(big.NewInt(24), big.NewInt(28), 3); err == nil {
		t.Fatal("expected no-prime error")
	}
	if _, err := InWindow(big.NewInt(10), big.NewInt(5), 0); err == nil {
		t.Fatal("expected empty-window error")
	}
	if _, err := InWindow(big.NewInt(0), big.NewInt(1), 0); err == nil {
		t.Fatal("expected below-2 error")
	}
}

func TestForCubicWindow(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64, 256} {
		p, err := ForCubicWindow(n, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		n3 := new(big.Int).Exp(big.NewInt(int64(n)), big.NewInt(3), nil)
		lo := new(big.Int).Mul(big.NewInt(10), n3)
		hi := new(big.Int).Mul(big.NewInt(100), n3)
		if p.Cmp(lo) < 0 || p.Cmp(hi) > 0 {
			t.Fatalf("n=%d: p=%v outside [10n³,100n³]", n, p)
		}
		if !IsPrime(p) {
			t.Fatalf("n=%d: %v not prime", n, p)
		}
	}
	if _, err := ForCubicWindow(0, 0); err == nil {
		t.Fatal("n=0 should error")
	}
}

// TestForPowerWindow: the Protocol 2 modulus is the least prime of its
// window, found by the reference scan one candidate at a time from the
// bottom. (sym-dam's TestSymDAMModulusPerN, in the root package, checks
// n = 2..66 through the protocol.)
func TestForPowerWindow(t *testing.T) {
	for n := 2; n <= 16; n++ {
		p, err := ForPowerWindow(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		lo, hi, err := PowerWindow(n)
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Int).Set(lo)
		for !isPrime(want) {
			want.Add(want, big.NewInt(1))
		}
		if p.Cmp(want) != 0 || p.Cmp(hi) > 0 {
			t.Fatalf("n=%d: p=%v, want the least prime %v of [%v, %v]", n, p, want, lo, hi)
		}
	}
	if _, err := ForPowerWindow(1); err == nil {
		t.Fatal("n=1 should error")
	}
}

func TestForPowerWindowBitLength(t *testing.T) {
	// The Protocol 2 modulus must have Θ(n log n) bits; check growth.
	p8, err := ForPowerWindow(8)
	if err != nil {
		t.Fatal(err)
	}
	p16, err := ForPowerWindow(16)
	if err != nil {
		t.Fatal(err)
	}
	if p16.BitLen() <= p8.BitLen() {
		t.Fatalf("bit length not growing: %d then %d", p8.BitLen(), p16.BitLen())
	}
	// n=16: 16^18 = 2^72, window adds < 7 bits.
	if p16.BitLen() < 72 || p16.BitLen() > 80 {
		t.Fatalf("p16 bit length = %d, want about 75", p16.BitLen())
	}
}

func TestNearFactorial(t *testing.T) {
	for _, n := range []int{4, 6, 8} {
		p, err := NearFactorial(n, 4, 1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		f := Factorial(n)
		lo := new(big.Int).Mul(big.NewInt(4), f)
		hi := new(big.Int).Mul(big.NewInt(8), f)
		if p.Cmp(lo) < 0 || p.Cmp(hi) > 0 {
			t.Fatalf("n=%d: p=%v outside [4n!, 8n!]", n, p)
		}
	}
	if _, err := NearFactorial(0, 4, 0); err == nil {
		t.Fatal("n=0 should error")
	}
	if _, err := NearFactorial(4, 0, 0); err == nil {
		t.Fatal("mult=0 should error")
	}
}

func TestDifferentSeedsCanDiffer(t *testing.T) {
	// Not guaranteed for every pair, but across several seeds in a wide
	// window at least two distinct primes should appear.
	seen := map[string]bool{}
	for seed := int64(0); seed < 8; seed++ {
		p, err := ForCubicWindow(32, seed)
		if err != nil {
			t.Fatal(err)
		}
		seen[p.String()] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all seeds produced the same prime: %v", seen)
	}
}

func TestIsPrimeUint64MatchesBig(t *testing.T) {
	// Exhaustive over a small range, then spot checks around the word
	// boundary and in the cubic windows the request path actually scans.
	for n := uint64(0); n < 2000; n++ {
		want := new(big.Int).SetUint64(n).ProbablyPrime(probablyPrimeRounds)
		if got := isPrimeUint64(n); got != want {
			t.Fatalf("n=%d: uint64 test says %v, big.Int says %v", n, got, want)
		}
	}
	spots := []uint64{
		1<<32 - 5, 1<<32 + 15, 2621441, 2621443, 26214400,
		18446744073709551557, 18446744073709551556, // largest uint64 prime and a neighbor
		1<<62 + 1, 1<<61 - 1, // 2^61-1 is a Mersenne prime
	}
	for _, n := range spots {
		want := new(big.Int).SetUint64(n).ProbablyPrime(probablyPrimeRounds)
		if got := isPrimeUint64(n); got != want {
			t.Fatalf("n=%d: uint64 test says %v, big.Int says %v", n, got, want)
		}
	}
}

// inWindowReference is InWindow as it was before the sieve: one candidate
// at a time through isPrime, from the seeded start up to hi, then once from
// the window bottom up to the start.
func inWindowReference(lo, hi *big.Int, seed int64) (*big.Int, error) {
	if lo.Cmp(hi) > 0 {
		return nil, fmt.Errorf("prime: empty window [%v, %v]", lo, hi)
	}
	two := big.NewInt(2)
	if hi.Cmp(two) < 0 {
		return nil, fmt.Errorf("prime: window [%v, %v] below 2", lo, hi)
	}
	start := new(big.Int).Set(lo)
	if start.Cmp(two) < 0 {
		start.Set(two)
	}
	width := new(big.Int).Sub(hi, start)
	width.Add(width, big.NewInt(1))
	rng := rand.New(rand.NewSource(seed))
	offset := new(big.Int).Rand(rng, width)
	p := new(big.Int).Add(start, offset)
	wrapped := false
	for {
		if p.Cmp(hi) > 0 {
			if wrapped {
				return nil, fmt.Errorf("prime: no prime in [%v, %v]", lo, hi)
			}
			wrapped = true
			p.Set(start)
		}
		if isPrime(p) {
			return p, nil
		}
		p.Add(p, big.NewInt(1))
		if wrapped && p.Cmp(new(big.Int).Add(start, offset)) > 0 {
			return nil, fmt.Errorf("prime: no prime in [%v, %v]", lo, hi)
		}
	}
}

// TestInWindowMatchesReference requires the sieved scan to return exactly
// the reference scan's prime, or exactly its error, on every window shape
// the protocols use and on the edges of the sieve: power windows (sym-dam,
// up to about 410 bits), factorial windows (GNI), windows straddling 2^64
// (where the scan switches from one-at-a-time to sieved segments), every
// tiny window (prime-free ones included) and narrow windows above 2^200,
// some wider than one sieve segment.
func TestInWindowMatchesReference(t *testing.T) {
	check := func(lo, hi *big.Int, seed int64) {
		t.Helper()
		want, wantErr := inWindowReference(lo, hi, seed)
		got, err := InWindow(lo, hi, seed)
		switch {
		case wantErr != nil || err != nil:
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("[%v, %v] seed %d: error %v, reference %v", lo, hi, seed, err, wantErr)
			}
		case got.Cmp(want) != 0:
			t.Fatalf("[%v, %v] seed %d: %v, reference %v", lo, hi, seed, got, want)
		case !isPrime(got):
			t.Fatalf("[%v, %v] seed %d: %v not prime", lo, hi, seed, got)
		}
	}
	for n := 2; n <= 66; n++ {
		if testing.Short() && n > 20 {
			break
		}
		pow := new(big.Int).Exp(big.NewInt(int64(n)), big.NewInt(int64(n+2)), nil)
		lo := new(big.Int).Mul(big.NewInt(10), pow)
		hi := new(big.Int).Mul(big.NewInt(100), pow)
		for seed := int64(0); seed < 12; seed++ {
			check(lo, hi, seed)
		}
	}
	for n := 1; n <= 30; n++ {
		lo := new(big.Int).Mul(big.NewInt(4), Factorial(n))
		hi := new(big.Int).Mul(big.NewInt(2), lo)
		for seed := int64(0); seed < 4; seed++ {
			check(lo, hi, seed)
		}
	}
	// 2^64-59 is the largest prime below 2^64 and 2^64+13 the smallest
	// above it, so [2^64-58, 2^64+12] is prime-free.
	w := new(big.Int).Lsh(big.NewInt(1), 64)
	at := func(base *big.Int, d int64) *big.Int { return new(big.Int).Add(base, big.NewInt(d)) }
	for _, win := range [][2]int64{{-58, 12}, {-59, 12}, {-58, 13}, {-59, 13}, {-1, 0}, {0, 13}, {-4000, 4000}, {-100, 5000}} {
		for seed := int64(0); seed < 12; seed++ {
			check(at(w, win[0]), at(w, win[1]), seed)
		}
	}
	for lo := int64(0); lo < 60; lo++ {
		for width := int64(0); width < 12; width++ {
			for seed := int64(0); seed < 3; seed++ {
				check(big.NewInt(lo), big.NewInt(lo+width), seed)
			}
		}
	}
	w = new(big.Int).Lsh(big.NewInt(1), 200)
	for _, width := range []int64{10, 300, 2047, 2048, 5000} {
		for seed := int64(0); seed < 12; seed++ {
			check(w, at(w, width), seed)
		}
	}
}

// TestFirstPrimeCrossesSegments pins the sieve's segment boundary. With P
// the product of the primes below 2048, each of 56P+5 .. 56P+2052 has a
// factor below 2048, and 56P+2053 is prime (Miller–Rabin with 30 rounds).
// A scan from 56P+5 strikes out its whole first segment and must return
// the first candidate of the second; a scan from 56P+6 must return the
// last candidate of its first segment; and InWindow on the prime-free
// [56P+5, 56P+2052] must report no prime. (The reference scan would run
// Miller–Rabin on hundreds of 2,900-bit candidates, so the expected
// answers are stated instead.)
func TestFirstPrimeCrossesSegments(t *testing.T) {
	base := big.NewInt(56)
	for _, q := range sievePrimes {
		if q < 2048 {
			base.Mul(base, new(big.Int).SetUint64(q))
		}
	}
	at := func(d int64) *big.Int { return new(big.Int).Add(base, big.NewInt(d)) }
	want := at(2053)
	for _, from := range []int64{5, 6} {
		p := at(from)
		if !firstPrime(p, at(4000)) || p.Cmp(want) != 0 {
			t.Fatalf("scan from 56P+%d: got 56P+%v, want 56P+2053", from, new(big.Int).Sub(p, base))
		}
	}
	lo, hi := at(5), at(2052)
	noPrime := fmt.Sprintf("prime: no prime in [%v, %v]", lo, hi)
	for seed := int64(0); seed < 3; seed++ {
		if _, err := InWindow(lo, hi, seed); err == nil || err.Error() != noPrime {
			t.Fatalf("prime-free window seed %d: error %v", seed, err)
		}
	}
}

// BenchmarkForPowerWindow times sym-dam's modulus search at n = 64 (about
// 400 bits), which a process runs once.
func BenchmarkForPowerWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ForPowerWindow(64); err != nil {
			b.Fatal(err)
		}
	}
}
