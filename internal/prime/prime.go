// Package prime finds the prime moduli the paper's hash families need.
//
// Protocol 1 uses a prime p ∈ [10n³, 100n³]; Protocol 2 uses the least
// prime p ∈ [10·n^{n+2}, 100·n^{n+2}]; the GNI protocol's set-size
// estimation uses primes near multiples of n!. All windows are wide enough
// that a prime is guaranteed by Bertrand's postulate, which the paper
// invokes explicitly.
package prime

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
)

// probablyPrimeRounds is the number of Miller-Rabin rounds used for big
// inputs. math/big documents the error probability as at most 4^-rounds;
// below 2^64 the test is exact for rounds >= 1.
const probablyPrimeRounds = 30

// isPrime dispatches on operand size: candidates below 2^64 go through the
// deterministic uint64 Miller-Rabin (primality is a property of the number,
// so the chosen primes — and everything derived from them — are unchanged;
// both tests are exact in that range, this one just skips 30 rounds of
// big.Int exponentiation on the request hot path). Larger candidates keep
// the big.Int test.
func isPrime(p *big.Int) bool {
	if p.IsUint64() {
		return isPrimeUint64(p.Uint64())
	}
	return p.ProbablyPrime(probablyPrimeRounds)
}

// mulmod64 returns a*b mod m using a 128-bit intermediate. Requires
// a, b < m; then the high product word is < m, which bits.Div64 needs.
func mulmod64(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi, lo, m)
	return rem
}

func powmod64(base, exp, m uint64) uint64 {
	result := uint64(1) % m
	base %= m
	for exp > 0 {
		if exp&1 == 1 {
			result = mulmod64(result, base, m)
		}
		base = mulmod64(base, base, m)
		exp >>= 1
	}
	return result
}

// isPrimeUint64 is an exact primality test for the full uint64 range:
// trial division by small primes, then Miller-Rabin with the 12-base set
// {2,3,...,37}, which is deterministic for all n < 3.3·10^24.
func isPrimeUint64(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, q := range [...]uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n == q {
			return true
		}
		if n%q == 0 {
			return false
		}
	}
	// n is odd and > 37 here. Write n-1 = d·2^s with d odd.
	d := n - 1
	s := bits.TrailingZeros64(d)
	d >>= uint(s)
	for _, a := range [...]uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		x := powmod64(a, d, n)
		if x == 1 || x == n-1 {
			continue
		}
		witness := true
		for r := 1; r < s; r++ {
			x = mulmod64(x, x, n)
			if x == n-1 {
				witness = false
				break
			}
		}
		if witness {
			return false
		}
	}
	return true
}

// InWindow returns a prime p with lo <= p <= hi, searching upward from a
// deterministic pseudo-random starting point derived from seed so that
// different seeds exercise different primes in tests. It returns an error if
// the window contains no prime (possible only for tiny or empty windows).
//
// The answer is the first prime at or above the start, or, when there is
// none up to hi, the first prime from the window bottom: a scan that wraps
// once. firstPrime sieves the candidates above 2^64 before testing them,
// which changes how many candidates reach isPrime but not which one is
// returned (DESIGN.md §10).
func InWindow(lo, hi *big.Int, seed int64) (*big.Int, error) {
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
	if firstPrime(p, hi) {
		return p, nil
	}
	if firstPrime(p.Set(start), new(big.Int).Add(start, offset)) {
		return p, nil
	}
	return nil, fmt.Errorf("prime: no prime in [%v, %v]", lo, hi)
}

// The sieve: each segment of sieveSpan consecutive candidates above 2^64
// has the multiples of every prime below sieveBound struck out, so only
// about 7% of the candidates (∏(1-1/q) ≈ e^-γ/ln 4096) pay for isPrime.
const (
	sieveBound = 4096
	sieveSpan  = 2048
)

// sievePrimes lists the primes below sieveBound, ascending.
var sievePrimes = smallPrimes()

func smallPrimes() []uint64 {
	var composite [sieveBound]bool
	var primes []uint64
	for q := uint64(2); q < sieveBound; q++ {
		if composite[q] {
			continue
		}
		for m := q * q; m < sieveBound; m += q {
			composite[m] = true
		}
		primes = append(primes, q)
	}
	return primes
}

// remWords returns x mod m for the magnitude words of a big.Int, most
// significant word last, on either word size.
func remWords(x []big.Word, m uint64) uint64 {
	var r uint64
	for i := len(x) - 1; i >= 0; i-- {
		if bits.UintSize == 64 {
			r = bits.Rem64(r, uint64(x[i]), m)
		} else {
			r = bits.Rem64(r>>32, r<<32|uint64(x[i]), m)
		}
	}
	return r
}

// firstPrime advances p to the smallest prime in [p, b] and reports whether
// there is one (p is left unspecified when there is none). Candidates below
// 2^64 are tested one at a time: isPrime is exact and cheap there. Above
// 2^64 every prime below sieveBound is smaller than the candidate, so a
// candidate it divides is composite; firstPrime strikes those out segment
// by segment and runs isPrime, in ascending order, only on the candidates
// left.
func firstPrime(p, b *big.Int) bool {
	if p.IsUint64() {
		last := uint64(math.MaxUint64)
		if b.IsUint64() {
			last = b.Uint64()
		}
		for x := p.Uint64(); x <= last; x++ {
			if isPrimeUint64(x) {
				p.SetUint64(x)
				return true
			}
			if x == math.MaxUint64 {
				break
			}
		}
		if b.IsUint64() {
			return false
		}
		p.Lsh(p.SetUint64(1), 64)
	}
	var struck [sieveSpan]bool
	left, cand := new(big.Int), new(big.Int)
	for p.Cmp(b) <= 0 {
		span := sieveSpan
		if left.Sub(b, p); left.IsInt64() && left.Int64() < sieveSpan-1 {
			span = int(left.Int64()) + 1
		}
		clear(struck[:span])
		words := p.Bits()
		for _, q := range sievePrimes {
			// p+j ≡ 0 (mod q) first at j = (q - p mod q) mod q.
			for j := (q - remWords(words, q)) % q; j < uint64(span); j += q {
				struck[j] = true
			}
		}
		for j := 0; j < span; j++ {
			if struck[j] {
				continue
			}
			if cand.Add(p, cand.SetInt64(int64(j))); isPrime(cand) {
				p.Set(cand)
				return true
			}
		}
		p.Add(p, left.SetInt64(int64(span)))
	}
	return false
}

// ForCubicWindow returns the Protocol 1 modulus: a prime in [10n³, 100n³].
func ForCubicWindow(n int, seed int64) (*big.Int, error) {
	if n < 1 {
		return nil, fmt.Errorf("prime: n = %d < 1", n)
	}
	n3 := new(big.Int).Exp(big.NewInt(int64(n)), big.NewInt(3), nil)
	lo := new(big.Int).Mul(big.NewInt(10), n3)
	hi := new(big.Int).Mul(big.NewInt(100), n3)
	return InWindow(lo, hi, seed)
}

// ForPowerWindow returns the Protocol 2 modulus: the least prime in
// [10·n^{n+2}, 100·n^{n+2}]. Theorem 3.2's bound holds for every prime in
// the window, so the modulus is a function of n alone and a process needs
// one search per n (DESIGN.md §10). Its bit length is Θ(n log n), which is
// exactly why Protocol 2 costs O(n log n) bits per node.
func ForPowerWindow(n int) (*big.Int, error) {
	lo, hi, err := PowerWindow(n)
	if err != nil {
		return nil, err
	}
	p := new(big.Int).Set(lo)
	if !firstPrime(p, hi) {
		return nil, fmt.Errorf("prime: no prime in [%v, %v]", lo, hi)
	}
	return p, nil
}

// PowerWindow returns the bounds [10·n^{n+2}, 100·n^{n+2}] of the window
// ForPowerWindow scans.
func PowerWindow(n int) (lo, hi *big.Int, err error) {
	if n < 2 {
		return nil, nil, fmt.Errorf("prime: n = %d < 2", n)
	}
	pow := new(big.Int).Exp(big.NewInt(int64(n)), big.NewInt(int64(n+2)), nil)
	return new(big.Int).Mul(big.NewInt(10), pow), new(big.Int).Mul(big.NewInt(100), pow), nil
}

// NearFactorial returns a prime in [mult·n!, 2·mult·n!]. The GNI protocol
// sizes its hash range proportionally to n! so that the yes-instance set of
// size 2·n! and the no-instance set of size n! land on opposite sides of the
// acceptance threshold.
func NearFactorial(n int, mult int64, seed int64) (*big.Int, error) {
	if n < 1 || mult < 1 {
		return nil, fmt.Errorf("prime: invalid n = %d, mult = %d", n, mult)
	}
	f := Factorial(n)
	lo := new(big.Int).Mul(big.NewInt(mult), f)
	hi := new(big.Int).Mul(big.NewInt(2), lo)
	return InWindow(lo, hi, seed)
}

// Factorial returns n! as a big integer.
func Factorial(n int) *big.Int {
	f := big.NewInt(1)
	for i := 2; i <= n; i++ {
		f.Mul(f, big.NewInt(int64(i)))
	}
	return f
}

// IsPrime reports whether p is (with overwhelming probability) prime.
func IsPrime(p *big.Int) bool {
	return isPrime(p)
}
