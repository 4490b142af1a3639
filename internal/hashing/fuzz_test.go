package hashing

import (
	"math/big"
	"testing"

	"dip/internal/prime"
)

// FuzzHashBits checks HashBits against HashDense on arbitrary bytes, bit
// counts and seeds (at or above p included), for a modulus below 2^32 and
// one above 2^64.
func FuzzHashBits(f *testing.F) {
	f.Add([]byte{0xFF, 0x01}, uint16(9), []byte{3})
	f.Add([]byte{0x01, 0, 0, 0, 0, 0, 0, 0, 0x02}, uint16(72), []byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(make([]byte, 40), uint16(317), []byte{})
	cubic, err := prime.ForCubicWindow(8, 1)
	if err != nil {
		f.Fatal(err)
	}
	power, err := prime.ForPowerWindow(12)
	if err != nil {
		f.Fatal(err)
	}
	const m = 512
	var families []*LinearFamily
	for _, p := range []*big.Int{cubic, power} {
		fam, err := NewLinearFamily(m, p)
		if err != nil {
			f.Fatal(err)
		}
		families = append(families, fam)
	}
	f.Fuzz(func(t *testing.T, data []byte, nbits uint16, seed []byte) {
		n := int(nbits) % (min(8*len(data), m) + 1)
		i := new(big.Int).SetBytes(seed)
		dense := make([]int64, m)
		for j := 0; j < n; j++ {
			dense[j] = int64(data[j/8] >> (j % 8) & 1)
		}
		for _, fam := range families {
			if got, want := fam.HashBits(i, data, n), fam.HashDense(i, dense); got.Cmp(want) != 0 {
				t.Fatalf("p=%v seed %v, %d bits of %x: HashBits = %v, HashDense %v", fam.P(), i, n, data, got, want)
			}
		}
	})
}
