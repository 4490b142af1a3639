package wire

import (
	"math/big"
	"testing"
)

// FuzzReader feeds arbitrary bytes and bit counts into every Reader method:
// none may panic, and all must either succeed or return an error.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0x00}, 3, uint8(1))
	f.Add([]byte{0xFF, 0x12, 0x34}, 20, uint8(7))
	f.Add([]byte{}, 0, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, bits int, width uint8) {
		if bits < 0 || bits > 8*len(data) {
			t.Skip()
		}
		m := Message{Data: data, Bits: bits}
		r := NewReader(m)
		_, _ = r.ReadBool()
		_, _ = r.ReadUint(int(width % 65))
		_, _ = r.ReadInt(int(width % 65))
		_, _ = r.ReadBig(int(width))
		_ = r.Skip(int(width % 17))
		_ = r.Done()
		_ = SamePrefix(m, m, int(width))
		if r.Remaining() < 0 {
			t.Fatal("negative remaining")
		}
	})
}

// FuzzRoundTrip checks that any (value, width) pair that fits round-trips
// exactly through Writer and Reader.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint8(1))
	f.Add(uint64(12345), uint8(14))
	f.Add(^uint64(0), uint8(64))
	f.Fuzz(func(t *testing.T, v uint64, width uint8) {
		w := int(width%64) + 1
		v &= (1 << uint(w)) - 1
		if w == 64 {
			v = ^uint64(0) // ensure full-width case is exercised too
		}
		var wr Writer
		wr.WriteUint(v, w)
		wr.WriteBig(new(big.Int).SetUint64(v), 64)
		r := NewReader(wr.Message())
		got, err := r.ReadUint(w)
		if err != nil || got != v {
			t.Fatalf("uint round trip: %d/%v", got, err)
		}
		gotBig, err := r.ReadBig(64)
		if err != nil || gotBig.Uint64() != v {
			t.Fatalf("big round trip: %v/%v", gotBig, err)
		}
		if r.Done() != nil {
			t.Fatal("unread bits after round trip")
		}
	})
}
