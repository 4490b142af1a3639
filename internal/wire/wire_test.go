package wire

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWidthFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{256, 8}, {257, 9}, {1 << 20, 20},
	}
	for _, c := range cases {
		if got := WidthFor(c.n); got != c.want {
			t.Errorf("WidthFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestWidthForBig(t *testing.T) {
	cases := []struct {
		n    int64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {1024, 10}, {1025, 11}}
	for _, c := range cases {
		if got := WidthForBig(big.NewInt(c.n)); got != c.want {
			t.Errorf("WidthForBig(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	huge := new(big.Int).Lsh(big.NewInt(1), 500) // 2^500
	if got := WidthForBig(huge); got != 500 {
		t.Errorf("WidthForBig(2^500) = %d, want 500", got)
	}
	// Against the definition, the bit length of n−1, on both sides of
	// every power of two up to 2^600 and on negative n.
	one := big.NewInt(1)
	for k := 0; k <= 600; k++ {
		pow := new(big.Int).Lsh(one, uint(k))
		for _, d := range []int64{-1, 0, 1} {
			n := new(big.Int).Add(pow, big.NewInt(d))
			want := 0
			if n.Cmp(one) > 0 {
				want = new(big.Int).Sub(n, one).BitLen()
			}
			if got := WidthForBig(n); got != want {
				t.Fatalf("WidthForBig(2^%d%+d) = %d, want %d", k, d, got, want)
			}
			if got := WidthForBig(new(big.Int).Neg(n)); got != 0 {
				t.Fatalf("WidthForBig(-(2^%d%+d)) = %d, want 0", k, d, got)
			}
		}
	}
	p := new(big.Int).Add(huge, big.NewInt(123))
	if allocs := testing.AllocsPerRun(100, func() { WidthForBig(p) }); allocs != 0 {
		t.Errorf("WidthForBig allocates %.0f times per call", allocs)
	}
}

func TestRoundTripMixed(t *testing.T) {
	var w Writer
	w.WriteBool(true)
	w.WriteUint(42, 7)
	w.WriteInt(5, 3)
	w.WriteBig(big.NewInt(1234567), 21)
	w.WriteBool(false)
	wantBits := 1 + 7 + 3 + 21 + 1
	if w.Len() != wantBits {
		t.Fatalf("Len = %d, want %d", w.Len(), wantBits)
	}

	r := NewReader(w.Message())
	if b, err := r.ReadBool(); err != nil || !b {
		t.Fatalf("ReadBool = %v, %v", b, err)
	}
	if v, err := r.ReadUint(7); err != nil || v != 42 {
		t.Fatalf("ReadUint = %d, %v", v, err)
	}
	if v, err := r.ReadInt(3); err != nil || v != 5 {
		t.Fatalf("ReadInt = %d, %v", v, err)
	}
	if v, err := r.ReadBig(21); err != nil || v.Int64() != 1234567 {
		t.Fatalf("ReadBig = %v, %v", v, err)
	}
	if b, err := r.ReadBool(); err != nil || b {
		t.Fatalf("ReadBool = %v, %v", b, err)
	}
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestShortMessage(t *testing.T) {
	var w Writer
	w.WriteUint(3, 2)
	r := NewReader(w.Message())
	if _, err := r.ReadUint(3); !errors.Is(err, ErrShortMessage) {
		t.Fatalf("err = %v, want ErrShortMessage", err)
	}
}

func TestDoneWithUnreadBits(t *testing.T) {
	var w Writer
	w.WriteUint(3, 2)
	r := NewReader(w.Message())
	if err := r.Done(); err == nil {
		t.Fatal("Done with unread bits should error")
	}
}

func TestWriterPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(w *Writer)
	}{
		{"uint overflow", func(w *Writer) { w.WriteUint(8, 3) }},
		{"negative int", func(w *Writer) { w.WriteInt(-1, 8) }},
		{"negative big", func(w *Writer) { w.WriteBig(big.NewInt(-5), 8) }},
		{"big overflow", func(w *Writer) { w.WriteBig(big.NewInt(256), 8) }},
		{"bad width", func(w *Writer) { w.WriteUint(0, 65) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			var w Writer
			tc.f(&w)
		})
	}
}

func TestZeroWidthFields(t *testing.T) {
	var w Writer
	w.WriteUint(0, 0)
	w.WriteBig(new(big.Int), 0)
	if w.Len() != 0 {
		t.Fatalf("zero-width fields cost %d bits", w.Len())
	}
	r := NewReader(w.Message())
	if v, err := r.ReadUint(0); err != nil || v != 0 {
		t.Fatalf("ReadUint(0) = %d, %v", v, err)
	}
}

func TestWriteBits(t *testing.T) {
	var inner Writer
	inner.WriteUint(0x2A, 6)
	m := inner.Message()

	var outer Writer
	outer.WriteBool(true)
	outer.WriteBits(m.Data, m.Bits)
	r := NewReader(outer.Message())
	if _, err := r.ReadBool(); err != nil {
		t.Fatal(err)
	}
	if v, err := r.ReadUint(6); err != nil || v != 0x2A {
		t.Fatalf("nested = %d, %v", v, err)
	}
}

// TestWriteBitsMatchesPerBit checks WriteBits at every writer offset,
// byte-aligned or not, against copying the same bits one at a time, with
// set bits past nbit in the source that must not be copied.
func TestWriteBitsMatchesPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := make([]byte, 8)
	for off := 0; off <= 17; off++ {
		for nbit := 0; nbit <= 8*len(src); nbit++ {
			rng.Read(src)
			var got, want Writer
			for i := 0; i < off; i++ {
				b := i%3 == 0
				got.WriteBool(b)
				want.WriteBool(b)
			}
			got.WriteBits(src, nbit)
			for i := 0; i < nbit; i++ {
				want.WriteBool(src[i/8]>>(i%8)&1 == 1)
			}
			g, w := got.Message(), want.Message()
			if g.Bits != w.Bits || !bytes.Equal(g.Data, w.Data) {
				t.Fatalf("offset %d, %d bits: WriteBits wrote %x/%d, want %x/%d", off, nbit, g.Data, g.Bits, w.Data, w.Bits)
			}
		}
	}
}

// readBigBytewise is ReadBig's wide path as it was before it filled
// words: the value's bytes, read a byte at a time, for one SetBytes call.
func readBigBytewise(r *Reader, width int) (*big.Int, error) {
	if width < 0 || r.pos+width > r.nbit {
		r.pos = r.nbit
		return nil, ErrShortMessage
	}
	buf := make([]byte, (width+7)/8)
	for j := 0; j < len(buf); j++ {
		take := 8
		if j == len(buf)-1 && width%8 != 0 {
			take = width % 8
		}
		buf[len(buf)-1-j] = byte(r.readChunk(take))
	}
	return new(big.Int).SetBytes(buf), nil
}

// TestReadBigMatchesBytewise reads every width from 65 to 700 at every bit
// offset from 0 to 63 out of random bytes, with no bits, a few bits and
// more than a word after the field, and one bit short, and requires the
// value, the error and the position to be those of the byte-wise reader.
func TestReadBigMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, (63+700+70+7)/8)
	for width := 65; width <= 700; width++ {
		for off := 0; off < 64; off++ {
			rng.Read(data)
			for _, extra := range []int{0, 5, 70, -1} {
				m := Message{Data: data[:(off+width+extra+7)/8], Bits: off + width + extra}
				got, want := NewReader(m), NewReader(m)
				if err := errors.Join(got.Skip(off), want.Skip(off)); err != nil {
					t.Fatal(err)
				}
				gv, gerr := got.ReadBig(width)
				wv, werr := readBigBytewise(want, width)
				if gerr != werr || got.pos != want.pos || (gerr == nil && gv.Cmp(wv) != 0) {
					t.Fatalf("width %d offset %d extra %d: ReadBig = %v, %v at %d; byte-wise = %v, %v at %d",
						width, off, extra, gv, gerr, got.pos, wv, werr, want.pos)
				}
			}
		}
	}
}

func TestSkip(t *testing.T) {
	var w Writer
	w.WriteUint(0x155, 9)
	w.WriteUint(0x2A, 6)
	r := NewReader(w.Message())
	if err := r.Skip(9); err != nil {
		t.Fatal(err)
	}
	if v, err := r.ReadUint(6); err != nil || v != 0x2A {
		t.Fatalf("read after Skip(9) = %#x, %v", v, err)
	}
	if err := r.Skip(0); err != nil || r.Done() != nil {
		t.Fatalf("Skip(0) at the end = %v, Done = %v", err, r.Done())
	}
	for _, k := range []int{16, -1} {
		r := NewReader(w.Message())
		if err := r.Skip(k); !errors.Is(err, ErrShortMessage) || r.Remaining() != 0 {
			t.Fatalf("Skip(%d) of 15 bits = %v with %d bits left, want ErrShortMessage and none", k, err, r.Remaining())
		}
	}
}

func TestSamePrefix(t *testing.T) {
	msg := func(data []byte, nbits int) Message { return Message{Data: data, Bits: nbits} }
	a := msg([]byte{0xA5, 0x0F}, 12)
	cases := []struct {
		name string
		b    Message
		k    int
		want bool
	}{
		{"equal, whole", msg([]byte{0xA5, 0x0F}, 12), 12, true},
		{"equal, empty prefix", msg(nil, 0), 0, true},
		{"differs in bit 11", msg([]byte{0xA5, 0x07}, 12), 12, false},
		{"differs only at bit 11, prefix of 11", msg([]byte{0xA5, 0x07}, 12), 11, true},
		{"differs in bit 0", msg([]byte{0xA4, 0x0F}, 12), 12, false},
		{"differs only past the prefix, same byte", msg([]byte{0xA5, 0xF3}, 12), 10, true},
		{"garbage past Bits", msg([]byte{0xA5, 0xFF}, 12), 12, true},
		{"longer", msg([]byte{0xA5, 0x0F, 0x01}, 17), 12, true},
		{"shorter than k", msg([]byte{0xA5, 0x0F}, 11), 12, false},
		{"byte-aligned prefix", msg([]byte{0xA5}, 8), 8, true},
		{"data shorter than Bits claims", msg([]byte{0xA5}, 12), 12, false},
		{"negative k", msg([]byte{0xA5, 0x0F}, 12), -1, false},
	}
	for _, c := range cases {
		if got := SamePrefix(a, c.b, c.k); got != c.want {
			t.Errorf("%s: SamePrefix(k=%d) = %v, want %v", c.name, c.k, got, c.want)
		}
		if got := SamePrefix(c.b, a, c.k); got != c.want {
			t.Errorf("%s, swapped: SamePrefix(k=%d) = %v, want %v", c.name, c.k, got, c.want)
		}
	}
}

func TestBytesCopy(t *testing.T) {
	var w Writer
	w.WriteUint(0xFF, 8)
	b := w.Bytes()
	b[0] = 0
	if w.Bytes()[0] != 0xFF {
		t.Fatal("Bytes did not copy")
	}
}

func TestReaderWidthErrors(t *testing.T) {
	r := NewReader(Empty)
	if _, err := r.ReadUint(65); err == nil {
		t.Fatal("ReadUint(65) should error")
	}
	if _, err := r.ReadUint(-1); err == nil {
		t.Fatal("ReadUint(-1) should error")
	}
}

func TestQuickUintRoundTrip(t *testing.T) {
	f := func(vals [8]uint64) bool {
		var w Writer
		widths := make([]int, len(vals))
		for i, v := range vals {
			width := 64
			vals[i] = v
			widths[i] = width
			w.WriteUint(v, width)
		}
		r := NewReader(w.Message())
		for i := range vals {
			got, err := r.ReadUint(widths[i])
			if err != nil || got != vals[i] {
				return false
			}
		}
		return r.Done() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBigRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		width := 1 + rng.Intn(300)
		v := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), uint(width)))
		var w Writer
		w.WriteBig(v, width)
		if w.Len() != width {
			t.Fatalf("WriteBig wrote %d bits, want %d", w.Len(), width)
		}
		got, err := NewReader(w.Message()).ReadBig(width)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(v) != 0 {
			t.Fatalf("big round trip: got %v, want %v", got, v)
		}
	}
}

func TestMessageBitsExact(t *testing.T) {
	// A vertex id in an n-vertex graph must cost exactly ceil(log2 n) bits.
	n := 100
	var w Writer
	w.WriteInt(99, WidthFor(n))
	if w.Len() != 7 {
		t.Fatalf("id cost = %d bits, want 7", w.Len())
	}
}
