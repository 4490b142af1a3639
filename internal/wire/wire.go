// Package wire implements bit-granular message encoding.
//
// The complexity measure of the paper is the number of *bits* each node
// exchanges with the prover (Section 1), so protocol messages in this module
// are encoded at bit granularity: a vertex identifier costs exactly
// ceil(log2 n) bits, a hash value in [p] costs exactly ceil(log2 p) bits.
// Writer and Reader are the two halves of that codec.
package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// ErrShortMessage is returned by Reader methods when the message ends before
// the requested field. Protocols treat it as a malformed prover message.
var ErrShortMessage = errors.New("wire: message too short")

// WidthFor returns the number of bits needed to represent every value in
// [0, n), i.e. ceil(log2 n). WidthFor(0) and WidthFor(1) return 0: a value
// from a domain of size <= 1 carries no information and costs no bits.
func WidthFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len64(uint64(n - 1))
}

// WidthForBig is WidthFor for big domains: the number of bits needed to
// represent every value in [0, n). For n ≥ 1 that is the bit length of
// n − 1, which is n's own bit length less one exactly when n is a power
// of two; reading it so allocates nothing.
func WidthForBig(n *big.Int) int {
	if n.Sign() <= 0 {
		return 0
	}
	width := n.BitLen()
	if n.TrailingZeroBits() == uint(width-1) {
		width--
	}
	return width
}

// Writer accumulates a bit string. The zero value is an empty writer ready
// for use.
type Writer struct {
	data []byte
	nbit int
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.nbit }

// writeBit appends a single bit.
func (w *Writer) writeBit(b bool) {
	if w.nbit%8 == 0 {
		w.data = append(w.data, 0)
	}
	if b {
		w.data[w.nbit/8] |= 1 << (uint(w.nbit) % 8)
	}
	w.nbit++
}

// WriteBool appends one bit.
func (w *Writer) WriteBool(b bool) { w.writeBit(b) }

// writeChunk appends the low width bits of v (width ≤ 64), LSB first,
// filling whole bytes at a time. It produces exactly the bit stream the
// per-bit loop would: bit i of v lands at stream position nbit+i.
func (w *Writer) writeChunk(v uint64, width int) {
	for width > 0 {
		off := w.nbit & 7
		if off == 0 {
			w.data = append(w.data, 0)
		}
		take := 8 - off
		if take > width {
			take = width
		}
		w.data[w.nbit>>3] |= byte(v&(1<<take-1)) << off
		v >>= uint(take)
		w.nbit += take
		width -= take
	}
}

// WriteUint appends v using exactly width bits, least-significant bit first.
// It panics if v does not fit in width bits: callers size fields from the
// domain, so overflow is a programming error.
func (w *Writer) WriteUint(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("wire: invalid width %d", width))
	}
	if width < 64 && v>>uint(width) != 0 {
		panic(fmt.Sprintf("wire: value %d does not fit in %d bits", v, width))
	}
	w.writeChunk(v, width)
}

// WriteInt appends a non-negative int using exactly width bits.
func (w *Writer) WriteInt(v, width int) {
	if v < 0 {
		panic(fmt.Sprintf("wire: negative value %d", v))
	}
	w.WriteUint(uint64(v), width)
}

// WriteBig appends a non-negative big integer using exactly width bits,
// least-significant bit first. It panics if v is negative or does not fit.
func (w *Writer) WriteBig(v *big.Int, width int) {
	if v.Sign() < 0 {
		panic("wire: negative big value")
	}
	if v.BitLen() > width {
		panic(fmt.Sprintf("wire: big value of %d bits does not fit in %d bits", v.BitLen(), width))
	}
	if v.IsUint64() {
		w.writeChunk(v.Uint64(), width)
		return
	}
	if bits.UintSize == 64 {
		// 64-bit Words align exactly with 64-bit chunks of the stream.
		words := v.Bits()
		for i := 0; i < width; i += 64 {
			var chunk uint64
			if i/64 < len(words) {
				chunk = uint64(words[i/64])
			}
			take := width - i
			if take > 64 {
				take = 64
			}
			w.writeChunk(chunk, take)
		}
		return
	}
	for i := 0; i < width; i++ {
		w.writeBit(v.Bit(i) == 1)
	}
}

// WriteBits appends raw bits from another encoded message.
func (w *Writer) WriteBits(data []byte, nbit int) {
	i := 0
	if w.nbit&7 == 0 {
		// Byte-aligned: the whole bytes go in with one append.
		i = nbit &^ 7
		w.data = append(w.data, data[:i>>3]...)
		w.nbit += i
	}
	for ; i+8 <= nbit; i += 8 {
		w.writeChunk(uint64(data[i>>3]), 8)
	}
	if rem := nbit - i; rem > 0 {
		w.writeChunk(uint64(data[i>>3])&(1<<rem-1), rem)
	}
}

// Bytes returns the encoded message. The final byte is zero-padded. The
// returned slice is a copy; the writer can continue to be used.
func (w *Writer) Bytes() []byte {
	out := make([]byte, len(w.data))
	copy(out, w.data)
	return out
}

// Message packages the encoded bits with their exact bit length, which is
// what the cost accounting charges.
type Message struct {
	Data []byte
	Bits int
}

// Message returns the accumulated bits as a Message.
func (w *Writer) Message() Message {
	return Message{Data: w.Bytes(), Bits: w.nbit}
}

// Empty is the zero-bit message.
var Empty = Message{}

// Reader decodes a bit string produced by Writer.
type Reader struct {
	data []byte
	nbit int
	pos  int
}

// NewReader returns a reader over the given message.
func NewReader(m Message) *Reader {
	return &Reader{data: m.Data, nbit: m.Bits}
}

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return r.nbit - r.pos }

// Skip moves past the next nbits bits without decoding them, as when a
// protocol has already compared them bit for bit (see SamePrefix). Like a
// read, it consumes the tail and returns ErrShortMessage when fewer than
// nbits bits remain.
func (r *Reader) Skip(nbits int) error {
	if nbits < 0 || r.pos+nbits > r.nbit {
		r.pos = r.nbit
		return ErrShortMessage
	}
	r.pos += nbits
	return nil
}

// SamePrefix reports whether a and b both hold at least k bits and agree
// on the first k. Bits at or past k, padding included, are not compared.
func SamePrefix(a, b Message, k int) bool {
	if k < 0 || k > a.Bits || k > b.Bits || 8*len(a.Data) < k || 8*len(b.Data) < k {
		return false
	}
	whole := k >> 3
	if !bytes.Equal(a.Data[:whole], b.Data[:whole]) {
		return false
	}
	rest := k & 7
	return rest == 0 || (a.Data[whole]^b.Data[whole])&(1<<rest-1) == 0
}

// readBit reads a single bit.
func (r *Reader) readBit() (bool, error) {
	if r.pos >= r.nbit {
		return false, ErrShortMessage
	}
	b := r.data[r.pos/8]&(1<<(uint(r.pos)%8)) != 0
	r.pos++
	return b, nil
}

// ReadBool reads one bit.
func (r *Reader) ReadBool() (bool, error) { return r.readBit() }

// readChunk reads width bits (width ≤ 64, availability already checked by
// the caller) a byte at a time, LSB first — the exact inverse of writeChunk.
func (r *Reader) readChunk(width int) uint64 {
	var v uint64
	shift := 0
	for width > 0 {
		off := r.pos & 7
		take := 8 - off
		if take > width {
			take = width
		}
		v |= uint64(r.data[r.pos>>3]>>off&(1<<take-1)) << shift
		shift += take
		r.pos += take
		width -= take
	}
	return v
}

// ReadUint reads a width-bit unsigned value.
func (r *Reader) ReadUint(width int) (uint64, error) {
	if width < 0 || width > 64 {
		return 0, fmt.Errorf("wire: invalid width %d", width)
	}
	if r.pos+width > r.nbit {
		r.pos = r.nbit // consume the tail, as the per-bit loop would
		return 0, ErrShortMessage
	}
	return r.readChunk(width), nil
}

// ReadInt reads a width-bit value as an int.
func (r *Reader) ReadInt(width int) (int, error) {
	v, err := r.ReadUint(width)
	if err != nil {
		return 0, err
	}
	if v > uint64(int(^uint(0)>>1)) {
		return 0, fmt.Errorf("wire: value %d overflows int", v)
	}
	return int(v), nil
}

// ReadBig reads a width-bit value as a big integer.
func (r *Reader) ReadBig(width int) (*big.Int, error) {
	if width < 0 || r.pos+width > r.nbit {
		r.pos = r.nbit
		return nil, ErrShortMessage
	}
	if width <= 64 {
		return new(big.Int).SetUint64(r.readChunk(width)), nil
	}
	// Wide values (Protocol 2's Θ(n log n)-bit hashes): the stream is
	// least significant bit first, like a big.Int's words, so each word is
	// the next bits.UintSize bits; SetBits adopts the words as they are.
	words := make([]big.Word, (width+bits.UintSize-1)/bits.UintSize)
	for i := range words {
		words[i] = big.Word(r.readWord(min(bits.UintSize, width-i*bits.UintSize)))
	}
	return new(big.Int).SetBits(words), nil
}

// readWord is readChunk for the wide path: it reads a whole 64-bit word
// with one little-endian load (and the odd bits of a ninth byte) where
// the data allows, and falls back to readChunk elsewhere.
func (r *Reader) readWord(width int) uint64 {
	i, off := r.pos>>3, uint(r.pos&7)
	if width != 64 || i+9 > len(r.data) {
		return r.readChunk(width)
	}
	r.pos += 64
	// A shift by 64 (off = 0) yields 0.
	return binary.LittleEndian.Uint64(r.data[i:])>>off | uint64(r.data[i+8])<<(64-off)
}

// Done returns an error unless every bit of the message has been consumed.
// Protocols call it after parsing a prover message so that a prover cannot
// smuggle unread bits (which would make the measured cost unfaithful).
func (r *Reader) Done() error {
	if r.pos != r.nbit {
		return fmt.Errorf("wire: %d unread bits", r.nbit-r.pos)
	}
	return nil
}
