package core

// Native fuzz targets for every protocol message decoder, mirroring
// internal/wire/fuzz_test.go one layer up: whatever bytes a (hostile)
// prover sends, a decoder must return a value or an error — never panic,
// never read out of bounds. Each target fuzzes one protocol family's
// decoders with instance parameters matching the checked-in seed corpus
// under testdata/fuzz (boundary shapes here via f.Add, honest protocol
// encodings in testdata — TestFuzzCorpus checks them and rewrites them
// under WRITE_CORPUS=1).
// `make fuzz-short` gives each target a few seconds of mutation on every
// verify run.

import (
	"testing"

	"dip/internal/wire"
)

// fuzzMessage reconstructs a wire.Message from fuzz inputs, discarding
// shapes that violate the wire invariant (the engine rejects those before
// any decoder sees them).
func fuzzMessage(t *testing.T, data []byte, bits int) wire.Message {
	if bits < 0 || (bits+7)/8 != len(data) {
		t.Skip()
	}
	return wire.Message{Data: data, Bits: bits}
}

func addBoundarySeeds(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte{0x00}, 1)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, 32)
}

func FuzzSymDecoders(f *testing.F) {
	dmam, err := NewSymDMAM(14, 1)
	if err != nil {
		f.Fatal(err)
	}
	dam, err := NewSymDAM(14, 1)
	if err != nil {
		f.Fatal(err)
	}
	addBoundarySeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, bits int) {
		m := fuzzMessage(t, data, bits)
		if first, err := dmam.decodeFirst(m); err == nil {
			requireReencodes(t, m, dmam.encodeFirst(first))
		}
		if second, err := dmam.decodeSecond(m); err == nil {
			requireReencodes(t, m, dmam.encodeSecond(second))
		}
		if msg, err := dam.decode(m); err == nil {
			requireReencodes(t, m, dam.encode(msg))
		}
	})
}

func FuzzDSymDecoder(f *testing.F) {
	dsym, err := NewDSymDAM(4, 1, 1)
	if err != nil {
		f.Fatal(err)
	}
	addBoundarySeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, bits int) {
		m := fuzzMessage(t, data, bits)
		if msg, err := dsym.decode(m); err == nil {
			requireReencodes(t, m, dsym.encode(msg))
		}
	})
}

func FuzzGNIDecoders(f *testing.F) {
	gni, err := NewGNIDAMAM(6, 3, 1)
	if err != nil {
		f.Fatal(err)
	}
	gnid, err := NewGNIDAM(6, 3, 1)
	if err != nil {
		f.Fatal(err)
	}
	gng, err := NewGNIGeneral(6, 3, 1)
	if err != nil {
		f.Fatal(err)
	}
	marked, err := NewMarkedGNI(15, 6, 3, 1)
	if err != nil {
		f.Fatal(err)
	}
	addBoundarySeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, bits int) {
		m := fuzzMessage(t, data, bits)
		_, _ = gni.decodeFirst(m, nil)
		if first, err := gni.decodeFirst(m, []int{3, 3, 3}); err == nil {
			requireReencodes(t, m, gni.encodeFirst(first.reps, first.tree, first.images))
		}
		for successes := 0; successes <= gni.K(); successes++ {
			if second, err := gni.decodeSecond(m, successes); err == nil {
				requireReencodes(t, m, gni.encodeSecond(second))
			}
		}
		if msg, err := gnid.decode(m); err == nil {
			requireReencodes(t, m, gnid.encode(msg))
		}
		if msg, err := gng.decode(m); err == nil {
			requireReencodes(t, m, gng.encode(msg))
		}
		_, _ = marked.decodeFirst(m, -1)
		// Every degree a node of the 15-node network can have, so that the
		// honest seeds of nodes of any degree reach the full decoder.
		for degree := 0; degree < marked.N(); degree++ {
			if first, err := marked.decodeFirst(m, degree); err == nil {
				requireReencodes(t, m, marked.encodeFirst(first))
			}
		}
		if second, err := marked.decodeSecond(m); err == nil {
			requireReencodes(t, m, marked.encodeSecond(second))
		}
	})
}

// requireReencodes fails unless enc, the re-encoding of a message a
// decoder accepted, reproduces m's Bits bits. Padding beyond Bits is not
// part of the message.
func requireReencodes(t *testing.T, m, enc wire.Message) {
	t.Helper()
	if enc.Bits != m.Bits {
		t.Fatalf("re-encoded %d-bit message as %d bits", m.Bits, enc.Bits)
	}
	for i := 0; i < m.Bits; i++ {
		if m.Data[i/8]>>(i%8)&1 != enc.Data[i/8]>>(i%8)&1 {
			t.Fatalf("re-encoding of a %d-bit message differs at bit %d", m.Bits, i)
		}
	}
}

func FuzzLCPDecoders(f *testing.F) {
	lcp, err := NewSymLCP(14)
	if err != nil {
		f.Fatal(err)
	}
	glcp, err := NewGNILCP(14)
	if err != nil {
		f.Fatal(err)
	}
	addBoundarySeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, bits int) {
		m := fuzzMessage(t, data, bits)
		if a, err := lcp.decode(m); err == nil {
			requireReencodes(t, m, lcp.encode(a))
		}
		if g0, g1, err := glcp.decode(m); err == nil {
			requireReencodes(t, m, glcp.encode(g0, g1))
		}
	})
}
