package peer

import (
	"bytes"
	"encoding/binary"
	"testing"

	"dip/internal/wire"
)

// fuzzSeed is one named FuzzPeerFrame seed: FuzzPeerFrame adds every seed
// in code, and TestWriteFuzzCorpus persists them under testdata by name.
type fuzzSeed struct {
	name string
	data []byte
}

// peerFrameSeeds builds the seed set: well-formed frames of every type
// across session-id shapes (zero, small counters, ids whose bytes collide
// with the v1-hello heuristic), the v1 framing, and the malformed shapes
// in between — truncated frames and batches, sub-header and oversized
// length claims, hostile bit counts, over- and under-count batches, split
// frames, unknown flags, and trailing bytes.
func peerFrameSeeds(tb testing.TB) []fuzzSeed {
	framed := func(sess uint32, typ byte, payload []byte) []byte {
		var buf bytes.Buffer
		if err := writeFrame(&buf, sess, typ, payload); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	msgs := func(round int, flags byte, count int, ms ...wire.Message) []byte {
		p := appendBatchHeader(nil, round, flags, count)
		for _, m := range ms {
			var err error
			if p, err = appendMessage(p, m); err != nil {
				tb.Fatal(err)
			}
		}
		return p
	}
	a := wire.Message{Data: []byte{0xAB, 0x01}, Bits: 9}
	b := wire.Message{Data: []byte{0xFF}, Bits: 8}
	c := wire.Message{Data: []byte{0x42}, Bits: 7}
	e := wire.Message{}
	twoAB := msgs(0, 0, 2, a, b)
	hostile := binary.BigEndian.AppendUint32(appendBatchHeader(nil, 0, 0, 1), 0xFFFFFFFF)
	return []fuzzSeed{
		{"valid-challenge", framed(1, frameChallenge, twoAB)},
		{"valid-response", framed(0, frameResponse, msgs(2, 0, 1, e))},
		{"valid-forward", framed(0xFFFFFFFF, frameForward, msgs(1, 0, 3, b, e, a))},
		{"valid-exchange", framed(7, frameExchange, msgs(1, flagChal, 2, c, a))},
		{"valid-decision", framed(0x017B2276, frameDecision, append(appendBatchHeader(nil, -1, 0, 3), 1, 0, 1))},
		{"valid-hello", framed(2, frameHello, []byte(`{"proto":3,"seed":7,"n":4,"nodes":[{"v":0,"neighbors":[1]}]}`))},
		{"valid-error", framed(3, frameError, []byte(`{"phase":"transport","round":1,"node":2,"message":"x"}`))},
		{"valid-end", framed(4, frameEnd, nil)},
		{"v1-hello", append([]byte{0, 0, 0, 14, 0x01}, []byte(`{"version":1}`)...)},
		{"zero-length", []byte{0, 0, 0, 0}},
		{"sub-header-length", []byte{0, 0, 0, 1, frameEnd}},
		{"oversized-claim", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x10}},
		{"truncated-body", []byte{0, 0, 1, 0, 0, 0, 0, 1, 0x10, 1, 2, 3}},
		{"hostile-bits", framed(1, frameChallenge, hostile)},
		{"trailing-garbage", framed(9, frameExchange, append(msgs(1, 0, 1, c), 0xEE))},
		{"split-first", framed(5, frameResponse, msgs(0, flagMore, 1, a))},
		{"over-count", framed(1, frameChallenge, msgs(0, 0, 4, a, b, e, a))},
		{"under-count", framed(1, frameChallenge, msgs(0, 0, 1, a, b))},
		{"truncated-batch", framed(1, frameForward, twoAB[:len(twoAB)-1])},
		{"truncated-header", framed(1, frameDecision, []byte{0xFF, 0xFF, 0xFF})},
		{"decision-byte", framed(1, frameDecision, append(appendBatchHeader(nil, -1, 0, 2), 1, 2))},
		{"unknown-flags", framed(1, frameExchange, msgs(0, 0x04, 1, a))},
	}
}

// fuzzOwed are the entry counts every batch frame is decoded against, as a
// receiver whose step still owes that many entries would.
var fuzzOwed = []int{1, 2, 3}

// FuzzPeerFrame throws arbitrary bytes at the full inbound path a peer or
// coordinator exposes to the network: the length-prefixed frame reader
// (session id | type | payload) followed by every batch decoder, run
// against fixed expected counts. The invariants under test: no panic; no
// allocation driven by an unvalidated count (decoders append into buffers
// sized by the expected count and must never outgrow them); every decoded
// message obeys len(Data) == ceil(Bits/8); and every accepted batch
// re-encodes byte-identically.
func FuzzPeerFrame(f *testing.F) {
	for _, s := range peerFrameSeeds(f) {
		f.Add(s.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bytes.NewReader(data)
		for {
			_, typ, payload, err := readFrame(br)
			if err != nil {
				return
			}
			if len(payload) > maxFrame {
				t.Fatalf("readFrame returned a %d-byte payload past the cap", len(payload))
			}
			switch typ {
			case frameChallenge, frameResponse, frameForward, frameExchange, frameDecision:
				checkBatch(t, typ, payload)
			}
		}
	})
}

// checkBatch decodes one batch payload against every fuzzOwed count,
// taking the step's round and flags from the frame itself so the count,
// entry, and re-encode paths are reached, and checks the invariants on
// every accepted decode.
func checkBatch(t *testing.T, typ byte, p []byte) {
	if len(p) < batchHeader {
		if _, _, err := readBatch(p, 0, 0, 1); err == nil {
			t.Fatalf("accepted a %d-byte batch header", len(p))
		}
		return
	}
	round := int(int32(binary.BigEndian.Uint32(p)))
	for _, owed := range fuzzOwed {
		count, body, err := readBatch(p, round, p[4]&flagChal, owed)
		if err != nil {
			continue
		}
		if count < 1 || count > owed {
			t.Fatalf("accepted count %d against %d owed", count, owed)
		}
		re := appendBatchHeader(nil, round, p[4], count)
		if typ == frameDecision {
			ds, err := decodeDecisions(make([]bool, 0, owed), body, count)
			if err != nil {
				continue
			}
			if cap(ds) != owed {
				t.Fatalf("decision decoder outgrew its %d-entry buffer", owed)
			}
			for _, d := range ds {
				x := byte(0)
				if d {
					x = 1
				}
				re = append(re, x)
			}
		} else {
			ms, err := decodeMessages(make([]wire.Message, 0, owed), body, count)
			if err != nil {
				continue
			}
			if cap(ms) != owed {
				t.Fatalf("message decoder outgrew its %d-entry buffer", owed)
			}
			for _, m := range ms {
				if m.Bits < 0 || m.Bits > maxMsgBits || len(m.Data) != (m.Bits+7)/8 {
					t.Fatalf("decoder produced malformed message Bits=%d len(Data)=%d", m.Bits, len(m.Data))
				}
				if re, err = appendMessage(re, m); err != nil {
					t.Fatalf("accepted message fails re-encode: %v", err)
				}
			}
		}
		if !bytes.Equal(re, p) {
			t.Fatalf("accepted batch re-encodes differently:\n got %x\nwant %x", re, p)
		}
	}
}
