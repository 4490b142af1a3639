package peer

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"slices"
	"strings"
	"testing"

	"dip/internal/wire"
)

// writeFrame writes one frame with its own Write, as a hand-rolled test
// peer or client does.
func writeFrame(w io.Writer, sess uint32, typ byte, payload []byte) error {
	b, err := appendFrame(nil, sess, typ, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// sampleHello is a small well-formed hello: the two ends of a 3-node
// path, one with an input.
func sampleHello() *hello {
	return &hello{seed: -7, n: 3, params: []byte(`{"spec":"echo","bits":8}`),
		nodes:  []int{0, 2},
		nbrs:   [][]int{{1}, {1}},
		inputs: []wire.Message{{}, {Data: []byte{0xA0}, Bits: 3}},
	}
}

// encodeHello is appendHello for a hello the test knows to be encodable.
func encodeHello(tb testing.TB, h *hello) []byte {
	tb.Helper()
	p, err := appendHello(nil, h)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// TestHelloRoundTrip pins the binary hello and helloOK layouts: what
// appendHello writes decodeHello returns, field for field, and the
// helloOK carries the version and the hosted-node count.
func TestHelloRoundTrip(t *testing.T) {
	want := sampleHello()
	p := encodeHello(t, want)
	if got := binary.BigEndian.Uint32(p); got != Version {
		t.Fatalf("hello opens with proto %d, want %d", got, Version)
	}
	got, err := decodeHello(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.seed != want.seed || got.n != want.n || !bytes.Equal(got.params, want.params) || len(got.nodes) != len(want.nodes) {
		t.Fatalf("round trip got %+v, want %+v", got, want)
	}
	for i, v := range got.nodes {
		in, w := got.inputs[i], want.inputs[i]
		if v != want.nodes[i] || !slices.Equal(got.nbrs[i], want.nbrs[i]) ||
			in.Bits != w.Bits || !bytes.Equal(in.Data, w.Data) {
			t.Fatalf("node %d: round trip got (%d, %v, %+v), want (%d, %v, %+v)",
				i, v, got.nbrs[i], in, want.nodes[i], want.nbrs[i], w)
		}
	}
	proto, nodes, err := decodeHelloOK(appendHelloOK(nil, 5))
	if err != nil || proto != Version || nodes != 5 {
		t.Fatalf("helloOK round trip got (%d, %d, %v)", proto, nodes, err)
	}
	if _, _, err := decodeHelloOK([]byte(`{"proto":3,"nodes":5}`)); err == nil {
		t.Fatal("accepted a JSON helloOK")
	}
}

// TestHelloRejectsMalformed pins the hello decoder's gates: the version
// and JSON checks, truncation anywhere, counts larger than the bytes
// left, trailing bytes, and hosted nodes out of order or out of range.
// The neighbor-list checks are pinned end to end by
// TestBadNeighborListsRejected.
func TestHelloRejectsMalformed(t *testing.T) {
	good := encodeHello(t, sampleHello())
	// withU32 overwrites u32 fields of the good hello: offset, value pairs.
	withU32 := func(fields ...int) []byte {
		p := append([]byte(nil), good...)
		for i := 0; i < len(fields); i += 2 {
			binary.BigEndian.PutUint32(p[fields[i]:], uint32(fields[i+1]))
		}
		return p
	}
	// withNodes is the good hello hosting the given node ids instead.
	withNodes := func(vs ...int) []byte {
		h := sampleHello()
		h.nodes, h.nbrs, h.inputs = vs, make([][]int, len(vs)), nil
		return encodeHello(t, h)
	}
	params := len(sampleHello().params)
	count := helloHeader + params
	cases := []struct {
		name string
		p    []byte
		frag string
	}{
		{"json", []byte(`{"proto":3,"seed":1}`), "requires wire protocol 4"},
		{"proto-5", withU32(0, 5), "requires wire protocol 4"},
		{"empty", nil, "truncated"},
		{"short-header", good[:helloHeader-1], "truncated"},
		{"params-overrun", withU32(16, 1<<31), "params"},
		{"zero-nodes", withU32(count, 0), "provisions 0 nodes"},
		{"more-nodes-than-n", withU32(count, 4), "provisions 4 nodes of 3"},
		{"node-count-overrun", withU32(12, 1<<30, count, 1<<29), "nodes in"},
		{"degree-overrun", withU32(count+8, 1<<30), "neighbors in"},
		{"truncated-input", good[:len(good)-1], "truncated"},
		{"trailing", append(append([]byte(nil), good...), 0), "trailing"},
		{"nodes-unsorted", withNodes(2, 0), "not strictly ascending"},
		{"nodes-duplicate", withNodes(1, 1), "not strictly ascending"},
		{"node-out-of-range", withNodes(0, 3), "not strictly ascending in [0,3)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if h, err := decodeHello(tc.p); err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("decodeHello = %+v, %v; want an error mentioning %q", h, err, tc.frag)
			}
		})
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	cases := []struct {
		sess    uint32
		typ     byte
		payload []byte
	}{
		{0, frameHello, encodeHello(t, sampleHello())},
		{1, frameError, nil},
		{0xFFFFFFFF, frameHelloOK, []byte{0xDE, 0xAD}},
		{42, frameChallenge, []byte{1, 2, 3}},
	}
	for _, tc := range cases {
		buf.Reset()
		if err := writeFrame(&buf, tc.sess, tc.typ, tc.payload); err != nil {
			t.Fatal(err)
		}
		gotSess, gotTyp, gotP, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if gotSess != tc.sess || gotTyp != tc.typ || !bytes.Equal(gotP, tc.payload) {
			t.Fatalf("session %d type 0x%02x: round trip got (%d, 0x%02x, %x)",
				tc.sess, tc.typ, gotSess, gotTyp, gotP)
		}
	}
}

func TestReadFrameRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
		frag string
	}{
		{"zero-length", []byte{0, 0, 0, 0}, "shorter than the frame header"},
		{"v1-length", []byte{0, 0, 0, 1, frameError}, "shorter than the frame header"},
		{"oversized-claim", []byte{0xFF, 0xFF, 0xFF, 0xFF}, "exceeds"},
		{"truncated-header", []byte{0, 0}, "EOF"},
		{"truncated-body", []byte{0, 0, 0, 9, 0, 0, 0, 1, frameError}, "truncated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, _, err := readFrame(bytes.NewReader(tc.raw))
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("err = %v, want mention of %q", err, tc.frag)
			}
		})
	}
}

func TestWriteFrameRejectsOversized(t *testing.T) {
	if _, err := appendFrame(nil, 1, frameHello, make([]byte, maxFrame)); err == nil {
		t.Fatal("appendFrame accepted a body over the cap")
	}
}

// TestLooksLikeV1 pins the v1-hello heuristic: a protocol-v1 hello frame
// parsed under the v2 layout lands its type byte and opening brace in
// the session id, while genuine session-id frames never match.
func TestLooksLikeV1(t *testing.T) {
	// A real v1 hello: u32 len | 0x01 | `{"version":1,...}`.
	v1 := []byte{0, 0, 0, 14, 0x01}
	v1 = append(v1, []byte(`{"version":1}`)...)
	sess, typ, _, err := readFrame(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if !looksLikeV1(sess, typ) {
		t.Fatalf("v1 hello parsed as session %#x type 0x%02x not flagged", sess, typ)
	}
	if validFrameType(typ) {
		t.Fatalf("v1 hello byte stream produced a valid frame type 0x%02x", typ)
	}
	// A genuine session-id hello must not be flagged.
	var buf bytes.Buffer
	if err := writeFrame(&buf, 7, frameHello, encodeHello(t, sampleHello())); err != nil {
		t.Fatal(err)
	}
	sess, typ, _, err = readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if looksLikeV1(sess, typ) {
		t.Fatal("session-id hello misflagged as v1")
	}
}

// TestWriteV1Error pins that the v1-framed rejection is decodable by a
// v1 reader: u32 len | type | payload, carrying the structured error.
func TestWriteV1Error(t *testing.T) {
	var buf bytes.Buffer
	ef := errorFrame{Phase: "transport", Round: -1, Node: -1, Message: "peer speaks wire protocol 4"}
	if err := writeV1Error(&buf, ef); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if len(raw) < 5 {
		t.Fatalf("frame too short: %x", raw)
	}
	body := binary.BigEndian.Uint32(raw)
	if int(body) != len(raw)-4 {
		t.Fatalf("length prefix %d for %d body bytes", body, len(raw)-4)
	}
	if raw[4] != frameError {
		t.Fatalf("type byte 0x%02x, want error", raw[4])
	}
	var got errorFrame
	if err := json.Unmarshal(raw[5:], &got); err != nil {
		t.Fatal(err)
	}
	if got.Message != ef.Message || got.Phase != ef.Phase {
		t.Fatalf("round trip got %+v", got)
	}
}

// setBatchLimit lowers the batch split point for one test.
func setBatchLimit(t *testing.T, limit int) {
	prev := batchLimit
	batchLimit = limit
	t.Cleanup(func() { batchLimit = prev })
}

// readAll reassembles a batch's payloads the way a receiver owing len(want)
// entries does, checking each frame's count as it goes.
func readAll(t *testing.T, payloads [][]byte, round int, flags byte, owed int) []wire.Message {
	t.Helper()
	var got []wire.Message
	for _, p := range payloads {
		count, body, err := readBatch(p, round, flags, owed-len(got))
		if err != nil {
			t.Fatal(err)
		}
		if got, err = decodeMessages(got, body, count); err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != owed {
		t.Fatalf("reassembled %d of %d entries", len(got), owed)
	}
	return got
}

// TestDeliveryRoundTrip round-trips a message batch — the challenge,
// response and forward payload — whole and split at the frame cap: the
// receiver reassembles the entries in positional order either way.
func TestDeliveryRoundTrip(t *testing.T) {
	msgs := []wire.Message{
		{},
		{Data: []byte{0xAB}, Bits: 8},
		{Data: []byte{0xAB, 0x03}, Bits: 11},
	}
	for _, tc := range []struct {
		limit, frames int
	}{
		{maxFrame, 1}, // one frame per step
		{1, 3},        // every entry past the cap: one entry per frame
		{5 + batchHeader + 4 + 4 + 1, 2},
	} {
		setBatchLimit(t, tc.limit)
		b := batch{round: 3}
		for _, m := range msgs {
			if err := b.addMessage(m); err != nil {
				t.Fatal(err)
			}
		}
		payloads := b.finish()
		if len(payloads) != tc.frames {
			t.Fatalf("limit %d: %d frames, want %d", tc.limit, len(payloads), tc.frames)
		}
		for i, p := range payloads {
			more := p[4]&flagMore != 0
			if more != (i < len(payloads)-1) {
				t.Fatalf("limit %d: frame %d flagMore=%v", tc.limit, i, more)
			}
		}
		got := readAll(t, payloads, 3, 0, len(msgs))
		for i, m := range msgs {
			if got[i].Bits != m.Bits || !bytes.Equal(got[i].Data, m.Data) {
				t.Fatalf("limit %d: entry %d got %+v, want %+v", tc.limit, i, got[i], m)
			}
		}
	}
}

// TestDeliveryRejectsMalformed pins the batch decoder's gates, each
// checked before any entry is allocated: the header, the step's round,
// the count against what the step owes, split-frame counts, truncated
// entries, hostile bit claims, and trailing bytes.
func TestDeliveryRejectsMalformed(t *testing.T) {
	b := batch{round: 1}
	for _, m := range []wire.Message{{Data: []byte{0xFF}, Bits: 8}, {Data: []byte{0x0F}, Bits: 4}} {
		if err := b.addMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	good := b.finish()[0]
	withCount := func(flags byte, count int) []byte {
		p := append([]byte(nil), good...)
		p[4] = flags
		binary.BigEndian.PutUint32(p[5:], uint32(count))
		return p
	}
	hostile := binary.BigEndian.AppendUint32(appendBatchHeader(nil, 1, 0, 1), uint32(maxMsgBits+1))
	cases := []struct {
		name  string
		p     []byte
		round int
		owed  int
		frag  string
	}{
		{"truncated-header", good[:batchHeader-1], 1, 2, "header truncated"},
		{"wrong-round", good, 2, 2, "during round 2"},
		{"over-count", good, 1, 1, "step owes 1"},
		{"under-count", good, 1, 3, "step owes 3"},
		{"split-carries-all", withCount(flagMore, 2), 1, 2, "split batch"},
		{"split-empty", withCount(flagMore, 0), 1, 2, "split batch"},
		{"truncated-entry", good[:len(good)-1], 1, 2, "truncated"},
		{"trailing-bytes", append(append([]byte(nil), good...), 0x00), 1, 2, "trailing"},
		{"hostile-bits", hostile, 1, 1, "claims"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			count, body, err := readBatch(tc.p, tc.round, 0, tc.owed)
			if err == nil {
				_, err = decodeMessages(nil, body, count)
			}
			if err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("err = %v, want mention of %q", err, tc.frag)
			}
		})
	}
	// Malformed messages must not leave the process either.
	if err := b.addMessage(wire.Message{Data: []byte{1, 2}, Bits: 3}); err == nil {
		t.Fatal("encoded a message whose Data length contradicts Bits")
	}
}

// TestExchangeRoundTrip round-trips exchange batches of both kinds: the
// challenge-exchange flag travels in the header and must match the step.
func TestExchangeRoundTrip(t *testing.T) {
	m := wire.Message{Data: []byte{0x5A, 0x01}, Bits: 9}
	for _, flags := range []byte{0, flagChal} {
		b := batch{round: 2, flags: flags}
		for i := 0; i < 3; i++ {
			if err := b.addMessage(m); err != nil {
				t.Fatal(err)
			}
		}
		for _, got := range readAll(t, b.finish(), 2, flags, 3) {
			if got.Bits != m.Bits || !bytes.Equal(got.Data, m.Data) {
				t.Fatalf("flags 0x%02x: round trip got %+v", flags, got)
			}
		}
	}
}

// TestExchangeRejectsUnknownFlags: undefined flag bits, and a challenge
// flag on a response-exchange step (or its absence on a challenge
// exchange), are protocol violations.
func TestExchangeRejectsUnknownFlags(t *testing.T) {
	b := batch{round: 0}
	if err := b.addMessage(wire.Message{}); err != nil {
		t.Fatal(err)
	}
	p := b.finish()[0]
	if _, _, err := readBatch(p, 0, flagChal, 1); err == nil || !strings.Contains(err.Error(), "flags") {
		t.Fatalf("missing chal flag: err = %v", err)
	}
	p[4] = 0x04
	if _, _, err := readBatch(p, 0, 0, 1); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("unknown flags: err = %v", err)
	}
}

// TestDecisionRoundTrip round-trips a decision batch (one byte per hosted
// node, round -1 as in the decide step) and rejects bytes other than 0/1
// and bodies whose length disagrees with the count.
func TestDecisionRoundTrip(t *testing.T) {
	want := []bool{true, false, true}
	for _, limit := range []int{maxFrame, 1} {
		setBatchLimit(t, limit)
		b := batch{round: -1}
		for _, d := range want {
			b.addDecision(d)
		}
		var got []bool
		for _, p := range b.finish() {
			count, body, err := readBatch(p, -1, 0, len(want)-len(got))
			if err != nil {
				t.Fatal(err)
			}
			if got, err = decodeDecisions(got, body, count); err != nil {
				t.Fatal(err)
			}
		}
		if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
			t.Fatalf("limit %d: round trip got %v", limit, got)
		}
	}
	if _, err := decodeDecisions(nil, []byte{1, 2}, 2); err == nil {
		t.Fatal("accepted decision byte 2")
	}
	if _, err := decodeDecisions(nil, []byte{1}, 2); err == nil {
		t.Fatal("accepted a 1-byte body for 2 decisions")
	}
}
