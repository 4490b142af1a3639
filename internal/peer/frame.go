// Package peer runs verifier nodes as real network peers: a Server hosts
// nodes in its own OS process and a Fleet implements network.Transport by
// dialing a set of servers, so the engine's networked executor drives
// actual sockets.
//
// The wire protocol (v3) is deliberately minimal: length-prefixed binary
// frames, each stamped with a session id, over TCP. One peer process
// hosts many interleaved sessions — over a shared connection, or over
// per-session connections — and the session id routes every frame to its
// session's state. A session opens with a JSON handshake (hello →
// helloOK) that provisions the peer — protocol parameters, run seed, and
// the graph *slice* of every node the peer hosts (its neighbor lists and
// inputs, never the whole graph) — and then both sides walk the
// spec-derived schedule (network.Schedule) in lockstep, so no round
// negotiation ever crosses the wire.
//
// Each schedule step's node-side traffic between the coordinator and one
// peer travels as one batch frame (several only when it would exceed the
// frame cap). A batch is positional: its entries follow the order the
// network.Transport contract fixes — hosted nodes ascending; for
// exchanges, receiver ascending and then senders in the receiver's
// neighbor-list order from the hello — so no frame carries a node id and
// a peer cannot speak for a node it does not host. The schedule itself is
// the round barrier: each side knows exactly how many entries of which
// type the current step owes, and reads until it has them.
//
// Everything semantic stays on the coordinator: validation, cost
// accounting, fault corruption, and the transcript live in the engine's
// delivery funnel, and peers only ever see post-funnel copies. That is
// what keeps a multi-process run bit-identical to the in-process
// executors (asserted by the equivalence suite) and what lets
// internal/faults injectors corrupt traffic that genuinely crosses
// sockets without the peers cooperating.
package peer

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"dip/internal/network"
	"dip/internal/wire"
)

// Version is the wire protocol version. The hello handshake carries it in
// its proto field; a peer refuses any other version with a structured
// error naming the version it requires, so mixed-build fleets fail loudly
// at dial time.
const Version = 3

const (
	// maxFrame caps one frame body (session id + type byte + payload): a
	// hostile or corrupted length prefix cannot make a reader allocate
	// more than this.
	maxFrame = 1 << 24
	// maxMsgBits caps one encoded wire.Message's Bits claim; it matches the
	// largest message the engine's protocols can produce with room to
	// spare, while keeping ceil(bits/8) well under maxFrame.
	maxMsgBits = 1 << 26
)

// Frame types. The coordinator→peer direction carries hello, response,
// exchange, error, and end frames; the peer→coordinator direction carries
// helloOK, challenge, forward, decision, and error frames. The five data
// types are batch frames: u32 round | u8 flags | u32 count | entries.
const (
	frameHello     byte = 0x01 // JSON helloFrame
	frameHelloOK   byte = 0x02 // JSON helloOKFrame
	frameChallenge byte = 0x10 // batch of messages, hosted nodes ascending
	frameResponse  byte = 0x11 // batch of messages, hosted nodes ascending
	frameForward   byte = 0x12 // batch of messages, hosted nodes ascending
	frameExchange  byte = 0x13 // batch of messages, receiver ascending, senders in neighbor-list order
	frameDecision  byte = 0x14 // batch of u8 decisions, hosted nodes ascending
	frameError     byte = 0x1E // JSON errorFrame; aborts the session
	frameEnd       byte = 0x1F // empty; normal session completion
)

// Batch flags.
const (
	// flagChal marks an exchange batch as a challenge exchange
	// (Spec.ShareChallenges) rather than a response/digest forward.
	flagChal byte = 0x01
	// flagMore marks every frame of a split batch but the last.
	flagMore byte = 0x02
)

// batchHeader is the length of a batch payload's fixed prefix:
// u32 round | u8 flags | u32 count.
const batchHeader = 9

// batchLimit is the frame body size past which a batch is cut into
// another frame. It is maxFrame; it is a variable only so tests can force
// splits on small runs.
var batchLimit = maxFrame

// writeFrame emits one frame: a 4-byte big-endian length covering the
// session id, type byte, and payload, then all three. The frame is
// assembled into one buffer so a single Write call reaches the socket —
// frames from concurrent sessions sharing a connection can never
// interleave as long as each send holds the connection's write lock for
// exactly one writeFrame call. A batch frame is one schedule step's
// traffic for one peer, so a step costs one Write per peer.
func writeFrame(w io.Writer, sess uint32, typ byte, payload []byte) error {
	body := 5 + len(payload)
	if body > maxFrame {
		return fmt.Errorf("peer: frame type 0x%02x body of %d bytes exceeds the %d cap", typ, body, maxFrame)
	}
	buf := make([]byte, 4+body)
	binary.BigEndian.PutUint32(buf, uint32(body))
	binary.BigEndian.PutUint32(buf[4:], sess)
	buf[8] = typ
	copy(buf[9:], payload)
	_, err := w.Write(buf)
	return err
}

// readFrame reads one frame, returning its session id, type, and payload.
// The length prefix is validated before any allocation, so a malformed or
// hostile peer cannot trigger an oversized read. The frame layout is the
// same in protocols v2 and v3; only the batch payloads differ.
func readFrame(r io.Reader) (uint32, byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	body := binary.BigEndian.Uint32(hdr[:])
	if body < 5 {
		return 0, 0, nil, fmt.Errorf("peer: frame body of %d bytes is shorter than the frame header (5 bytes)", body)
	}
	if body > maxFrame {
		return 0, 0, nil, fmt.Errorf("peer: frame length %d exceeds the %d cap", body, maxFrame)
	}
	buf := make([]byte, body)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, 0, nil, fmt.Errorf("peer: truncated frame (want %d body bytes): %w", body, err)
	}
	return binary.BigEndian.Uint32(buf), buf[4], buf[5:], nil
}

// looksLikeV1 reports whether a frame parsed under the session-id layout
// is actually a protocol-v1 hello. A v1 frame body was `type | payload`,
// so a v1 hello body starts 0x01 '{' — under the current parsing those
// bytes land in the session id's top half. The check only makes sense on
// the first frame of a connection, before any other traffic has been seen.
func looksLikeV1(sess uint32, typ byte) bool {
	_ = typ
	return byte(sess>>24) == frameHello && byte(sess>>16) == '{'
}

// writeV1Error emits an error frame in the *v1* framing (no session id),
// so a protocol-v1 client that just sent its hello decodes the rejection
// as a structured RunError instead of a framing failure.
func writeV1Error(w io.Writer, ef errorFrame) error {
	payload, err := json.Marshal(ef)
	if err != nil {
		return err
	}
	buf := make([]byte, 5+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(1+len(payload)))
	buf[4] = frameError
	copy(buf[5:], payload)
	_, err = w.Write(buf)
	return err
}

// appendMessage encodes m as u32 bit-length plus its data bytes, enforcing
// the engine's message invariant (len(Data) == ceil(Bits/8)) at the
// boundary so a malformed message never leaves the process.
func appendMessage(b []byte, m wire.Message) ([]byte, error) {
	if m.Bits < 0 || m.Bits > maxMsgBits || len(m.Data) != (m.Bits+7)/8 {
		return nil, fmt.Errorf("peer: malformed message: Bits=%d len(Data)=%d", m.Bits, len(m.Data))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(m.Bits))
	return append(b, m.Data...), nil
}

// decodeMessage decodes one message from b, returning it and the rest of
// the buffer. The bit-length claim is capped before the data length is
// derived from it, so a hostile length cannot cause an oversized slice.
func decodeMessage(b []byte) (wire.Message, []byte, error) {
	if len(b) < 4 {
		return wire.Message{}, nil, fmt.Errorf("peer: message header truncated (%d bytes)", len(b))
	}
	bits := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if bits > maxMsgBits {
		return wire.Message{}, nil, fmt.Errorf("peer: message claims %d bits (cap %d)", bits, maxMsgBits)
	}
	nbytes := (bits + 7) / 8
	if len(b) < nbytes {
		return wire.Message{}, nil, fmt.Errorf("peer: message truncated: %d bits need %d bytes, have %d", bits, nbytes, len(b))
	}
	var data []byte
	if nbytes > 0 {
		data = b[:nbytes:nbytes]
	}
	return wire.Message{Data: data, Bits: bits}, b[nbytes:], nil
}

// appendBatchHeader appends a batch payload's fixed prefix.
func appendBatchHeader(b []byte, round int, flags byte, count int) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(round))
	b = append(b, flags)
	return binary.BigEndian.AppendUint32(b, uint32(count))
}

// batch builds one schedule step's batch for one peer. Entries are
// appended in the positional order the receiver expects; the batch is cut
// into as many payloads as batchLimit requires, every one but the last
// marked flagMore.
type batch struct {
	round    int
	flags    byte
	payloads [][]byte // sealed
	cur      []byte   // open payload; its count is patched when sealed
	n        int      // entries in cur
}

// room opens a payload able to take one more entry of size bytes, first
// sealing the current one if the entry would push its frame past
// batchLimit.
func (b *batch) room(size int) {
	if b.cur != nil && b.n > 0 && 5+len(b.cur)+size > batchLimit {
		b.seal(flagMore)
	}
	if b.cur == nil {
		b.cur = appendBatchHeader(make([]byte, 0, 64), b.round, b.flags, 0)
	}
}

func (b *batch) seal(more byte) {
	b.cur[4] |= more
	binary.BigEndian.PutUint32(b.cur[5:], uint32(b.n))
	b.payloads = append(b.payloads, b.cur)
	b.cur, b.n = nil, 0
}

// addMessage appends one message entry.
func (b *batch) addMessage(m wire.Message) error {
	b.room(4 + len(m.Data))
	cur, err := appendMessage(b.cur, m)
	if err != nil {
		return err
	}
	b.cur = cur
	b.n++
	return nil
}

// addDecision appends one decision entry.
func (b *batch) addDecision(d bool) {
	b.room(1)
	var x byte
	if d {
		x = 1
	}
	b.cur = append(b.cur, x)
	b.n++
}

// finish seals the open payload and returns the batch's payloads in send
// order (none for an empty batch).
func (b *batch) finish() [][]byte {
	if b.cur != nil {
		b.seal(0)
	}
	return b.payloads
}

// readBatch validates a batch payload's header for the step (round, flags)
// that still owes the receiver owed entries, and returns the entry count
// and the entry bytes. Everything is checked before the caller allocates
// anything for the entries: the round and the step's flags must match,
// and the count must be exactly owed — or, on a non-final frame of a
// split batch, between 1 and owed-1.
func readBatch(p []byte, round int, flags byte, owed int) (int, []byte, error) {
	if len(p) < batchHeader {
		return 0, nil, fmt.Errorf("peer: batch header truncated (%d bytes)", len(p))
	}
	if got := binary.BigEndian.Uint32(p); got != uint32(round) {
		return 0, nil, fmt.Errorf("peer: batch for round %d during round %d", int32(got), round)
	}
	f := p[4]
	if f&^(flagChal|flagMore) != 0 {
		return 0, nil, fmt.Errorf("peer: batch flags 0x%02x unknown", f)
	}
	if f&^flagMore != flags {
		return 0, nil, fmt.Errorf("peer: batch flags 0x%02x for a step with flags 0x%02x", f, flags)
	}
	count := uint64(binary.BigEndian.Uint32(p[5:]))
	if f&flagMore != 0 {
		if count == 0 || count >= uint64(owed) {
			return 0, nil, fmt.Errorf("peer: split batch frame carries %d of %d owed entries", count, owed)
		}
	} else if count != uint64(owed) {
		return 0, nil, fmt.Errorf("peer: batch carries %d entries, step owes %d", count, owed)
	}
	return int(count), p[batchHeader:], nil
}

// decodeMessages decodes exactly count message entries from a batch body,
// appending them to dst; trailing bytes are an error. count has already
// been bounded by readBatch against what the step owes.
func decodeMessages(dst []wire.Message, body []byte, count int) ([]wire.Message, error) {
	for i := 0; i < count; i++ {
		m, rest, err := decodeMessage(body)
		if err != nil {
			return nil, fmt.Errorf("entry %d: %w", i, err)
		}
		dst = append(dst, m)
		body = rest
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("peer: batch has %d trailing bytes", len(body))
	}
	return dst, nil
}

// decodeDecisions decodes exactly count decision entries (one byte each,
// 0 or 1) from a batch body, appending them to dst.
func decodeDecisions(dst []bool, body []byte, count int) ([]bool, error) {
	if len(body) != count {
		return nil, fmt.Errorf("peer: decision batch of %d bytes for %d entries", len(body), count)
	}
	for i, x := range body {
		if x > 1 {
			return nil, fmt.Errorf("peer: decision entry %d is 0x%02x (want 0 or 1)", i, x)
		}
		dst = append(dst, x == 1)
	}
	return dst, nil
}

// helloFrame is the coordinator's session-opening handshake: everything a
// peer needs to host its slice of the run. Proto is the wire protocol
// version (Version); a peer rejects any other value with a structured
// error naming the version it requires. Params is an opaque protocol
// parameter blob the peer's SpecBuilder understands (for dippeer: a
// dip.Request without edge lists); Nodes lists the hosted nodes, strictly
// ascending, with their neighbor slices and private inputs — the peer
// never sees the rest of the graph. The node order and each neighbor
// list's order are the positional order of every batch in the session.
type helloFrame struct {
	Proto  int             `json:"proto"`
	Params json.RawMessage `json:"params"`
	Seed   int64           `json:"seed"`
	N      int             `json:"n"`
	Nodes  []helloNode     `json:"nodes"`
}

// helloNode is one hosted node's slice of the run.
type helloNode struct {
	V         int    `json:"v"`
	Neighbors []int  `json:"neighbors"`
	InputBits int    `json:"input_bits"`
	InputData []byte `json:"input_data,omitempty"`
}

// helloOKFrame is the peer's handshake acknowledgement.
type helloOKFrame struct {
	Proto int `json:"proto"`
	Nodes int `json:"nodes"`
}

// errorFrame carries a structured *network.RunError across the wire, in
// either direction: a peer whose node callback failed reports the original
// phase (challenge, digest, decide), and a coordinator aborting a run
// tells every peer why.
type errorFrame struct {
	Protocol string `json:"protocol"`
	Phase    string `json:"phase"`
	Round    int    `json:"round"`
	Node     int    `json:"node"`
	Message  string `json:"message"`
}

// errorFrameOf projects a RunError onto its wire form.
func errorFrameOf(rerr *network.RunError) errorFrame {
	return errorFrame{
		Protocol: rerr.Protocol,
		Phase:    string(rerr.Phase),
		Round:    rerr.Round,
		Node:     rerr.Node,
		Message:  rerr.Err.Error(),
	}
}

// runError rebuilds the RunError an errorFrame describes.
func (ef errorFrame) runError() *network.RunError {
	return &network.RunError{
		Protocol: ef.Protocol,
		Phase:    network.Phase(ef.Phase),
		Round:    ef.Round,
		Node:     ef.Node,
		Err:      errors.New(ef.Message),
	}
}
