// Package peer runs verifier nodes as real network peers: a Server hosts
// nodes in its own OS process, playing them through a pooled network.Host
// per session, and a Fleet implements network.Transport by dialing a set
// of servers, so the engine's walk drives actual sockets.
//
// The wire protocol (v4) is deliberately minimal: length-prefixed binary
// frames, each stamped with a session id, over TCP. One peer process
// hosts many interleaved sessions — over a shared connection, or over
// per-session connections — and the session id routes every frame to its
// session's state. A session opens with a binary hello that provisions
// the peer — protocol parameters, run seed, and the graph *slice* of
// every node the peer hosts (its neighbor lists and inputs, never the
// whole graph) — and then both sides walk the spec-derived schedule
// (network.Host.Steps), so no round negotiation ever crosses the wire. The
// peer acknowledges the hello with a helloOK, but nobody waits for it:
// the coordinator sends its first steps right behind the hello and checks
// the helloOK when it arrives, ahead of the peer's first batch.
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
// Neither side writes a frame as soon as it is made. Each stages its
// frames and writes them, one Write per connection, only when it is about
// to wait for the other side, so consecutive steps in one direction share
// a write. A run therefore costs each side one write per peer for every
// stretch of the schedule in which it sends, and a successful session
// needs no closing frame: it ends with the peer's decision batch.
//
// Everything semantic stays on the coordinator: validation, cost
// accounting, fault corruption, and the transcript live in the engine's
// delivery funnel, and peers only ever see post-funnel copies. That is
// what keeps a multi-process run bit-identical to an in-process one
// (asserted by the equivalence suite) and what lets
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

// Version is the wire protocol version. The hello carries it in its first
// field and the helloOK echoes it; a peer refuses any other version — and
// any JSON hello, the handshake of protocols 1 to 3 — with a structured
// error naming the version it requires, so mixed-build fleets fail loudly
// on their first run.
const Version = 4

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
// exchange, and error frames; the peer→coordinator direction carries
// helloOK, challenge, forward, decision, and error frames. The five data
// types are batch frames: u32 round | u8 flags | u32 count | entries.
const (
	frameHello     byte = 0x01 // binary hello (appendHello)
	frameHelloOK   byte = 0x02 // u32 proto | u32 hosted nodes
	frameChallenge byte = 0x10 // batch of messages, hosted nodes ascending
	frameResponse  byte = 0x11 // batch of messages, hosted nodes ascending
	frameForward   byte = 0x12 // batch of messages, hosted nodes ascending
	frameExchange  byte = 0x13 // batch of messages, receiver ascending, senders in neighbor-list order
	frameDecision  byte = 0x14 // batch of u8 decisions, hosted nodes ascending
	frameError     byte = 0x1E // JSON errorFrame; aborts the session
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

// appendFrame appends one frame to b: a 4-byte big-endian length covering
// the session id, type byte, and payload, then all three. Both sides
// stage their frames this way and write everything staged for a
// connection with a single Write when they are about to wait — frames
// from concurrent sessions sharing a connection can never interleave as
// long as each write holds the connection's write lock for the whole
// buffer.
func appendFrame(b []byte, sess uint32, typ byte, payload []byte) ([]byte, error) {
	body := 5 + len(payload)
	if body > maxFrame {
		return nil, fmt.Errorf("peer: frame type 0x%02x body of %d bytes exceeds the %d cap", typ, body, maxFrame)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(body))
	b = binary.BigEndian.AppendUint32(b, sess)
	b = append(b, typ)
	return append(b, payload...), nil
}

// readFrame reads one frame, returning its session id, type, and payload.
// The length prefix is validated before any allocation, so a malformed or
// hostile peer cannot trigger an oversized read. The frame layout is the
// same in protocols v2 to v4; only the payloads differ.
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

// hello is the coordinator's session-opening frame: everything a peer
// needs to host its slice of the run. params is an opaque protocol
// parameter blob the peer's SpecBuilder understands (for dippeer: the
// JSON params dip.PeerSpec decodes). The hosted nodes come in the layout
// network.AcquireHost takes: nodes strictly ascending, and nbrs[i] and
// inputs[i] (inputs nil for none) nodes[i]'s neighbor list and private
// input — the peer never sees the rest of the graph. The node order and
// each neighbor list's order are the positional order of every batch in
// the session.
//
// On the wire (appendHello, decodeHello):
//
//	u32 proto | u64 seed | u32 n | u32 len | params |
//	u32 count | count × (u32 v | u32 degree | degree × u32 | input message)
type hello struct {
	seed   int64
	n      int
	params []byte
	nodes  []int
	nbrs   [][]int
	inputs []wire.Message
}

const (
	// helloHeader is the length of a hello's fields before params:
	// u32 proto | u64 seed | u32 n | u32 len.
	helloHeader = 20
	// helloNodeMin is the length of the smallest node entry: u32 v |
	// u32 degree | an empty input message (u32 bits).
	helloNodeMin = 12
)

// appendHello appends h's wire form, stamped with this build's Version.
func appendHello(b []byte, h *hello) ([]byte, error) {
	b = binary.BigEndian.AppendUint32(b, Version)
	b = binary.BigEndian.AppendUint64(b, uint64(h.seed))
	b = binary.BigEndian.AppendUint32(b, uint32(h.n))
	b = binary.BigEndian.AppendUint32(b, uint32(len(h.params)))
	b = append(b, h.params...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(h.nodes)))
	for i, v := range h.nodes {
		b = binary.BigEndian.AppendUint32(b, uint32(v))
		b = binary.BigEndian.AppendUint32(b, uint32(len(h.nbrs[i])))
		for _, u := range h.nbrs[i] {
			b = binary.BigEndian.AppendUint32(b, uint32(u))
		}
		var input wire.Message
		if h.inputs != nil {
			input = h.inputs[i]
		}
		var err error
		if b, err = appendMessage(b, input); err != nil {
			return nil, fmt.Errorf("node %d input: %w", v, err)
		}
	}
	return b, nil
}

// decodeHello decodes a hello payload and checks everything a session
// relies on before it hosts any node: the protocol version (a payload
// opening with '{' is the JSON hello of protocols 1 to 3), the node
// count, nodes strictly ascending in [0, n), and every neighbor list in
// the NodeView contract — strictly ascending, in [0, n), without the node
// itself. Every count is bounded by the bytes left before anything is
// allocated for it. The neighbor lists are carved from one backing array,
// sized by the bytes left once every node's helloNodeMin is set aside;
// params and the inputs alias p.
func decodeHello(p []byte) (*hello, error) {
	if len(p) > 0 && p[0] == '{' {
		return nil, fmt.Errorf("peer: JSON hello (wire protocol 3 or older): this peer requires wire protocol %d", Version)
	}
	if len(p) < 4 {
		return nil, fmt.Errorf("peer: hello truncated (%d bytes)", len(p))
	}
	if proto := binary.BigEndian.Uint32(p); proto != Version {
		return nil, fmt.Errorf("peer: hello proto %d: this peer requires wire protocol %d", proto, Version)
	}
	if len(p) < helloHeader {
		return nil, fmt.Errorf("peer: hello header truncated (%d bytes)", len(p))
	}
	n, plen := binary.BigEndian.Uint32(p[12:]), binary.BigEndian.Uint32(p[16:])
	h := &hello{seed: int64(binary.BigEndian.Uint64(p[4:])), n: int(n)}
	p = p[helloHeader:]
	if uint64(plen)+4 > uint64(len(p)) {
		return nil, fmt.Errorf("peer: hello params of %d bytes truncated (%d left)", plen, len(p))
	}
	h.params = p[:plen:plen]
	count := binary.BigEndian.Uint32(p[plen:])
	p = p[plen+4:]
	if count < 1 || count > n {
		return nil, fmt.Errorf("peer: hello provisions %d nodes of %d", count, n)
	}
	if uint64(count) > uint64(len(p)/helloNodeMin) {
		return nil, fmt.Errorf("peer: hello claims %d nodes in %d bytes", count, len(p))
	}
	h.nodes = make([]int, count)
	h.nbrs = make([][]int, count)
	h.inputs = make([]wire.Message, count)
	// A valid hello spends 4 bytes per neighbor beyond every node's
	// helloNodeMin, so its lists fit flat without a reallocation.
	flat := make([]int, 0, (len(p)-int(count)*helloNodeMin)/4)
	for i := range h.nodes {
		if len(p) < 8 {
			return nil, fmt.Errorf("peer: hello node %d truncated", i)
		}
		v, deg := binary.BigEndian.Uint32(p), binary.BigEndian.Uint32(p[4:])
		p = p[8:]
		if v >= n || (i > 0 && v <= uint32(h.nodes[i-1])) {
			return nil, fmt.Errorf("peer: hello nodes not strictly ascending in [0,%d) at node %d", n, v)
		}
		if uint64(deg) > uint64(len(p)/4) {
			return nil, fmt.Errorf("peer: hello node %d claims %d neighbors in %d bytes", v, deg, len(p))
		}
		lo := len(flat)
		for j := 0; j < int(deg); j++ {
			u := binary.BigEndian.Uint32(p[4*j:])
			switch {
			case u >= n:
				return nil, fmt.Errorf("peer: hello node %d neighbor %d out of range [0,%d)", v, u, n)
			case u == v:
				return nil, fmt.Errorf("peer: hello node %d lists itself as a neighbor", v)
			case j > 0 && u <= uint32(flat[len(flat)-1]):
				return nil, fmt.Errorf("peer: hello node %d neighbors not strictly ascending at %d", v, u)
			}
			flat = append(flat, int(u))
		}
		input, rest, err := decodeMessage(p[4*int(deg):])
		if err != nil {
			return nil, fmt.Errorf("hello node %d input: %w", v, err)
		}
		h.nodes[i], h.nbrs[i], h.inputs[i] = int(v), flat[lo:len(flat):len(flat)], input
		p = rest
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("peer: hello has %d trailing bytes", len(p))
	}
	return h, nil
}

// appendHelloOK appends the peer's acknowledgement of a hello: this
// build's Version and the number of nodes the session hosts.
func appendHelloOK(b []byte, nodes int) []byte {
	b = binary.BigEndian.AppendUint32(b, Version)
	return binary.BigEndian.AppendUint32(b, uint32(nodes))
}

// decodeHelloOK decodes a helloOK payload into its proto and node count.
func decodeHelloOK(p []byte) (proto, nodes int, err error) {
	if len(p) != 8 {
		return 0, 0, fmt.Errorf("peer: helloOK of %d bytes (want 8)", len(p))
	}
	return int(binary.BigEndian.Uint32(p)), int(binary.BigEndian.Uint32(p[4:])), nil
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
