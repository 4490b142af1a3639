package peer

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"dip/internal/network"
	"dip/internal/wire"
)

// Transport implements network.Transport for one run over a Fleet: Begin
// places the run's nodes on the live peers, mints one session id, and
// provisions every involved peer; the frame traffic of the run then
// flows through the fleet's per-connection readers into this run's
// inbox, routed by session id. End releases the session but leaves the
// fleet's connections standing for the next run (unless the transport
// owns a one-shot fleet, built by Dial, which it closes).
//
// Node-side traffic moves as one batch per connection per schedule step.
// The Transport contract fixes both the number and the order of the
// executor's calls in every step, so the transport needs no schedule of
// its own: outbound entries are staged per connection and flushed when
// the connection's last entry of the step arrives, and inbound batches
// are decoded one frame at a time as the step's calls consume them.
type Transport struct {
	fleet     *Fleet
	params    []byte
	ownsFleet bool

	protocol string
	n        int
	cancel   <-chan struct{}
	sess     uint32
	conns    []*fleetConn // run-local connection index → peer
	assign   []int        // node → run-local connection index
	hosted   [][]int      // connection → its nodes ascending (batch order)
	edges    []int        // connection → Σ degree of its nodes (exchange batch size)
	seqs     []int        // per-connection outbound frame sequence (LinkFaults keying)
	inbox    chan inFrame
	sinkDone chan struct{}
	// pending buffers batch frames from peers running ahead of the
	// coordinator's schedule walk, keyed by pendKey (frame type and round).
	pending map[uint64][]inFrame
	// out stages each connection's share of the current coordinator→peer
	// step; in is the current peer→coordinator step.
	out    []staged
	in     collect
	ended  bool
	failed bool
}

// staged is one connection's outbound batch under construction.
type staged struct {
	batch
	left int // entries the step still owes this connection; 0 = none open
}

// collect is the peer→coordinator step in progress: the entries of the
// last decoded batch frame not yet returned to the executor, and what
// each connection still owes.
type collect struct {
	owed  []int // per connection
	left  int   // Σ owed; 0 = no step open
	conn  int   // connection of the decoded frame
	first int   // index in hosted[conn] of the frame's first entry
	count int   // entries in the frame
	head  int   // next entry to return
	msgs  []wire.Message
	decs  []bool
}

// inFrame is one frame (or terminal read error) from a peer connection,
// attributed to its run-local connection index.
type inFrame struct {
	conn    int
	typ     byte
	payload []byte
	err     error
}

// failf builds a PhaseTransport RunError.
func (t *Transport) failf(round, node int, format string, args ...any) *network.RunError {
	return &network.RunError{Protocol: t.protocol, Phase: network.PhaseTransport,
		Round: round, Node: node, Err: fmt.Errorf(format, args...)}
}

// Begin places the run on the fleet's live peers, provisions each with
// its node slice, and waits for all handshake acknowledgements. Nodes go
// round-robin over the live peers (node v on live peer v mod k); peers
// whose connections are down are redialed once and skipped if still
// unreachable, so a fleet missing a peer keeps serving on the rest.
func (t *Transport) Begin(run *network.TransportRun) *network.RunError {
	t.protocol = run.Spec.Name
	t.n = run.N
	t.cancel = run.Cancel

	t.fleet.mu.Lock()
	closed := t.fleet.closed
	t.fleet.mu.Unlock()
	if closed {
		return t.failf(-1, -1, "fleet closed")
	}
	var lastErr error
	for _, fc := range t.fleet.peers {
		if err := fc.ensure(); err != nil {
			lastErr = err
			continue
		}
		t.conns = append(t.conns, fc)
		if len(t.conns) == run.N {
			break
		}
	}
	if len(t.conns) == 0 {
		return t.failf(-1, -1, "no reachable peers in fleet of %d: %v", len(t.fleet.addrs), lastErr)
	}

	k := len(t.conns)
	t.assign = make([]int, run.N)
	t.hosted = make([][]int, k)
	t.edges = make([]int, k)
	t.seqs = make([]int, k)
	t.out = make([]staged, k)
	t.in.owed = make([]int, k)
	perConn := make([][]helloNode, k)
	for v := 0; v < run.N; v++ {
		ci := v % k
		t.assign[v] = ci
		t.hosted[ci] = append(t.hosted[ci], v)
		t.edges[ci] += len(run.Neighbors[v])
		var input wire.Message
		if run.Inputs != nil {
			input = run.Inputs[v]
		}
		perConn[ci] = append(perConn[ci], helloNode{
			V: v,
			// Copy: TransportRun.Neighbors aliases pooled engine state.
			Neighbors: append([]int(nil), run.Neighbors[v]...),
			InputBits: input.Bits,
			InputData: input.Data,
		})
	}

	t.sess = t.fleet.sess.Add(1)
	// A run receives a handful of batch frames per connection per step;
	// the buffer lets peers running a step or two ahead deliver without
	// stalling the connection's reader.
	t.inbox = make(chan inFrame, 4*k+16)
	t.sinkDone = make(chan struct{})
	for _, fc := range t.conns {
		// Count before registering so every release path decrements
		// symmetrically, however far Begin got.
		fc.sessionsOpen.Add(1)
	}
	for i, fc := range t.conns {
		if err := fc.register(t.sess, &sink{ch: t.inbox, conn: i, done: t.sinkDone}); err != nil {
			t.release(true)
			return t.failf(-1, -1, "%v", err)
		}
	}
	for i, fc := range t.conns {
		hello := helloFrame{Proto: Version, Params: t.params, Seed: run.Seed, N: run.N, Nodes: perConn[i]}
		payload, jerr := json.Marshal(hello)
		if jerr != nil {
			t.release(true)
			return t.failf(-1, -1, "marshaling hello: %v", jerr)
		}
		if err := fc.sendFrame(t.sess, frameHello, payload); err != nil {
			t.release(true)
			return t.failf(-1, -1, "%v", err)
		}
	}

	// Await one helloOK per involved peer. A fast peer's post-handshake
	// batches can arrive before a slow peer's acknowledgement; those are
	// buffered for their step like any ahead-of-schedule frame.
	acked := make([]bool, k)
	timer := time.NewTimer(t.fleet.opts.IOTimeout)
	defer timer.Stop()
	for remaining := k; remaining > 0; {
		select {
		case f := <-t.inbox:
			if f.err != nil {
				t.release(true)
				return t.failf(-1, -1, "handshake: %v", f.err)
			}
			switch f.typ {
			case frameHelloOK:
				var ok helloOKFrame
				if jerr := json.Unmarshal(f.payload, &ok); jerr != nil {
					t.release(true)
					return t.failf(-1, -1, "peer %s handshake: %v", t.conns[f.conn].addr, jerr)
				}
				if ok.Proto != Version || ok.Nodes != len(perConn[f.conn]) {
					t.release(true)
					return t.failf(-1, -1, "peer %s acknowledged proto %d, %d nodes (want %d, %d)",
						t.conns[f.conn].addr, ok.Proto, ok.Nodes, Version, len(perConn[f.conn]))
				}
				if acked[f.conn] {
					t.release(true)
					return t.failf(-1, -1, "peer %s acknowledged twice", t.conns[f.conn].addr)
				}
				acked[f.conn] = true
				remaining--
			case frameError:
				var ef errorFrame
				if jerr := json.Unmarshal(f.payload, &ef); jerr != nil {
					t.release(true)
					return t.failf(-1, -1, "peer %s handshake error frame: %v", t.conns[f.conn].addr, jerr)
				}
				t.release(true)
				return ef.runError()
			case frameChallenge, frameForward, frameDecision:
				if rerr := t.hold(f, -1); rerr != nil {
					t.release(true)
					return rerr
				}
			default:
				t.release(true)
				return t.failf(-1, -1, "peer %s handshake frame type 0x%02x", t.conns[f.conn].addr, f.typ)
			}
		case <-t.cancel:
			t.release(true)
			return &network.RunError{Protocol: t.protocol, Phase: network.PhaseCanceled,
				Round: -1, Node: -1, Err: fmt.Errorf("run canceled during handshake")}
		case <-timer.C:
			t.release(true)
			return t.failf(-1, -1, "handshake incomplete within %v", t.fleet.opts.IOTimeout)
		}
	}
	return nil
}

// pendKey buckets buffered ahead-of-step batch frames by type and the
// round in their header (the decide step's round is -1).
func pendKey(typ byte, round uint32) uint64 {
	return uint64(typ)<<32 | uint64(round)
}

// hold buffers a batch frame that arrived ahead of its step under its own
// (type, round) key. A frame too short to name its round can never be
// served, so it fails the run.
func (t *Transport) hold(f inFrame, round int) *network.RunError {
	if len(f.payload) < 4 {
		return t.failf(round, -1, "peer %s sent a %d-byte batch frame", t.conns[f.conn].addr, len(f.payload))
	}
	key := pendKey(f.typ, binary.BigEndian.Uint32(f.payload))
	t.pending[key] = append(t.pending[key], f)
	return nil
}

// recv returns the next batch frame of the expected type and round,
// translating terminal conditions: connection loss and silence past
// IOTimeout become PhaseTransport errors, engine cancellation becomes
// PhaseCanceled, and a peer's error frame surfaces as the RunError it
// carries.
//
// Peers walk the schedule without waiting for the coordinator, so on
// consecutive peer→coordinator steps (an Arthur round straight into
// decide, or two Arthur rounds back to back) a fast peer's batch for a
// later step arrives while the current one is still draining. Those
// frames are buffered under their own (type, round) key and served when
// their step comes; only types a peer can never legitimately send are
// protocol violations.
func (t *Transport) recv(expect byte, round int, what string) (inFrame, *network.RunError) {
	want := pendKey(expect, uint32(round))
	if q := t.pending[want]; len(q) > 0 {
		f := q[0]
		t.pending[want] = q[1:]
		return f, nil
	}
	timer := time.NewTimer(t.fleet.opts.IOTimeout)
	defer timer.Stop()
	for {
		select {
		case f := <-t.inbox:
			if f.err != nil {
				return f, t.failf(round, -1, "%v", f.err)
			}
			switch f.typ {
			case frameError:
				var ef errorFrame
				if jerr := json.Unmarshal(f.payload, &ef); jerr != nil {
					return f, t.failf(round, -1, "peer %s error frame: %v", t.conns[f.conn].addr, jerr)
				}
				return f, ef.runError()
			case frameChallenge, frameForward, frameDecision:
				if f.typ == expect && len(f.payload) >= 4 && binary.BigEndian.Uint32(f.payload) == uint32(round) {
					return f, nil
				}
				if rerr := t.hold(f, round); rerr != nil {
					return f, rerr
				}
			default:
				return f, t.failf(round, -1, "peer %s sent frame type 0x%02x awaiting %s", t.conns[f.conn].addr, f.typ, what)
			}
		case <-t.cancel:
			return inFrame{}, &network.RunError{Protocol: t.protocol, Phase: network.PhaseCanceled,
				Round: round, Node: -1, Err: fmt.Errorf("run canceled awaiting %s", what)}
		case <-timer.C:
			return inFrame{}, t.failf(round, -1, "no %s within %v", what, t.fleet.opts.IOTimeout)
		}
	}
}

// next returns the node and entry index of the current peer→coordinator
// step's next entry, decoding another batch frame when the decoded
// entries run out. A step opens on its first call with every connection
// owing one entry per hosted node; the frame's count is checked against
// what its connection still owes before anything is decoded, and its
// entries map positionally onto the connection's hosted nodes.
func (t *Transport) next(expect byte, round int, what string) (int, int, *network.RunError) {
	in := &t.in
	if in.head == in.count {
		if in.left == 0 {
			for ci, h := range t.hosted {
				in.owed[ci] = len(h)
			}
			in.left = t.n
		}
		f, rerr := t.recv(expect, round, what)
		if rerr != nil {
			return -1, -1, rerr
		}
		owed := in.owed[f.conn]
		if owed == 0 {
			return -1, -1, t.failf(round, -1, "peer %s sent a surplus %s batch", t.conns[f.conn].addr, what)
		}
		count, body, err := readBatch(f.payload, round, 0, owed)
		if err == nil {
			if expect == frameDecision {
				in.decs, err = decodeDecisions(in.decs[:0], body, count)
			} else {
				in.msgs, err = decodeMessages(in.msgs[:0], body, count)
			}
		}
		if err != nil {
			return -1, -1, t.failf(round, -1, "peer %s %s batch: %v", t.conns[f.conn].addr, what, err)
		}
		in.conn, in.first, in.count, in.head = f.conn, len(t.hosted[f.conn])-owed, count, 0
		in.owed[f.conn] -= count
		in.left -= count
	}
	i := in.head
	in.head++
	return t.hosted[in.conn][in.first+i], i, nil
}

// send writes one run frame to run-local connection ci, applying the
// fleet's LinkFaults policy first: a delayed frame waits out its
// injected latency on a timer that still honors run cancellation (a
// canceled run returns promptly however large the delay), and a dropped
// frame never reaches the socket — the emulated partition stalls the
// session until a deadline fires and the run fails with a structured
// transport error. Faults apply only to the run's message traffic
// (response and exchange batches), never to session control frames, so a
// faulted link degrades or kills runs but cannot corrupt a handshake.
func (t *Transport) send(ci int, typ byte, payload []byte) *network.RunError {
	fc := t.conns[ci]
	if lf := t.fleet.opts.LinkFaults; lf != nil && lf.Enabled() && (typ == frameResponse || typ == frameExchange) {
		seq := t.seqs[ci]
		t.seqs[ci]++
		delay, drop := lf.Decide(fc.idx, seq)
		if drop {
			fc.framesDropped.Add(1)
			return nil
		}
		if delay > 0 {
			timer := time.NewTimer(delay)
			select {
			case <-timer.C:
			case <-t.cancel:
				timer.Stop()
				return &network.RunError{Protocol: t.protocol, Phase: network.PhaseCanceled,
					Round: -1, Node: -1, Err: fmt.Errorf("run canceled during injected %v link delay", delay)}
			}
		}
	}
	if err := fc.sendFrame(t.sess, typ, payload); err != nil {
		return t.failf(-1, -1, "%v", err)
	}
	return nil
}

// stage appends one outbound entry to connection ci's batch for the
// current step, whose batch holds size entries in all, and sends the
// batch once its last entry is in. The executor's call order is the
// batch's positional order, so entries are appended as they come.
func (t *Transport) stage(ci int, typ byte, ri int, flags byte, size, node int, m wire.Message) *network.RunError {
	o := &t.out[ci]
	if o.left == 0 {
		*o = staged{batch: batch{round: ri, flags: flags}, left: size}
	}
	if err := o.addMessage(m); err != nil {
		return t.failf(ri, node, "encoding batch for peer %s: %v", t.conns[ci].addr, err)
	}
	if o.left--; o.left > 0 {
		return nil
	}
	for _, p := range o.finish() {
		if rerr := t.send(ci, typ, p); rerr != nil {
			return rerr
		}
	}
	return nil
}

// RecvChallenge implements network.Transport.
func (t *Transport) RecvChallenge(ri int) (int, wire.Message, *network.RunError) {
	v, i, rerr := t.next(frameChallenge, ri, "challenge")
	if rerr != nil {
		return -1, wire.Message{}, rerr
	}
	return v, t.in.msgs[i], nil
}

// SendResponse implements network.Transport.
func (t *Transport) SendResponse(ri, node int, m wire.Message) *network.RunError {
	ci := t.assign[node]
	return t.stage(ci, frameResponse, ri, 0, len(t.hosted[ci]), node, m)
}

// RecvForward implements network.Transport.
func (t *Transport) RecvForward(ri int) (int, wire.Message, *network.RunError) {
	v, i, rerr := t.next(frameForward, ri, "forward")
	if rerr != nil {
		return -1, wire.Message{}, rerr
	}
	return v, t.in.msgs[i], nil
}

// SendExchange implements network.Transport.
func (t *Transport) SendExchange(ri, from, to int, chal bool, m wire.Message) *network.RunError {
	var flags byte
	if chal {
		flags = flagChal
	}
	ci := t.assign[to]
	return t.stage(ci, frameExchange, ri, flags, t.edges[ci], from, m)
}

// RecvDecision implements network.Transport.
func (t *Transport) RecvDecision() (int, bool, *network.RunError) {
	v, i, rerr := t.next(frameDecision, -1, "decision")
	if rerr != nil {
		return -1, false, rerr
	}
	return v, t.in.decs[i], nil
}

// End implements network.Transport: tell every involved peer how the run
// finished (end on success, the failure otherwise), then release the
// session. The fleet's connections stay up for the next run; a one-shot
// transport (Dial) closes its private fleet.
func (t *Transport) End(failure *network.RunError) {
	if t.ended {
		return
	}
	t.ended = true
	var payload []byte
	typ := frameEnd
	if failure != nil {
		typ = frameError
		payload, _ = json.Marshal(errorFrameOf(failure))
	}
	for _, fc := range t.conns {
		// Best effort: a peer whose connection already died is skipped by
		// the write error path inside sendFrame.
		_ = fc.sendFrame(t.sess, typ, payload)
	}
	t.failed = failure != nil
	t.release(t.failed)
}

// release unregisters the run's session from every involved connection,
// settles the gauges, and (for one-shot transports) closes the fleet.
// Safe to call more than once; Begin's error paths use it before End.
func (t *Transport) release(failed bool) {
	if t.sinkDone != nil {
		select {
		case <-t.sinkDone:
			// Already released.
		default:
			close(t.sinkDone)
			for _, fc := range t.conns {
				fc.unregister(t.sess)
				fc.sessionsOpen.Add(-1)
				if failed {
					fc.sessionsFailed.Add(1)
				} else {
					fc.sessionsCompleted.Add(1)
				}
			}
		}
	}
	if t.ownsFleet {
		t.fleet.Close()
	}
}
