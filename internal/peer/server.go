package peer

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"dip/internal/network"
	"dip/internal/wire"
)

// SpecBuilder rebuilds a protocol Spec from the hello's opaque parameter
// blob. It is injected rather than imported so this package stays below
// the protocol registry in the dependency order: cmd/dippeer wires it to
// dip.PeerSpec, and tests wire it to fixtures. The builder must be
// deterministic in its parameters — both sides of a run construct the
// Spec independently, and bit-identity with an in-process run relies on
// the constructions agreeing.
type SpecBuilder func(params []byte) (*network.Spec, error)

// Server hosts verifier nodes for remote coordinators. Each accepted
// connection is a frame-multiplexed trunk: every frame carries a session
// id, a demux loop routes it to that session's state in an id-keyed
// table, and each session plays the node-facing half of one proof on its
// own goroutine, with its own deadline and cancel, through a network.Host
// it checks out of the engine-state pool for the nodes its hello names
// and gives back when it ends. Sessions fail in isolation — a poisoned
// session reports a structured error and leaves the table without
// disturbing its neighbors on the same connection. A single Server
// handles any number of sequential or concurrent sessions over shared or
// per-session connections.
type Server struct {
	// Build rebuilds the Spec a hello frame's parameters describe.
	// Required.
	Build SpecBuilder
	// Opts supplies the shared fleet configuration; the Server uses
	// IOTimeout, which bounds each session's blocking wait — for its next
	// expected frame, or for a write to drain — so a coordinator that
	// goes silent aborts that session instead of pinning its goroutine
	// forever. The connection itself carries no read deadline: an idle
	// trunk between runs is healthy, not stuck.
	Opts Options
	// FailSession, when positive, is a crash-test hook: the
	// FailSession-th accepted session kills the whole process
	// (os.Exit(2)) at its first exchange step — mid-round, after traffic
	// has flowed. The peer-smoke gate uses it to prove a coordinator
	// survives losing a peer with a structured error instead of a hang.
	FailSession int
	// FailSoft, when positive, aborts only the FailSoft-th accepted
	// session at its first exchange step with a structured error, leaving
	// every other session (and the process) running — the isolation
	// counterpart to FailSession's process kill.
	FailSoft int
	// Logf, when set, receives one line per session event.
	Logf func(format string, args ...any)

	mu       sync.Mutex
	conns    map[*srvConn]struct{}
	sessions int // global accept ordinal across all connections
	closed   bool
	wg       sync.WaitGroup
}

// Serve accepts connections on l until the listener closes (Close, or the
// caller closing l directly), which returns nil. Each connection's demux
// loop and each session run on their own goroutines.
func (s *Server) Serve(l net.Listener) error {
	if err := s.Opts.Validate(); err != nil {
		return err
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		c := &srvConn{srv: s, conn: conn, sessions: make(map[uint32]*session)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		if s.conns == nil {
			s.conns = make(map[*srvConn]struct{})
		}
		s.conns[c] = struct{}{}
		// Count the goroutine before unlocking: a Close that gets the lock
		// next must find it in the WaitGroup it waits on.
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			c.demux()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// Close aborts every live connection and session and waits for their
// goroutines to return. The caller closes its own listener (Serve then
// returns nil).
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.conn.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

func (s *Server) ioTimeout() time.Duration {
	return s.Opts.withDefaults().IOTimeout
}

// srvFrame is one routed inbound frame.
type srvFrame struct {
	typ     byte
	payload []byte
}

// sessionInboxCap bounds one session's inbound frame queue. The
// coordinator runs ahead of a session only by the steps it sends before
// its next wait, so a session's queue depth is bounded by the schedule
// and what TCP had in flight, not by run size; if a queue ever fills, the
// demux loop applies backpressure on the whole connection until the
// session drains it (or exits, which unblocks the demux immediately).
const sessionInboxCap = 256

// srvConn is one accepted connection: the shared write lock and the
// id-keyed session table its demux loop routes into.
type srvConn struct {
	srv  *Server
	conn net.Conn
	// wmu serializes writes from this connection's sessions; each write
	// holds it for one whole buffer of frames, so concurrent sessions'
	// frames never interleave on the wire.
	wmu sync.Mutex

	mu       sync.Mutex
	sessions map[uint32]*session
	torn     bool
}

// validFrameType reports whether typ is a defined frame type.
func validFrameType(typ byte) bool {
	switch typ {
	case frameHello, frameHelloOK, frameChallenge, frameResponse,
		frameForward, frameExchange, frameDecision, frameError:
		return true
	}
	return false
}

// demux reads frames off the connection and routes each to its session by
// id, spawning a new session on a hello for an unknown id. The read loop
// carries no deadline — idle trunks are healthy — and exits when the
// connection closes or a framing violation makes the stream unusable, at
// which point every session on the connection is aborted.
func (c *srvConn) demux() {
	defer c.conn.Close()
	br := bufio.NewReader(c.conn)
	first := true
	for {
		id, typ, payload, err := readFrame(br)
		if err != nil {
			c.teardown(fmt.Errorf("coordinator read: %w", err))
			return
		}
		if !validFrameType(typ) {
			if first && looksLikeV1(id, typ) {
				// A protocol-v1 client just sent its hello. Answer in the v1
				// framing so it decodes the rejection as a structured error
				// naming the version this peer requires.
				c.srv.logf("peer: rejecting protocol v1 connection from %v", c.conn.RemoteAddr())
				c.conn.SetWriteDeadline(time.Now().Add(c.srv.ioTimeout()))
				_ = writeV1Error(c.conn, errorFrame{
					Phase: string(network.PhaseTransport), Round: -1, Node: -1,
					Message: fmt.Sprintf("peer speaks wire protocol %d; protocol 1 connections are not supported — upgrade the client", Version),
				})
				c.teardown(errors.New("protocol v1 connection rejected"))
				return
			}
			c.sendError(id, &network.RunError{Phase: network.PhaseTransport, Round: -1, Node: -1,
				Err: fmt.Errorf("peer: unknown frame type 0x%02x", typ)})
			c.teardown(fmt.Errorf("unknown frame type 0x%02x", typ))
			return
		}
		first = false

		c.mu.Lock()
		st := c.sessions[id]
		if st == nil && typ == frameHello && !c.torn {
			st = c.open(id)
		}
		c.mu.Unlock()
		if st == nil {
			// A frame for a session that already ended (late traffic after a
			// soft failure) or that never opened: drop it. The stream itself
			// is healthy, so the neighbors keep running.
			continue
		}
		select {
		case st.inbox <- srvFrame{typ, payload}:
		case <-st.done:
			// The session exited while we held its frame; drop it.
		}
	}
}

// open registers a new session for id and starts its goroutine. Caller
// holds c.mu.
func (c *srvConn) open(id uint32) *session {
	s := c.srv
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.sessions++
	seq := s.sessions
	s.wg.Add(1)
	s.mu.Unlock()
	st := &session{
		srv: s, c: c, id: id, seq: seq,
		inbox: make(chan srvFrame, sessionInboxCap),
		abort: make(chan struct{}),
		done:  make(chan struct{}),
	}
	c.sessions[id] = st
	go func() {
		defer s.wg.Done()
		st.serve()
	}()
	return st
}

// teardown aborts every session on the connection; their goroutines
// observe the abort on their next wait and exit.
func (c *srvConn) teardown(cause error) {
	c.mu.Lock()
	if c.torn {
		c.mu.Unlock()
		return
	}
	c.torn = true
	aborting := make([]*session, 0, len(c.sessions))
	for _, st := range c.sessions {
		aborting = append(aborting, st)
	}
	c.mu.Unlock()
	if len(aborting) > 0 {
		c.srv.logf("peer: connection %v: aborting %d live sessions: %v", c.conn.RemoteAddr(), len(aborting), cause)
	}
	for _, st := range aborting {
		st.cancel(cause)
	}
}

// unregister removes a finished session from the table.
func (c *srvConn) unregister(id uint32) {
	c.mu.Lock()
	delete(c.sessions, id)
	c.mu.Unlock()
}

// write sends encoded frames with one Write under the connection's write
// lock and the I/O deadline. It is the server's only path to a
// coordinator: session flushes and error frames both go through it.
func (c *srvConn) write(frames []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.conn.SetWriteDeadline(time.Now().Add(c.srv.ioTimeout()))
	_, err := c.conn.Write(frames)
	return err
}

// sendError reports a structured failure for one session (best effort:
// the session is ending either way).
func (c *srvConn) sendError(id uint32, rerr *network.RunError) {
	payload, err := json.Marshal(errorFrameOf(rerr))
	if err != nil {
		return
	}
	if frame, err := appendFrame(nil, id, frameError, payload); err == nil {
		_ = c.write(frame)
	}
}

// session is one run's server half: the hosted nodes, the routed inbox,
// and the per-session deadline and cancel state.
type session struct {
	srv *Server
	c   *srvConn
	id  uint32 // wire session id (unique per connection)
	seq int    // global accept ordinal (failure hooks, logs)

	inbox chan srvFrame
	abort chan struct{} // closed by cancel: connection died or server closing
	done  chan struct{} // closed when the session goroutine exits

	cancelOnce sync.Once
	cause      error

	spec *network.Spec
	// host plays the hosted nodes, checked out of the engine-state pool
	// for this session. hosted counts them, and edges is the sum of their
	// degrees, the entry count of one exchange batch. row and decs carry
	// one step's outbound entries, hosted nodes ascending.
	host   *network.Host
	hosted int
	edges  int
	row    []wire.Message
	decs   []bool
	// out holds the frames staged since the last flush; batched reports
	// that they include a batch, not only the helloOK.
	out     []byte
	batched bool
}

// cancel aborts the session from outside (connection teardown, server
// close). Idempotent.
func (st *session) cancel(cause error) {
	st.cancelOnce.Do(func() {
		st.cause = cause
		close(st.abort)
	})
}

// serve runs one session to completion: hello, schedule walk, and the
// final flush of its decision batch.
func (st *session) serve() {
	rerr := st.run()
	close(st.done)
	st.c.unregister(st.id)
	if rerr != nil {
		st.srv.logf("peer: session %d (#%d): %v", st.id, st.seq, rerr)
		st.c.sendError(st.id, rerr)
		return
	}
	st.srv.logf("peer: session %d (#%d): complete", st.id, st.seq)
}

// readNext waits for the session's next routed frame under its own
// deadline, translating a coordinator-initiated abort: an error frame
// surfaces the coordinator's RunError. A session that has staged a batch
// since its last write flushes first, because the coordinator may be
// waiting on it; the helloOK alone is never worth a write, so it goes out
// with the session's first batch.
func (st *session) readNext() (byte, []byte, *network.RunError) {
	if st.batched {
		if rerr := st.flush(); rerr != nil {
			return 0, nil, rerr
		}
	}
	timer := time.NewTimer(st.srv.ioTimeout())
	defer timer.Stop()
	select {
	case f := <-st.inbox:
		if f.typ == frameError {
			var ef errorFrame
			if jerr := json.Unmarshal(f.payload, &ef); jerr != nil {
				return 0, nil, st.failf(-1, "malformed error frame: %v", jerr)
			}
			return 0, nil, ef.runError()
		}
		return f.typ, f.payload, nil
	case <-st.abort:
		return 0, nil, st.failf(-1, "session aborted: %v", st.cause)
	case <-timer.C:
		return 0, nil, st.failf(-1, "timed out after %v waiting for the coordinator", st.srv.ioTimeout())
	}
}

// send stages one frame for this session's next flush.
func (st *session) send(typ byte, payload []byte) *network.RunError {
	out, err := appendFrame(st.out, st.id, typ, payload)
	if err != nil {
		return st.failf(-1, "%v", err)
	}
	st.out = out
	return nil
}

// flush writes the session's staged frames in one Write.
func (st *session) flush() *network.RunError {
	if len(st.out) == 0 {
		return nil
	}
	err := st.c.write(st.out)
	st.out, st.batched = st.out[:0], false
	if err != nil {
		return st.failf(-1, "coordinator write: %v", err)
	}
	return nil
}

// failf builds a PhaseTransport RunError for this session.
func (st *session) failf(round int, format string, args ...any) *network.RunError {
	name := ""
	if st.spec != nil {
		name = st.spec.Name
	}
	return &network.RunError{Protocol: name, Phase: network.PhaseTransport,
		Round: round, Node: -1, Err: fmt.Errorf(format, args...)}
}

func (st *session) run() *network.RunError {
	srv := st.srv
	typ, payload, rerr := st.readNext()
	if rerr != nil {
		return rerr
	}
	if typ != frameHello {
		return st.failf(-1, "first frame type 0x%02x, want hello", typ)
	}
	h, err := decodeHello(payload)
	if err != nil {
		return st.failf(-1, "%v", err)
	}
	spec, err := srv.Build(h.params)
	if err != nil {
		return &network.RunError{Protocol: "", Phase: network.PhaseSetup, Round: -1, Node: -1,
			Err: fmt.Errorf("peer: building spec: %w", err)}
	}
	st.spec = spec
	host, err := network.AcquireHost(spec, h.n, h.seed, h.nodes, h.nbrs, h.inputs)
	if err != nil {
		return &network.RunError{Protocol: spec.Name, Phase: network.PhaseSetup, Round: -1, Node: -1,
			Err: fmt.Errorf("peer: hosting nodes: %w", err)}
	}
	defer host.Release()
	st.host, st.hosted = host, len(h.nodes)
	for _, nbrs := range h.nbrs {
		st.edges += len(nbrs)
	}
	st.row = make([]wire.Message, st.hosted)
	st.decs = make([]bool, st.hosted)
	if rerr := st.send(frameHelloOK, appendHelloOK(nil, st.hosted)); rerr != nil {
		return rerr
	}
	srv.logf("peer: session %d (#%d): hosting %d of %d nodes (%s)", st.id, st.seq, st.hosted, h.n, spec.Name)

	for _, step := range host.Steps() {
		if rerr := st.step(step); rerr != nil {
			return rerr
		}
	}
	// Every schedule ends with the decide step, so the decision batch is
	// staged; writing it completes the session. The coordinator sends no
	// closing frame.
	return st.flush()
}

// step plays the node-facing half of one schedule step through the host:
// one batch out (the challenges, digests, or decisions of every hosted
// node) or one batch in (responses or exchange copies), in hosted-node
// order.
func (st *session) step(step network.ScheduleStep) *network.RunError {
	switch step.Kind {
	case network.StepChallenge:
		if rerr := st.host.Challenge(step.Round, st.row); rerr != nil {
			return rerr
		}
		return st.sendMessages(frameChallenge, step.Round, "challenge")

	case network.StepRespond:
		// The host copies the responses into its views, so the row is
		// free again once Respond returns.
		msgs, rerr := st.readMessages(st.row[:0], frameResponse, step.Round, 0, st.hosted)
		if rerr != nil {
			return rerr
		}
		return st.host.Respond(step.Round, msgs)

	case network.StepExchange:
		srv := st.srv
		if srv.FailSession > 0 && st.seq == srv.FailSession {
			// Crash-test hook: die mid-round, after the hello and at least
			// one full message phase, without any cleanup — exactly like a
			// peer host losing power.
			srv.logf("peer: session %d (#%d): FailSession crash hook firing", st.id, st.seq)
			os.Exit(2)
		}
		if srv.FailSoft > 0 && st.seq == srv.FailSoft {
			// Isolation hook: poison just this session, mid-round. The
			// structured error reaches only this session's coordinator;
			// every neighbor session keeps running.
			srv.logf("peer: session %d (#%d): FailSoft abort hook firing", st.id, st.seq)
			return st.failf(step.Round, "FailSoft hook: session #%d aborted by configuration", st.seq)
		}
		if st.spec.Rounds[step.Round].Digest != nil {
			if rerr := st.host.Forward(step.Round, st.row); rerr != nil {
				return rerr
			}
			if rerr := st.sendMessages(frameForward, step.Round, "forward"); rerr != nil {
				return rerr
			}
		}
		var flags byte
		if step.Chal {
			flags = flagChal
		}
		// The batch is positional, receivers ascending and each one's
		// senders in neighbor-list order: the layout Host.Exchange carves
		// by neighbor offsets. The views keep it for the rest of the run.
		msgs, rerr := st.readMessages(make([]wire.Message, 0, st.edges), frameExchange, step.Round, flags, st.edges)
		if rerr != nil {
			return rerr
		}
		return st.host.Exchange(step, msgs)

	case network.StepDecide:
		if rerr := st.host.Decide(st.decs); rerr != nil {
			return rerr
		}
		b := batch{round: step.Round}
		for _, d := range st.decs {
			b.addDecision(d)
		}
		return st.sendBatch(frameDecision, &b)
	}
	return nil
}

// sendMessages stages the row's messages as one batch of type typ.
func (st *session) sendMessages(typ byte, round int, what string) *network.RunError {
	b := batch{round: round}
	for _, m := range st.row {
		if err := b.addMessage(m); err != nil {
			return st.failf(round, "encoding %s: %v", what, err)
		}
	}
	return st.sendBatch(typ, &b)
}

// sendBatch stages b's frames for this session.
func (st *session) sendBatch(typ byte, b *batch) *network.RunError {
	for _, p := range b.finish() {
		if rerr := st.send(typ, p); rerr != nil {
			return rerr
		}
	}
	st.batched = true
	return nil
}

// readMessages appends one step's inbound batch of want message entries
// to msgs: one frame, or several when the sender split the batch at the
// frame cap. A step owing nothing reads nothing.
func (st *session) readMessages(msgs []wire.Message, typ byte, round int, flags byte, want int) ([]wire.Message, *network.RunError) {
	for len(msgs) < want {
		got, payload, rerr := st.readNext()
		if rerr != nil {
			return nil, rerr
		}
		if got != typ {
			return nil, st.failf(round, "frame type 0x%02x during a step awaiting 0x%02x", got, typ)
		}
		count, body, err := readBatch(payload, round, flags, want-len(msgs))
		if err == nil {
			msgs, err = decodeMessages(msgs, body, count)
		}
		if err != nil {
			return nil, st.failf(round, "batch 0x%02x: %v", typ, err)
		}
	}
	return msgs, nil
}
