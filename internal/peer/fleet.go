package peer

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Fleet is a long-lived handle on a set of peer servers. It owns one
// persistent connection per peer, shared by every run: each run is one
// wire session, minted from a fleet-wide counter and multiplexed over
// the standing connections by the session id in every frame. A dead
// connection is redialed lazily on the next run that needs the peer;
// while a peer stays down, runs are placed on the remaining live peers,
// so a serving tier in front of the fleet degrades to structured errors
// for in-flight runs and recovers for subsequent ones without a restart.
type Fleet struct {
	addrs []string
	opts  Options
	peers []*fleetConn
	sess  atomic.Uint32

	mu     sync.Mutex
	closed bool
}

// NewFleet validates the configuration and builds a fleet handle without
// touching the network; connections open lazily at each run's Begin.
func NewFleet(addrs []string, opts Options) (*Fleet, error) {
	if len(addrs) == 0 {
		return nil, errors.New("peer: no peer addresses")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	f := &Fleet{addrs: append([]string(nil), addrs...), opts: opts}
	for i, addr := range f.addrs {
		f.peers = append(f.peers, &fleetConn{addr: addr, idx: i, opts: opts})
	}
	return f, nil
}

// DialFleet builds a fleet handle and eagerly connects every peer, so a
// misconfigured or unreachable fleet fails at startup instead of on the
// first run. Connections that later die are redialed lazily.
func DialFleet(addrs []string, opts Options) (*Fleet, error) {
	f, err := NewFleet(addrs, opts)
	if err != nil {
		return nil, err
	}
	if err := f.Ready(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Ready ensures every peer has a live connection, redialing dead ones,
// and reports the unreachable remainder. A nil error means the whole
// fleet is reachable right now.
func (f *Fleet) Ready() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return errors.New("peer: fleet closed")
	}
	f.mu.Unlock()
	var bad []string
	for _, fc := range f.peers {
		if err := fc.ensure(); err != nil {
			bad = append(bad, fmt.Sprintf("%s (%v)", fc.addr, err))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("peer: unreachable peers: %s", strings.Join(bad, "; "))
	}
	return nil
}

// Addrs returns the fleet's peer addresses in placement order.
func (f *Fleet) Addrs() []string {
	return append([]string(nil), f.addrs...)
}

// NewRun mints a transport for one run over the fleet's connections.
// params is the opaque protocol parameter blob every peer's SpecBuilder
// will rebuild the Spec from (for dippeer fleets: the JSON params
// dip.PeerSpec decodes). The returned transport serves exactly one run.
func (f *Fleet) NewRun(params []byte) *Transport {
	return &Transport{
		fleet:   f,
		params:  append([]byte(nil), params...),
		pending: make(map[uint64][]inFrame),
	}
}

// Close tears down every connection and joins their readers. Runs still
// in flight fail with transport errors.
func (f *Fleet) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	f.mu.Unlock()
	for _, fc := range f.peers {
		fc.close()
	}
	return nil
}

// PeerStats is one peer's gauge snapshot.
type PeerStats struct {
	Addr      string `json:"addr"`
	Connected bool   `json:"connected"`
	// SessionsOpen counts sessions currently running on the peer;
	// SessionsCompleted and SessionsFailed are cumulative outcomes.
	SessionsOpen      int64 `json:"sessions_open"`
	SessionsCompleted int64 `json:"sessions_completed"`
	SessionsFailed    int64 `json:"sessions_failed"`
	FramesSent        int64 `json:"frames_sent"`
	// Writes counts the socket writes that carried FramesSent: frames
	// staged while a run sends are written together when it next waits.
	Writes         int64 `json:"writes"`
	FramesReceived int64 `json:"frames_received"`
	// FramesDropped counts outbound frames a LinkFaults policy swallowed.
	FramesDropped int64 `json:"frames_dropped,omitempty"`
	BytesSent     int64 `json:"bytes_sent"`
	BytesReceived int64 `json:"bytes_received"`
}

// FleetStats is a point-in-time snapshot of every peer's gauges.
type FleetStats struct {
	Peers []PeerStats `json:"peers"`
}

// Stats snapshots the fleet's per-peer gauges.
func (f *Fleet) Stats() FleetStats {
	st := FleetStats{Peers: make([]PeerStats, 0, len(f.peers))}
	for _, fc := range f.peers {
		fc.mu.Lock()
		connected := fc.conn != nil
		fc.mu.Unlock()
		st.Peers = append(st.Peers, PeerStats{
			Addr:              fc.addr,
			Connected:         connected,
			SessionsOpen:      fc.sessionsOpen.Load(),
			SessionsCompleted: fc.sessionsCompleted.Load(),
			SessionsFailed:    fc.sessionsFailed.Load(),
			FramesSent:        fc.framesOut.Load(),
			Writes:            fc.writes.Load(),
			FramesReceived:    fc.framesIn.Load(),
			FramesDropped:     fc.framesDropped.Load(),
			BytesSent:         fc.bytesOut.Load(),
			BytesReceived:     fc.bytesIn.Load(),
		})
	}
	return st
}

// sink routes one run's inbound frames: the run's shared inbox plus the
// run-local index of the connection the frames arrive on. done is closed
// when the run ends, so a reader never blocks forever delivering to an
// abandoned run.
type sink struct {
	ch   chan<- inFrame
	conn int
	done <-chan struct{}
}

// fleetConn is one peer's persistent connection state: the current
// connection (nil while the peer is down), the session→sink routing
// table its reader demuxes into, and the peer's gauges. gen increments
// on every successful dial so a stale teardown cannot kill a fresh
// connection.
type fleetConn struct {
	addr string
	idx  int
	opts Options

	// wmu serializes frame writes; it is separate from mu so a blocked
	// write never holds the routing lock.
	wmu sync.Mutex

	mu         sync.Mutex
	conn       net.Conn
	gen        int
	quit       chan struct{}
	readerDone chan struct{}
	sinks      map[uint32]*sink

	sessionsOpen      atomic.Int64
	sessionsCompleted atomic.Int64
	sessionsFailed    atomic.Int64
	framesOut         atomic.Int64
	writes            atomic.Int64
	framesIn          atomic.Int64
	framesDropped     atomic.Int64
	bytesOut          atomic.Int64
	bytesIn           atomic.Int64
}

// ensure returns with a live connection or a dial error. The dial runs
// outside the lock so gauge snapshots never wait on a slow connect; if
// two runs race, the loser's connection is discarded.
func (fc *fleetConn) ensure() error {
	fc.mu.Lock()
	if fc.conn != nil {
		fc.mu.Unlock()
		return nil
	}
	fc.mu.Unlock()
	conn, err := net.DialTimeout("tcp", fc.addr, fc.opts.DialTimeout)
	if err != nil {
		return err
	}
	fc.mu.Lock()
	if fc.conn != nil {
		fc.mu.Unlock()
		conn.Close()
		return nil
	}
	fc.conn = conn
	fc.gen++
	fc.quit = make(chan struct{})
	fc.readerDone = make(chan struct{})
	fc.sinks = make(map[uint32]*sink)
	gen, quit, done := fc.gen, fc.quit, fc.readerDone
	fc.mu.Unlock()
	go fc.reader(conn, gen, quit, done)
	return nil
}

// reader demuxes inbound frames to their runs' sinks by session id until
// the connection dies. Frames for unregistered sessions (late traffic
// after a run ended) are dropped.
func (fc *fleetConn) reader(conn net.Conn, gen int, quit, done chan struct{}) {
	defer close(done)
	br := bufio.NewReader(conn)
	for {
		id, typ, payload, err := readFrame(br)
		if err != nil {
			fc.teardown(gen, err)
			return
		}
		fc.framesIn.Add(1)
		fc.bytesIn.Add(int64(9 + len(payload)))
		fc.mu.Lock()
		s := fc.sinks[id]
		fc.mu.Unlock()
		if s == nil {
			continue
		}
		select {
		case s.ch <- inFrame{conn: s.conn, typ: typ, payload: payload}:
		case <-s.done:
		case <-quit:
			return
		}
	}
}

// teardown retires generation gen's connection: the socket closes, the
// reader quits, and every registered run learns its peer is gone via an
// error frame (delivered on its own goroutine, so a slow run never
// blocks the teardown).
func (fc *fleetConn) teardown(gen int, cause error) {
	fc.mu.Lock()
	if gen != fc.gen || fc.conn == nil {
		fc.mu.Unlock()
		return
	}
	conn, quit, sinks := fc.conn, fc.quit, fc.sinks
	fc.conn, fc.quit, fc.readerDone, fc.sinks = nil, nil, nil, nil
	fc.mu.Unlock()
	close(quit)
	conn.Close()
	err := fmt.Errorf("peer %s: %v", fc.addr, cause)
	for _, s := range sinks {
		go func(s *sink) {
			select {
			case s.ch <- inFrame{conn: s.conn, err: err}:
			case <-s.done:
			}
		}(s)
	}
}

// close tears down the current connection (if any) and joins its reader.
func (fc *fleetConn) close() {
	fc.mu.Lock()
	gen, done := fc.gen, fc.readerDone
	live := fc.conn != nil
	fc.mu.Unlock()
	if !live {
		return
	}
	fc.teardown(gen, errors.New("fleet closed"))
	if done != nil {
		<-done
	}
}

// register routes session id's inbound frames to s.
func (fc *fleetConn) register(id uint32, s *sink) error {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.conn == nil {
		return fmt.Errorf("peer %s: not connected", fc.addr)
	}
	fc.sinks[id] = s
	return nil
}

// unregister stops routing session id; its late frames are dropped.
func (fc *fleetConn) unregister(id uint32) {
	fc.mu.Lock()
	if fc.sinks != nil {
		delete(fc.sinks, id)
	}
	fc.mu.Unlock()
}

// write sends count encoded frames with one Write under the write lock
// and I/O deadline; a write failure retires the connection so the next
// run redials. It is the fleet's only path to the socket: runs stage
// their frames and call it when they are about to wait (Transport.flush)
// or to report a failure (Transport.End).
func (fc *fleetConn) write(frames []byte, count int) error {
	fc.mu.Lock()
	conn, gen := fc.conn, fc.gen
	fc.mu.Unlock()
	if conn == nil {
		return fmt.Errorf("peer %s: not connected", fc.addr)
	}
	// wmu serializes whole buffers, so concurrent runs' frames never
	// interleave on the shared socket.
	fc.wmu.Lock()
	conn.SetWriteDeadline(time.Now().Add(fc.opts.IOTimeout))
	_, err := conn.Write(frames)
	fc.wmu.Unlock()
	if err != nil {
		fc.teardown(gen, fmt.Errorf("write: %w", err))
		return fmt.Errorf("peer %s write: %v", fc.addr, err)
	}
	fc.writes.Add(1)
	fc.framesOut.Add(int64(count))
	fc.bytesOut.Add(int64(len(frames)))
	return nil
}
