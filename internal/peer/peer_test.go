package peer

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dip/internal/faults"
	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/wire"
)

// testParams is the fixture SpecBuilder's parameter blob: deterministic
// spec construction from (Spec, Bits), the same property dip.BuildSpec
// gives dippeer fleets.
type testParams struct {
	Spec string `json:"spec"`
	Bits int    `json:"bits"`
}

func marshalParams(t *testing.T, spec string, bits int) []byte {
	t.Helper()
	b, err := json.Marshal(testParams{Spec: spec, Bits: bits})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func challengeRound(bits int) network.Round {
	return network.Round{Kind: network.Arthur,
		Challenge: func(v int, rng *rand.Rand, _ *network.NodeView) wire.Message {
			var w wire.Writer
			for i := 0; i < bits; i++ {
				w.WriteBool(rng.Intn(2) == 1)
			}
			return w.Message()
		}}
}

// fromNeighbors reports whether copies holds one message per neighbor
// and copies[j] opens with the id byte of view.Neighbors[j]: the position
// contract of NodeView's neighbor rows, which a peer fills from the
// positional exchange batch.
func fromNeighbors(view *network.NodeView, copies []wire.Message) bool {
	if len(copies) != len(view.Neighbors) {
		return false
	}
	for j, u := range view.Neighbors {
		if c := copies[j]; c.Bits < 8 || c.Data[0] != byte(u) {
			return false
		}
	}
	return true
}

// idMessage is node v's id byte followed by bits random bits.
func idMessage(v int, rng *rand.Rand, bits int) wire.Message {
	var w wire.Writer
	w.WriteInt(v, 8)
	for i := 0; i < bits; i++ {
		w.WriteBool(rng.Intn(2) == 1)
	}
	return w.Message()
}

// starPath is a star joined to a path: centre 2 with leaves 0, 5, 7 and
// 9, and the path 9–1–8–3–6–4, so degrees are uneven and no neighbor list
// is a run of consecutive ids.
func starPath() *graph.Graph {
	g := graph.New(10)
	for _, e := range [][2]int{{2, 0}, {2, 5}, {2, 7}, {2, 9}, {9, 1}, {1, 8}, {8, 3}, {3, 6}, {6, 4}} {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func echoSpec(bits int) *network.Spec {
	return &network.Spec{
		Name:   "peer-echo",
		Rounds: []network.Round{challengeRound(bits), {Kind: network.Merlin}},
		Decide: func(v int, view *network.NodeView) bool {
			got, want := view.Responses[0], view.MyChallenges[0]
			if got.Bits != want.Bits {
				return false
			}
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					return false
				}
			}
			return len(view.NeighborResponses[0]) == len(view.Neighbors)
		},
	}
}

// mamSpec is shaped like sym-dmam: Merlin, Arthur, Merlin. The prover
// answers round 0 before any challenge exists, so the coordinator sends
// the hello, the round-0 responses and the round-0 exchange before it
// first waits on a peer. Round 0 hands every node its id, so every
// neighbor slot of round 0 must hold that neighbor's id.
func mamSpec(bits int) *network.Spec {
	return &network.Spec{
		Name:   "peer-mam",
		Rounds: []network.Round{{Kind: network.Merlin}, challengeRound(bits), {Kind: network.Merlin}},
		Decide: func(v int, view *network.NodeView) bool {
			id, echo, chal := view.Responses[0], view.Responses[1], view.MyChallenges[0]
			return id.Bits == 8 && id.Data[0] == byte(v) &&
				echo.Bits == chal.Bits && bytes.Equal(echo.Data, chal.Data) &&
				fromNeighbors(view, view.NeighborResponses[0]) &&
				len(view.NeighborResponses[1]) == len(view.Neighbors)
		},
	}
}

func digestSpec(bits int) *network.Spec {
	return &network.Spec{
		Name: "peer-digest",
		Rounds: []network.Round{
			challengeRound(bits),
			{Kind: network.Merlin, Digest: func(v int, rng *rand.Rand, m wire.Message) wire.Message {
				return idMessage(v, rng, 8)
			}},
			challengeRound(8),
			{Kind: network.Merlin},
		},
		Decide: func(v int, view *network.NodeView) bool {
			return len(view.Responses) == 2 && fromNeighbors(view, view.NeighborResponses[0])
		},
	}
}

func shareSpec(bits int) *network.Spec {
	return &network.Spec{
		Name:            "peer-share",
		ShareChallenges: true,
		Rounds: []network.Round{{Kind: network.Arthur,
			Challenge: func(v int, rng *rand.Rand, _ *network.NodeView) wire.Message {
				return idMessage(v, rng, bits)
			}}, {Kind: network.Merlin}},
		Decide: func(v int, view *network.NodeView) bool {
			return fromNeighbors(view, view.NeighborChallenges[0])
		},
	}
}

func inputSpec() *network.Spec {
	return &network.Spec{
		Name:   "peer-input",
		Rounds: nil, // zero rounds: the schedule is a bare decide step
		Decide: func(v int, view *network.NodeView) bool {
			return view.Input.Bits == 8 && len(view.Input.Data) == 1 &&
				int(view.Input.Data[0]) == v
		},
	}
}

func panicSpec() *network.Spec {
	return &network.Spec{
		Name: "peer-panic",
		Rounds: []network.Round{{Kind: network.Arthur,
			Challenge: func(v int, _ *rand.Rand, _ *network.NodeView) wire.Message {
				if v == 2 {
					panic("node 2 is broken")
				}
				return wire.Message{}
			}}},
		Decide: func(int, *network.NodeView) bool { return true },
	}
}

func buildTestSpec(params []byte) (*network.Spec, error) {
	var p testParams
	if err := json.Unmarshal(params, &p); err != nil {
		return nil, err
	}
	switch p.Spec {
	case "echo":
		return echoSpec(p.Bits), nil
	case "mam":
		return mamSpec(p.Bits), nil
	case "digest":
		return digestSpec(p.Bits), nil
	case "share":
		return shareSpec(p.Bits), nil
	case "input":
		return inputSpec(), nil
	case "panic":
		return panicSpec(), nil
	default:
		return nil, fmt.Errorf("unknown fixture spec %q", p.Spec)
	}
}

// echoProver answers every node with its own last challenge or, before
// any challenge exists, with its node id as one byte.
type echoProver struct{}

func (echoProver) Respond(_ int, view *network.ProverView) (*network.Response, error) {
	if len(view.Challenges) == 0 {
		resp := &network.Response{PerNode: make([]wire.Message, view.Graph.N())}
		for v := range resp.PerNode {
			resp.PerNode[v] = wire.Message{Data: []byte{byte(v)}, Bits: 8}
		}
		return resp, nil
	}
	last := view.Challenges[len(view.Challenges)-1]
	resp := &network.Response{PerNode: make([]wire.Message, len(last))}
	copy(resp.PerNode, last)
	return resp, nil
}

// startServers boots k peer servers on ephemeral ports and returns their
// addresses. Cleanup closes listeners and drains every session handler.
func startServers(t *testing.T, k int, tweak func(*Server)) []string {
	t.Helper()
	addrs := make([]string, k)
	for i := range addrs {
		addrs[i] = serve(t, listen(t), tweak)
	}
	return addrs
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// serve runs a fixture peer server on l until the test ends and returns
// its address.
func serve(t *testing.T, l net.Listener, tweak func(*Server)) string {
	t.Helper()
	srv := &Server{Build: buildTestSpec, Opts: Options{IOTimeout: 10 * time.Second}}
	if tweak != nil {
		tweak(srv)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		l.Close()
		srv.Close()
	})
	return l.Addr().String()
}

func startFleet(t *testing.T, k int) []string {
	return startServers(t, k, nil)
}

// settleGoroutines polls until the goroutine count returns to within slack
// of the baseline — the leak gate of the drain tests, applied to peer
// fleets.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+8 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d live, baseline %d",
				runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// oneRun builds a fleet over addrs and mints one run on it — the same
// NewFleet/NewRun lifecycle dip.Fleet uses. The caller closes the fleet,
// before any settleGoroutines gate.
func oneRun(t *testing.T, addrs []string, params []byte, opts Options) (*Fleet, *Transport) {
	t.Helper()
	fleet, err := NewFleet(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return fleet, fleet.NewRun(params)
}

// TestPeerMatchesSequential is the socket half of the equivalence
// contract: runs through real TCP peer fleets — including fleets hosting
// several nodes per process — must be byte-identical to the sequential
// engine, across challenge, digest, share-challenge, and zero-round
// input-only specs.
func TestPeerMatchesSequential(t *testing.T) {
	byteInputs := func(n int) []wire.Message {
		inputs := make([]wire.Message, n)
		for v := range inputs {
			inputs[v] = wire.Message{Data: []byte{byte(v)}, Bits: 8}
		}
		return inputs
	}
	corrupt := func(round, node int, m wire.Message) wire.Message {
		if node%3 != 1 || m.Bits == 0 {
			return m
		}
		out := wire.Message{Data: append([]byte(nil), m.Data...), Bits: m.Bits}
		out.Data[0] ^= 0x80
		return out
	}
	cases := []struct {
		name   string
		spec   string
		bits   int
		g      *graph.Graph
		inputs func(n int) []wire.Message
		peers  int
		opts   network.Options
		accept bool
	}{
		{"echo-1peer", "echo", 16, graph.Cycle(6), nil, 1, network.Options{Seed: 1}, true},
		{"echo-4peers", "echo", 16, graph.Cycle(9), nil, 4, network.Options{Seed: 2, RecordTranscript: true}, true},
		{"echo-n-peers", "echo", 24, graph.Complete(5), nil, 5, network.Options{Seed: 3}, true},
		{"merlin-first", "mam", 16, graph.Cycle(7), nil, 2, network.Options{Seed: 8, RecordTranscript: true}, true},
		{"merlin-first-star-path", "mam", 16, starPath(), nil, 3, network.Options{Seed: 9}, true},
		{"digest", "digest", 16, graph.Cycle(8), nil, 3, network.Options{Seed: 4, RecordTranscript: true}, true},
		{"digest-star-path", "digest", 16, starPath(), nil, 3, network.Options{Seed: 10, RecordTranscript: true}, true},
		{"share", "share", 8, graph.Path(7), nil, 2, network.Options{Seed: 5}, true},
		{"share-star-path", "share", 8, starPath(), nil, 4, network.Options{Seed: 11}, true},
		{"inputs", "input", 0, graph.Star(6), byteInputs, 2, network.Options{Seed: 6}, true},
		{"corrupted", "echo", 16, graph.Cycle(6), nil, 2,
			network.Options{Seed: 7, Corrupt: corrupt, RecordTranscript: true}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := buildTestSpec(marshalParams(t, tc.spec, tc.bits))
			if err != nil {
				t.Fatal(err)
			}
			var inputs []wire.Message
			if tc.inputs != nil {
				inputs = tc.inputs(tc.g.N())
			}
			var prover network.Prover
			if tc.spec != "input" {
				prover = echoProver{}
			}
			seqRes, err := network.Run(spec, tc.g, inputs, prover, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if seqRes.Accepted != tc.accept {
				t.Fatalf("accepted %v, want %v: %v", seqRes.Accepted, tc.accept, seqRes.Decisions)
			}

			fleet, coord := oneRun(t, startFleet(t, tc.peers), marshalParams(t, tc.spec, tc.bits), Options{})
			defer fleet.Close()
			netOpts := tc.opts
			netOpts.Transport = coord
			netRes, err := network.Run(spec, tc.g, inputs, prover, netOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seqRes, netRes) {
				t.Fatalf("results differ:\nsequential: %+v\nnetworked:  %+v", seqRes, netRes)
			}
		})
	}
}

// TestPeerFleetReuse runs several proofs through one persistent Fleet:
// connections are dialed once and every run is a fresh session
// multiplexed over them, so the standing fleet serves a stream of runs
// without redialing.
func TestPeerFleetReuse(t *testing.T) {
	addrs := startFleet(t, 2)
	fleet, err := DialFleet(addrs, Options{IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	g := graph.Cycle(6)
	spec := echoSpec(16)
	for seed := int64(1); seed <= 3; seed++ {
		seqRes, err := network.Run(spec, g, nil, echoProver{},
			network.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		netRes, err := network.Run(spec, g, nil, echoProver{},
			network.Options{Seed: seed, Transport: fleet.NewRun(marshalParams(t, "echo", 16))})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seqRes, netRes) {
			t.Fatalf("seed %d: results differ", seed)
		}
	}
	st := fleet.Stats()
	var completed, open int64
	for _, ps := range st.Peers {
		completed += ps.SessionsCompleted
		open += ps.SessionsOpen
		if !ps.Connected {
			t.Fatalf("peer %s disconnected after reuse", ps.Addr)
		}
		if ps.FramesSent == 0 || ps.FramesReceived == 0 || ps.BytesSent == 0 || ps.BytesReceived == 0 {
			t.Fatalf("peer %s gauges empty: %+v", ps.Addr, ps)
		}
	}
	if completed != 6 || open != 0 {
		t.Fatalf("sessions completed=%d open=%d, want 6 completed (3 runs × 2 peers), 0 open", completed, open)
	}
	// One batch frame per peer per schedule step: hello, helloOK, and the
	// challenge, response, exchange and decision batches — 6 frames per
	// peer per run, whatever the number of hosted nodes.
	var frames int64
	for _, ps := range st.Peers {
		frames += ps.FramesSent + ps.FramesReceived
	}
	if frames != 3*2*6 {
		t.Fatalf("%d frames for 3 runs on 2 peers, want %d (6 per peer per run)", frames, 3*2*6)
	}
}

// TestSessionStorm is the multiplexing gate: many concurrent sessions —
// mixed protocols, one poisoned — against a single peer process over one
// shared fleet connection. Surviving sessions must stay byte-identical
// to the in-process engine, the poisoned one must fail with its own
// attributed error, and nothing may leak.
func TestSessionStorm(t *testing.T) {
	baseline := runtime.NumGoroutine()
	addrs := startFleet(t, 1)
	fleet, err := DialFleet(addrs, Options{IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	type job struct {
		spec string
		bits int
		g    *graph.Graph
		seed int64
	}
	jobs := make([]job, 0, 12)
	for i := 0; i < 12; i++ {
		switch i % 4 {
		case 0:
			jobs = append(jobs, job{"echo", 16, graph.Cycle(6), int64(100 + i)})
		case 1:
			jobs = append(jobs, job{"digest", 8, graph.Cycle(5), int64(100 + i)})
		case 2:
			jobs = append(jobs, job{"share", 8, graph.Path(5), int64(100 + i)})
		case 3:
			jobs = append(jobs, job{"echo", 24, graph.Complete(4), int64(100 + i)})
		}
	}
	const poisoned = 5 // jobs[5] runs the panic spec: its session must fail alone
	jobs[poisoned] = job{"panic", 0, graph.Cycle(5), 999}

	results := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, jb := range jobs {
		wg.Add(1)
		go func(i int, jb job) {
			defer wg.Done()
			spec, err := buildTestSpec(marshalParams(t, jb.spec, jb.bits))
			if err != nil {
				results[i] = err
				return
			}
			netRes, err := network.Run(spec, jb.g, nil, echoProver{},
				network.Options{Seed: jb.seed, Transport: fleet.NewRun(marshalParams(t, jb.spec, jb.bits))})
			if err != nil {
				results[i] = err
				return
			}
			seqRes, err := network.Run(spec, jb.g, nil, echoProver{},
				network.Options{Seed: jb.seed})
			if err != nil {
				results[i] = err
				return
			}
			if !reflect.DeepEqual(seqRes, netRes) {
				results[i] = fmt.Errorf("fleet run diverged from sequential")
			}
		}(i, jb)
	}
	wg.Wait()

	for i, err := range results {
		if i == poisoned {
			var rerr *network.RunError
			if !errors.As(err, &rerr) || rerr.Phase != network.PhaseChallenge || rerr.Node != 2 {
				t.Fatalf("poisoned session: err = %v, want challenge/node-2 RunError", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("session %d (%s): %v", i, jobs[i].spec, err)
		}
	}

	st := fleet.Stats()
	if len(st.Peers) != 1 {
		t.Fatalf("stats cover %d peers, want 1", len(st.Peers))
	}
	ps := st.Peers[0]
	if ps.SessionsCompleted != int64(len(jobs)-1) || ps.SessionsFailed != 1 || ps.SessionsOpen != 0 {
		t.Fatalf("gauges completed=%d failed=%d open=%d, want %d/1/0",
			ps.SessionsCompleted, ps.SessionsFailed, ps.SessionsOpen, len(jobs)-1)
	}
	fleet.Close()
	settleGoroutines(t, baseline)
}

// TestFailSoftIsolation pins the isolation hook: the FailSoft-th session
// fails with a structured error while the sessions before and after it —
// on the same process, over the same connection — complete normally.
func TestFailSoftIsolation(t *testing.T) {
	addrs := startServers(t, 1, func(s *Server) { s.FailSoft = 2 })
	fleet, err := DialFleet(addrs, Options{IOTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	g := graph.Cycle(6)
	spec := echoSpec(8)
	for run := 1; run <= 3; run++ {
		_, err := network.Run(spec, g, nil, echoProver{},
			network.Options{Seed: int64(run), Transport: fleet.NewRun(marshalParams(t, "echo", 8))})
		if run == 2 {
			var rerr *network.RunError
			if !errors.As(err, &rerr) || rerr.Phase != network.PhaseTransport ||
				!strings.Contains(rerr.Err.Error(), "FailSoft") {
				t.Fatalf("run 2: err = %v, want FailSoft transport RunError", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("run %d should have survived FailSoft on run 2: %v", run, err)
		}
	}
}

// TestV1ClientRejected pins the downgrade path: a protocol-v1 client's
// hello is answered with a structured error in v1 framing that names the
// required protocol version.
func TestV1ClientRejected(t *testing.T) {
	addrs := startFleet(t, 1)
	conn, err := net.DialTimeout("tcp", addrs[0], 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A v1 hello: u32 len | type | JSON, no session id.
	hello := []byte(`{"version":1,"seed":1,"n":2,"nodes":[{"v":0,"neighbors":[1]}]}`)
	frame := make([]byte, 5+len(hello))
	binary.BigEndian.PutUint32(frame, uint32(1+len(hello)))
	frame[4] = frameHello
	copy(frame[5:], hello)
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	// The answer must be a v1-framed error a v1 reader can decode.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatal(err)
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(br, body); err != nil {
		t.Fatal(err)
	}
	if body[0] != frameError {
		t.Fatalf("reply type 0x%02x, want error", body[0])
	}
	var ef errorFrame
	if err := json.Unmarshal(body[1:], &ef); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ef.Message, fmt.Sprintf("protocol %d", Version)) {
		t.Fatalf("rejection %q does not name the required version", ef.Message)
	}
}

// helloReply sends payload as the hello of session 9 over a raw
// connection and returns the error frame the peer answers it with.
func helloReply(t *testing.T, addr string, payload []byte) errorFrame {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, 9, frameHello, payload); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	sess, typ, reply, err := readFrame(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if sess != 9 || typ != frameError {
		t.Fatalf("reply session %d type 0x%02x, want session 9 error", sess, typ)
	}
	var ef errorFrame
	if err := json.Unmarshal(reply, &ef); err != nil {
		t.Fatal(err)
	}
	return ef
}

// TestWrongProtoHelloRejected covers the in-framing version gate: the
// JSON hello of protocols 1 to 3 inside the session-id framing, and a
// binary hello naming a later protocol, are refused with an error naming
// the required version.
func TestWrongProtoHelloRejected(t *testing.T) {
	addrs := startFleet(t, 1)
	jsonHello := func(proto int) []byte {
		return []byte(fmt.Sprintf(`{"proto":%d,"seed":1,"n":2,"nodes":[{"v":0,"neighbors":[1]}]}`, proto))
	}
	next := encodeHello(t, &hello{seed: 1, n: 2, nodes: []helloNode{{v: 0, nbrs: []int{1}}}})
	binary.BigEndian.PutUint32(next, 5)
	cases := []struct {
		proto   int
		payload []byte
	}{{1, jsonHello(1)}, {2, jsonHello(2)}, {3, jsonHello(3)}, {5, next}}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("proto-%d", tc.proto), func(t *testing.T) {
			ef := helloReply(t, addrs[0], tc.payload)
			if ef.Phase != string(network.PhaseTransport) ||
				!strings.Contains(ef.Message, "requires wire protocol 4") {
				t.Fatalf("rejection %+v does not name protocol 4", ef)
			}
		})
	}
}

// TestBadNeighborListsRejected pins the peer's NodeView gate on hello
// neighbor lists: a list with an id out of range, a duplicate, an
// unsorted pair, or the node itself is refused with a structured
// PhaseTransport error on the hello's session, before any node is built.
func TestBadNeighborListsRejected(t *testing.T) {
	addrs := startFleet(t, 1)
	cases := []struct {
		name string
		nbrs []int
		frag string
	}{
		{"out-of-range", []int{1, 4}, "out of range"},
		{"duplicate", []int{1, 1}, "not strictly ascending"},
		{"unsorted", []int{3, 1}, "not strictly ascending"},
		{"self-loop", []int{0, 1}, "itself"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := &hello{seed: 1, n: 4, params: marshalParams(t, "echo", 8),
				nodes: []helloNode{{v: 0, nbrs: tc.nbrs}}}
			ef := helloReply(t, addrs[0], encodeHello(t, h))
			if ef.Phase != string(network.PhaseTransport) || !strings.Contains(ef.Message, tc.frag) {
				t.Fatalf("rejection %+v does not mention %q", ef, tc.frag)
			}
		})
	}
}

// TestRemoteCallbackError pins cross-process failure attribution: a node
// callback panicking inside a peer process surfaces on the coordinator as
// the same phase/round/node RunError the sequential executor would raise.
func TestRemoteCallbackError(t *testing.T) {
	fleet, coord := oneRun(t, startFleet(t, 2), marshalParams(t, "panic", 0), Options{})
	defer fleet.Close()
	_, err := network.Run(panicSpec(), graph.Cycle(5), nil, echoProver{},
		network.Options{Seed: 1, Transport: coord})
	var rerr *network.RunError
	if !errors.As(err, &rerr) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if rerr.Phase != network.PhaseChallenge || rerr.Node != 2 || rerr.Round != 0 {
		t.Fatalf("attribution = %s/%d/%d (%v), want challenge/0/2", rerr.Phase, rerr.Round, rerr.Node, rerr.Err)
	}
}

// rawPeer is a hand-rolled peer: it reads a session's hello, lets play
// write whatever frames the case needs on the session, and then goes
// silent until its connection is closed — a peer that lies or hangs
// mid-step.
func rawPeer(t *testing.T, play func(w io.Writer, sess uint32, h *hello) error) string {
	t.Helper()
	l := listen(t)
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		sess, _, payload, err := readFrame(bufio.NewReader(conn))
		if err != nil {
			return
		}
		h, err := decodeHello(payload)
		if err != nil || play(conn, sess, h) != nil {
			return
		}
		// Stall: swallow coordinator traffic without ever answering.
		io.Copy(io.Discard, conn)
	}()
	return l.Addr().String()
}

// fakePeer is a rawPeer that acknowledges the hello before playing.
func fakePeer(t *testing.T, play func(w io.Writer, sess uint32, h *hello) error) string {
	return rawPeer(t, func(w io.Writer, sess uint32, h *hello) error {
		if err := writeFrame(w, sess, frameHelloOK, appendHelloOK(nil, len(h.nodes))); err != nil {
			return err
		}
		return play(w, sess, h)
	})
}

// stallPeer sends the first `challenges` entries of its challenge batch as
// a split frame, then stalls mid-step.
func stallPeer(t *testing.T, challenges int) string {
	return fakePeer(t, func(w io.Writer, sess uint32, _ *hello) error {
		p := appendBatchHeader(nil, 0, flagMore, challenges)
		for i := 0; i < challenges; i++ {
			p, _ = appendMessage(p, wire.Message{})
		}
		return writeFrame(w, sess, frameChallenge, p)
	})
}

// TestBatchCountMismatch pins the positional codec's count gate on the
// coordinator: a peer whose batch carries more or fewer entries than it
// hosts fails the run at once with a PhaseTransport error — never a
// timeout, and never a decision read from the wrong slot.
func TestBatchCountMismatch(t *testing.T) {
	entries := func(round int, flags byte, count, n int) []byte {
		p := appendBatchHeader(nil, round, flags, count)
		for i := 0; i < n; i++ {
			p, _ = appendMessage(p, wire.Message{})
		}
		return p
	}
	decisions := func(count, n int) []byte {
		p := appendBatchHeader(nil, -1, 0, count)
		for i := 0; i < n; i++ {
			p = append(p, 1)
		}
		return p
	}
	// One peer hosts all four nodes of a 4-cycle.
	cases := []struct {
		name    string
		spec    string
		typ     byte
		payload []byte
	}{
		{"challenge-over", "echo", frameChallenge, entries(0, 0, 5, 5)},
		{"challenge-under", "echo", frameChallenge, entries(0, 0, 3, 3)},
		{"challenge-split-overrun", "echo", frameChallenge, entries(0, flagMore, 4, 4)},
		{"decision-over", "input", frameDecision, decisions(5, 5)},
		{"decision-under", "input", frameDecision, decisions(3, 3)},
		{"decision-trailing", "input", frameDecision, decisions(4, 5)},
	}
	g := graph.Cycle(4)
	inputs := make([]wire.Message, 4)
	for v := range inputs {
		inputs[v] = wire.Message{Data: []byte{byte(v)}, Bits: 8}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := fakePeer(t, func(w io.Writer, sess uint32, _ *hello) error {
				return writeFrame(w, sess, tc.typ, tc.payload)
			})
			fleet, coord := oneRun(t, []string{addr}, marshalParams(t, tc.spec, 8), Options{IOTimeout: 10 * time.Second})
			defer fleet.Close()
			spec, err := buildTestSpec(marshalParams(t, tc.spec, 8))
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			res, err := network.Run(spec, g, inputs, echoProver{}, network.Options{Seed: 1, Transport: coord})
			var rerr *network.RunError
			if !errors.As(err, &rerr) || rerr.Phase != network.PhaseTransport || res != nil {
				t.Fatalf("res = %v, err = %v, want a PhaseTransport RunError", res, err)
			}
			if elapsed := time.Since(start); elapsed > 3*time.Second {
				t.Fatalf("mismatch detected after %v, want at once", elapsed)
			}
		})
	}
}

// TestBatchSplitMatchesSequential forces every batch past the frame cap —
// batchLimit shrunk so each entry travels in a frame of its own — and
// requires the reassembled runs to stay byte-identical to the sequential
// engine, with exactly one frame per entry on the wire.
func TestBatchSplitMatchesSequential(t *testing.T) {
	setBatchLimit(t, 1)
	cases := []struct {
		name  string
		spec  string
		bits  int
		g     *graph.Graph
		peers int
		// entries counts one run's data entries: one per node per
		// challenge, response, forward and decision step, one per directed
		// edge per exchange step.
		entries func(n, arcs int) int
	}{
		{"echo", "echo", 24, graph.Complete(5), 2, func(n, arcs int) int { return 3*n + arcs }},
		{"digest", "digest", 16, graph.Cycle(8), 3, func(n, arcs int) int { return 6*n + 2*arcs }},
		{"share", "share", 8, graph.Path(7), 2, func(n, arcs int) int { return 3*n + 2*arcs }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			params := marshalParams(t, tc.spec, tc.bits)
			spec, err := buildTestSpec(params)
			if err != nil {
				t.Fatal(err)
			}
			opts := network.Options{Seed: 11, RecordTranscript: true}
			seqRes, err := network.Run(spec, tc.g, nil, echoProver{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			fleet, err := DialFleet(startFleet(t, tc.peers), Options{IOTimeout: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer fleet.Close()
			opts.Transport = fleet.NewRun(params)
			netRes, err := network.Run(spec, tc.g, nil, echoProver{}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seqRes, netRes) {
				t.Fatal("split-batch run diverged from sequential")
			}
			var frames int64
			for _, ps := range fleet.Stats().Peers {
				frames += ps.FramesSent + ps.FramesReceived
			}
			// Control frames: hello and helloOK per peer.
			if want := int64(2*tc.peers + tc.entries(tc.g.N(), 2*tc.g.NumEdges())); frames != want {
				t.Fatalf("%d frames, want %d (one per entry plus control)", frames, want)
			}
		})
	}
}

// countingListener counts the Write calls on every connection it
// accepts.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// sendStretches counts the maximal stretches of consecutive schedule
// steps in one direction: coordinator→peer (the hello opens the first)
// and peer→coordinator. A digest exchange step is both: the peers'
// forward batch, then the coordinator's exchange batch.
func sendStretches(t *testing.T, spec *network.Spec) (coord, peer int) {
	t.Helper()
	steps, err := network.Schedule(spec)
	if err != nil {
		t.Fatal(err)
	}
	toPeer := []bool{true} // the hello
	for _, st := range steps {
		switch st.Kind {
		case network.StepChallenge, network.StepDecide:
			toPeer = append(toPeer, false)
		case network.StepRespond:
			toPeer = append(toPeer, true)
		case network.StepExchange:
			if !st.Chal && spec.Rounds[st.Round].Digest != nil {
				toPeer = append(toPeer, false)
			}
			toPeer = append(toPeer, true)
		}
	}
	for i, d := range toPeer {
		switch {
		case i > 0 && toPeer[i-1] == d:
		case d:
			coord++
		default:
			peer++
		}
	}
	return coord, peer
}

// TestWritesPerRun pins write coalescing on both sides of the wire: in
// every run each side writes once per peer for each maximal stretch of
// consecutive schedule steps in which it sends — the hello travels in the
// coordinator's first stretch, the helloOK in the peer's first — and a
// completed run writes nothing more. The Merlin-first case sends the
// hello, the round-0 responses and the round-0 exchange in one write.
// Coordinator writes come from the fleet's writes gauge, peer writes from
// a listener counting the Write calls of the connections it accepts.
func TestWritesPerRun(t *testing.T) {
	cases := []struct {
		spec        string
		coord, peer int // send stretches per run, from the schedule
	}{
		{"mam", 2, 2},
		{"echo", 2, 2},
		{"digest", 4, 4},
		{"share", 2, 2},
	}
	const peers, runs = 2, 3
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			params := marshalParams(t, tc.spec, 8)
			spec, err := buildTestSpec(params)
			if err != nil {
				t.Fatal(err)
			}
			if coord, peer := sendStretches(t, spec); coord != tc.coord || peer != tc.peer {
				t.Fatalf("schedule has %d/%d send stretches, table says %d/%d", coord, peer, tc.coord, tc.peer)
			}
			var peerWrites atomic.Int64
			addrs := make([]string, peers)
			for i := range addrs {
				addrs[i] = serve(t, countingListener{listen(t), &peerWrites}, nil)
			}
			fleet, err := DialFleet(addrs, Options{IOTimeout: 10 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer fleet.Close()
			g := graph.Cycle(6)
			for seed := int64(1); seed <= runs; seed++ {
				seqRes, err := network.Run(spec, g, nil, echoProver{}, network.Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				netRes, err := network.Run(spec, g, nil, echoProver{},
					network.Options{Seed: seed, Transport: fleet.NewRun(params)})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(seqRes, netRes) {
					t.Fatalf("seed %d: results differ", seed)
				}
				if !seqRes.Accepted {
					t.Fatalf("seed %d: the honest prover was rejected: %v", seed, seqRes.Decisions)
				}
			}
			var coordWrites int64
			for _, ps := range fleet.Stats().Peers {
				coordWrites += ps.Writes
			}
			if want := int64(runs * peers * tc.coord); coordWrites != want {
				t.Fatalf("coordinator wrote %d times, want %d (%d per peer per run)", coordWrites, want, tc.coord)
			}
			if got, want := peerWrites.Load(), int64(runs*peers*tc.peer); got != want {
				t.Fatalf("peers wrote %d times, want %d (%d per peer per run)", got, want, tc.peer)
			}
		})
	}
}

// TestSpecRejectedFailsFast pins the failure path of a hello nobody waits
// for: a peer whose SpecBuilder refuses the params answers with its own
// PhaseSetup error, and the run fails with it at once — well under the
// I/O timeout — whether the coordinator has already sent round-0 batches
// behind the hello (Merlin-first) or waits right after it (echo), and
// without leaking goroutines.
func TestSpecRejectedFailsFast(t *testing.T) {
	for _, name := range []string{"mam", "echo"} {
		t.Run(name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			addrs := startServers(t, 2, func(s *Server) {
				s.Build = func([]byte) (*network.Spec, error) { return nil, errors.New("params refused") }
			})
			params := marshalParams(t, name, 8)
			spec, err := buildTestSpec(params)
			if err != nil {
				t.Fatal(err)
			}
			fleet, coord := oneRun(t, addrs, params, Options{IOTimeout: 10 * time.Second})
			start := time.Now()
			_, err = network.Run(spec, graph.Cycle(6), nil, echoProver{}, network.Options{Seed: 1, Transport: coord})
			var rerr *network.RunError
			if !errors.As(err, &rerr) || rerr.Phase != network.PhaseSetup || !strings.Contains(rerr.Err.Error(), "params refused") {
				t.Fatalf("err = %v, want the peer's PhaseSetup RunError", err)
			}
			if elapsed := time.Since(start); elapsed > 3*time.Second {
				t.Fatalf("refusal surfaced after %v, want at once", elapsed)
			}
			fleet.Close()
			settleGoroutines(t, baseline)
		})
	}
}

// TestHelloOKOrder pins where a helloOK may stand now that Begin does not
// wait for it: first among the peer's frames of the session, once, with
// this protocol and the hosted-node count. A batch ahead of it, a second
// helloOK, or a wrong proto or count fails the run at once with
// PhaseTransport.
func TestHelloOKOrder(t *testing.T) {
	challenges := func(h *hello) []byte {
		p := appendBatchHeader(nil, 0, 0, len(h.nodes))
		for range h.nodes {
			p, _ = appendMessage(p, wire.Message{})
		}
		return p
	}
	helloOK := func(proto, nodes int) []byte {
		return binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, uint32(proto)), uint32(nodes))
	}
	type frame struct {
		typ     byte
		payload []byte
	}
	cases := []struct {
		name   string
		frames func(h *hello) []frame
	}{
		{"batch-first", func(h *hello) []frame {
			return []frame{{frameChallenge, challenges(h)}, {frameHelloOK, helloOK(Version, len(h.nodes))}}
		}},
		{"two-hellooks", func(h *hello) []frame {
			ok := helloOK(Version, len(h.nodes))
			return []frame{{frameHelloOK, ok}, {frameHelloOK, ok}}
		}},
		{"wrong-proto", func(h *hello) []frame {
			return []frame{{frameHelloOK, helloOK(Version+1, len(h.nodes))}}
		}},
		{"wrong-count", func(h *hello) []frame {
			return []frame{{frameHelloOK, helloOK(Version, len(h.nodes)+1)}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := rawPeer(t, func(w io.Writer, sess uint32, h *hello) error {
				for _, f := range tc.frames(h) {
					if err := writeFrame(w, sess, f.typ, f.payload); err != nil {
						return err
					}
				}
				return nil
			})
			fleet, coord := oneRun(t, []string{addr}, marshalParams(t, "echo", 8), Options{IOTimeout: 10 * time.Second})
			defer fleet.Close()
			start := time.Now()
			_, err := network.Run(echoSpec(8), graph.Cycle(4), nil, echoProver{}, network.Options{Seed: 1, Transport: coord})
			var rerr *network.RunError
			if !errors.As(err, &rerr) || rerr.Phase != network.PhaseTransport {
				t.Fatalf("err = %v, want a PhaseTransport RunError", err)
			}
			if elapsed := time.Since(start); elapsed > 3*time.Second {
				t.Fatalf("violation detected after %v, want at once", elapsed)
			}
		})
	}
}

// TestStalledPeerTimesOut is the cancellation satellite: a peer that
// stalls mid-step (handshake done, the first frame of a split challenge
// batch delivered, then silence) must surface as a structured timeout RunError on the
// coordinator — PhaseTransport via the transport's own I/O deadline, or
// PhaseCanceled via a caller deadline — and must not leak goroutines.
func TestStalledPeerTimesOut(t *testing.T) {
	g := graph.Cycle(4)
	spec := echoSpec(8)

	t.Run("io-timeout", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		fleet, coord := oneRun(t, []string{stallPeer(t, 1)}, marshalParams(t, "echo", 8),
			Options{IOTimeout: 150 * time.Millisecond})
		start := time.Now()
		_, err := network.Run(spec, g, nil, echoProver{},
			network.Options{Seed: 1, Transport: coord})
		var rerr *network.RunError
		if !errors.As(err, &rerr) || rerr.Phase != network.PhaseTransport {
			t.Fatalf("err = %v, want PhaseTransport RunError", err)
		}
		if elapsed := time.Since(start); elapsed > 3*time.Second {
			t.Fatalf("stall detection took %v", elapsed)
		}
		fleet.Close()
		settleGoroutines(t, baseline)
	})

	t.Run("context-deadline", func(t *testing.T) {
		baseline := runtime.NumGoroutine()
		fleet, coord := oneRun(t, []string{stallPeer(t, 1)}, marshalParams(t, "echo", 8),
			Options{IOTimeout: 30 * time.Second})
		ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
		defer cancel()
		_, err := network.RunContext(ctx, spec, g, nil, echoProver{},
			network.Options{Seed: 1, Transport: coord})
		var rerr *network.RunError
		if !errors.As(err, &rerr) || rerr.Phase != network.PhaseCanceled {
			t.Fatalf("err = %v, want PhaseCanceled RunError", err)
		}
		fleet.Close()
		settleGoroutines(t, baseline)
	})
}

// TestDeadPeerFailsRun covers the harsher failure: the fleet address
// refuses connections entirely, and Begin reports it as PhaseTransport.
func TestDeadPeerFailsRun(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // nothing listens here anymore
	fleet, coord := oneRun(t, []string{addr}, marshalParams(t, "echo", 8),
		Options{DialTimeout: 500 * time.Millisecond})
	defer fleet.Close()
	_, err = network.Run(echoSpec(8), graph.Cycle(4), nil, echoProver{},
		network.Options{Seed: 1, Transport: coord})
	var rerr *network.RunError
	if !errors.As(err, &rerr) || rerr.Phase != network.PhaseTransport {
		t.Fatalf("err = %v, want PhaseTransport RunError", err)
	}
}

// TestLinkFaultDelaySlowLink exercises the socket-level slow-link class:
// every frame delayed, the run completes bit-identically, just later.
func TestLinkFaultDelaySlowLink(t *testing.T) {
	g := graph.Path(4)
	spec := echoSpec(8)
	seqRes, err := network.Run(spec, g, nil, echoProver{},
		network.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fleet, coord := oneRun(t, startFleet(t, 2), marshalParams(t, "echo", 8),
		Options{LinkFaults: &faults.LinkPolicy{Seed: 1, Delay: time.Millisecond, DelayProb: 1}})
	defer fleet.Close()
	netRes, err := network.Run(spec, g, nil, echoProver{},
		network.Options{Seed: 1, Transport: coord})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqRes, netRes) {
		t.Fatal("slow-link run diverged from sequential")
	}
}

// TestLinkFaultDelayCancel is the cancel-blocking regression gate: a run
// under a large injected link delay must return promptly when its
// context is canceled — the delay timer selects on the run's cancel
// channel instead of sleeping through it — and must not leak goroutines.
func TestLinkFaultDelayCancel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	fleet, coord := oneRun(t, startFleet(t, 2), marshalParams(t, "echo", 8),
		Options{LinkFaults: &faults.LinkPolicy{Seed: 1, Delay: time.Minute, DelayProb: 1}})
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := network.RunContext(ctx, echoSpec(8), graph.Cycle(4), nil, echoProver{},
		network.Options{Seed: 1, Transport: coord})
	elapsed := time.Since(start)
	var rerr *network.RunError
	if !errors.As(err, &rerr) || rerr.Phase != network.PhaseCanceled {
		t.Fatalf("err = %v, want PhaseCanceled RunError", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("canceled run blocked %v inside the injected delay", elapsed)
	}
	fleet.Close()
	settleGoroutines(t, baseline)
}

// TestLinkFaultDropFailsRun covers the partition class: a link that
// swallows every coordinator→peer message stalls the session until a
// deadline fires, and the run fails with a structured transport-or-
// cancel error — a partition can kill a run but never flip a decision.
func TestLinkFaultDropFailsRun(t *testing.T) {
	addrs := startFleet(t, 2)
	fleet, err := DialFleet(addrs, Options{
		IOTimeout:  300 * time.Millisecond,
		LinkFaults: &faults.LinkPolicy{Seed: 1, DropProb: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	_, err = network.Run(echoSpec(8), graph.Cycle(4), nil, echoProver{},
		network.Options{Seed: 1, Transport: fleet.NewRun(marshalParams(t, "echo", 8))})
	var rerr *network.RunError
	if !errors.As(err, &rerr) || rerr.Phase != network.PhaseTransport {
		t.Fatalf("err = %v, want PhaseTransport RunError", err)
	}
	st := fleet.Stats()
	var dropped int64
	for _, ps := range st.Peers {
		dropped += ps.FramesDropped
	}
	if dropped == 0 {
		t.Fatal("drop policy fired no drops")
	}
}

// TestLinkPolicyDeterminism pins the schedule's replayability: the same
// seed makes identical per-frame decisions, a different seed diverges
// somewhere.
func TestLinkPolicyDeterminism(t *testing.T) {
	p := faults.LinkPolicy{Seed: 42, Delay: time.Millisecond, DelayProb: 0.5, DropProb: 0.2}
	q := faults.LinkPolicy{Seed: 43, Delay: time.Millisecond, DelayProb: 0.5, DropProb: 0.2}
	diverged := false
	for peer := 0; peer < 3; peer++ {
		for seq := 0; seq < 200; seq++ {
			d1, x1 := p.Decide(peer, seq)
			d2, x2 := p.Decide(peer, seq)
			if d1 != d2 || x1 != x2 {
				t.Fatalf("same-seed decision diverged at peer %d seq %d", peer, seq)
			}
			if q1, y1 := q.Decide(peer, seq); q1 != d1 || y1 != x1 {
				diverged = true
			}
		}
	}
	if !diverged {
		t.Fatal("600 decisions identical across different seeds")
	}
}

// TestRedialAfterPeerRestart pins the standing-fleet recovery contract: a
// run in flight when its peer's connection dies fails with a structured
// transport error, and the next run over the same Fleet redials and
// completes.
func TestRedialAfterPeerRestart(t *testing.T) {
	// Two servers; we kill the second one's listener and connection, then
	// bring a new server up on a fresh port is not possible at the same
	// addr reliably, so instead: kill conn only — the server keeps
	// listening, the fleet must redial the same peer.
	addrs := startFleet(t, 2)
	fleet, err := DialFleet(addrs, Options{IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	g := graph.Cycle(6)
	spec := echoSpec(8)
	run := func(seed int64) error {
		_, err := network.Run(spec, g, nil, echoProver{},
			network.Options{Seed: seed, Transport: fleet.NewRun(marshalParams(t, "echo", 8))})
		return err
	}
	if err := run(1); err != nil {
		t.Fatal(err)
	}
	// Sever the second peer's connection out from under the fleet.
	fleet.peers[1].mu.Lock()
	conn := fleet.peers[1].conn
	fleet.peers[1].mu.Unlock()
	if conn == nil {
		t.Fatal("peer 1 has no live connection after a run")
	}
	conn.Close()
	// The fleet must recover: ensure() redials on the next run's Begin.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := run(2); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet did not recover after losing a connection")
		}
		time.Sleep(50 * time.Millisecond)
	}
}
