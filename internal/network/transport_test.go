package network

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"dip/internal/graph"
	"dip/internal/wire"
)

// loopTransport is an in-memory Transport: one Host plays every node in
// this process — the Host internal/peer sessions play their nodes through
// — with zero sockets. It hands collect-phase results to the walk in
// *descending* node order to prove the walk is arrival-order independent,
// like real peers answering at their own pace.
type loopTransport struct {
	host *Host
	n    int
	// cur counts the Recv* calls; the first call of each collect phase
	// (challenges, forwards, decisions) plays the step into row or decs.
	cur  int
	row  []wire.Message
	decs []bool
	// in accumulates a send step's deliveries (a round's responses, or an
	// exchange's positional copies) until the step is complete.
	in      []wire.Message
	edges   int
	ended   bool
	failure *RunError
}

func (lt *loopTransport) Begin(run *TransportRun) *RunError {
	// Copy the neighbor lists: TransportRun.Neighbors aliases pooled
	// engine state that a transport must not retain.
	nodes := make([]int, run.N)
	nbrs := make([][]int, run.N)
	for v := range nodes {
		nodes[v] = v
		nbrs[v] = slices.Clone(run.Neighbors[v])
		lt.edges += len(nbrs[v])
	}
	h, err := AcquireHost(run.Spec, run.N, run.Seed, nodes, nbrs, run.Inputs)
	if err != nil {
		return &RunError{Protocol: run.Spec.Name, Phase: PhaseTransport, Round: -1, Node: -1, Err: err}
	}
	lt.host, lt.n = h, run.N
	lt.row = make([]wire.Message, run.N)
	lt.decs = make([]bool, run.N)
	return nil
}

// next returns the collect phase's next node, descending, first playing
// the phase when cur starts a new one.
func (lt *loopTransport) next(play func() *RunError) (int, *RunError) {
	if lt.cur%lt.n == 0 {
		if rerr := play(); rerr != nil {
			return -1, rerr
		}
	}
	v := lt.n - 1 - lt.cur%lt.n
	lt.cur++
	return v, nil
}

func (lt *loopTransport) RecvChallenge(ri int) (int, wire.Message, *RunError) {
	v, rerr := lt.next(func() *RunError { return lt.host.Challenge(ri, lt.row) })
	if rerr != nil {
		return v, wire.Message{}, rerr
	}
	return v, lt.row[v], nil
}

func (lt *loopTransport) SendResponse(ri, node int, m wire.Message) *RunError {
	lt.in = append(lt.in, m)
	if len(lt.in) < lt.n {
		return nil
	}
	rerr := lt.host.Respond(ri, lt.in)
	lt.in = lt.in[:0]
	return rerr
}

func (lt *loopTransport) RecvForward(ri int) (int, wire.Message, *RunError) {
	v, rerr := lt.next(func() *RunError { return lt.host.Forward(ri, lt.row) })
	if rerr != nil {
		return v, wire.Message{}, rerr
	}
	return v, lt.row[v], nil
}

func (lt *loopTransport) SendExchange(ri, from, to int, chal bool, m wire.Message) *RunError {
	lt.in = append(lt.in, m)
	if len(lt.in) < lt.edges {
		return nil
	}
	// The views keep an exchange's copies, so the next step starts a
	// fresh row.
	got := lt.in
	lt.in = nil
	return lt.host.Exchange(ScheduleStep{Kind: StepExchange, Round: ri, Chal: chal}, got)
}

func (lt *loopTransport) RecvDecision() (int, bool, *RunError) {
	v, rerr := lt.next(func() *RunError { return lt.host.Decide(lt.decs) })
	if rerr != nil {
		return v, false, rerr
	}
	return v, lt.decs[v], nil
}

func (lt *loopTransport) End(failure *RunError) {
	if lt.host != nil {
		lt.host.Release()
	}
	lt.ended = true
	lt.failure = failure
}

// TestNetworkedMatchesSequential reuses the engine-equivalence case table:
// every spec/graph/prover/options mix must produce bit-identical results
// with the nodes behind a Transport (one Host on the far side) and on the
// run's own Host.
func TestNetworkedMatchesSequential(t *testing.T) {
	corrupt := func(round, node int, m wire.Message) wire.Message {
		if node%3 != 1 || m.Bits == 0 {
			return m
		}
		out := wire.Message{Data: append([]byte(nil), m.Data...), Bits: m.Bits}
		out.Data[0] ^= 0x80
		return out
	}
	corruptEx := func(round, from, to int, m wire.Message) wire.Message {
		if (from+to)%2 == 0 || m.Bits == 0 {
			return m
		}
		out := wire.Message{Data: append([]byte(nil), m.Data...), Bits: m.Bits}
		out.Data[len(out.Data)-1] ^= 0x01
		return out
	}
	cases := []struct {
		name   string
		spec   *Spec
		g      *graph.Graph
		prover Prover
		opts   Options
		accept bool
	}{
		{"echo-cycle", echoSpec(16), graph.Cycle(9), echoProver{}, Options{Seed: 1}, true},
		{"echo-complete", echoSpec(32), graph.Complete(7), echoProver{}, Options{Seed: 2}, true},
		{"echo-transcript", echoSpec(24), graph.Path(6), echoProver{},
			Options{Seed: 3, RecordTranscript: true}, true},
		{"lying", echoSpec(16), graph.Cycle(5), lyingProver{}, Options{Seed: 4}, false},
		{"broadcast-liar", broadcastSpec(), graph.Path(5), broadcastProver{liar: 2}, Options{Seed: 5}, false},
		{"corrupted", echoSpec(16), graph.Cycle(6), echoProver{},
			Options{Seed: 6, Corrupt: corrupt, RecordTranscript: true}, false},
		{"corrupted-exchange", echoSpec(16), graph.Complete(5), echoProver{},
			Options{Seed: 10, CorruptExchange: corruptEx, RecordTranscript: true}, true},
		{"share-challenges", shareSpec(), graph.Path(4), echoProver{}, Options{Seed: 7}, true},
		{"share-star-path", shareSpec(), starPath(), echoProver{}, Options{Seed: 11}, true},
		{"digest-amam", digestSpec(), graph.Cycle(8), echoProver{},
			Options{Seed: 8, RecordTranscript: true}, true},
		{"digest-star-path", digestSpec(), starPath(), echoProver{},
			Options{Seed: 12, RecordTranscript: true}, true},
		{"single-node", echoSpec(8), graph.New(1), echoProver{}, Options{Seed: 9}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				opts := tc.opts
				opts.Seed += seed * 1000
				seqRes, err := Run(tc.spec, tc.g, nil, tc.prover, opts)
				if err != nil {
					t.Fatal(err)
				}
				if seqRes.Accepted != tc.accept {
					t.Fatalf("seed %d: accepted %v, want %v: %v", opts.Seed, seqRes.Accepted, tc.accept, seqRes.Decisions)
				}
				lt := &loopTransport{}
				netOpts := opts
				netOpts.Transport = lt
				netRes, err := Run(tc.spec, tc.g, nil, tc.prover, netOpts)
				if err != nil {
					t.Fatal(err)
				}
				resultsIdentical(t, tc.name, seqRes, netRes)
				if !lt.ended || lt.failure != nil {
					t.Fatalf("transport End(failure=%v), ended=%v", lt.failure, lt.ended)
				}
			}
		})
	}
}

// misbehavingTransport wraps loopTransport and lies in one collect phase.
type misbehavingTransport struct {
	loopTransport
	dupChallenge  bool
	rangeDecision bool
}

func (mt *misbehavingTransport) RecvChallenge(ri int) (int, wire.Message, *RunError) {
	v, m, rerr := mt.loopTransport.RecvChallenge(ri)
	if mt.dupChallenge {
		return 0, m, rerr // every call claims node 0
	}
	return v, m, rerr
}

func (mt *misbehavingTransport) RecvDecision() (int, bool, *RunError) {
	_, d, rerr := mt.loopTransport.RecvDecision()
	if mt.rangeDecision {
		return mt.n + 7, d, rerr
	}
	return mt.n - 1, d, rerr
}

// TestTransportProtocolViolations pins the walk's defense against a
// transport that reports duplicate or out-of-range nodes: a structured
// PhaseTransport RunError, with End told about the failure.
func TestTransportProtocolViolations(t *testing.T) {
	g := graph.Cycle(4)
	for _, tc := range []struct {
		name string
		mt   *misbehavingTransport
		frag string
	}{
		{"duplicate-node", &misbehavingTransport{dupChallenge: true}, "second challenge"},
		{"out-of-range", &misbehavingTransport{rangeDecision: true}, "decision for node"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(echoSpec(8), g, nil, echoProver{},
				Options{Seed: 1, Transport: tc.mt})
			var rerr *RunError
			if !errors.As(err, &rerr) || rerr.Phase != PhaseTransport {
				t.Fatalf("err = %v, want PhaseTransport RunError", err)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
			if !tc.mt.ended || tc.mt.failure == nil {
				t.Fatalf("End not told about failure (ended=%v failure=%v)",
					tc.mt.ended, tc.mt.failure)
			}
		})
	}
}

// TestScheduleMatchesCompile pins the steps a Host compiles for a spec of
// two Arthur–Merlin pairs that shares its challenges: step kinds, rounds
// and counters. AcquireHost refuses a spec Run would refuse.
func TestScheduleMatchesCompile(t *testing.T) {
	spec := &Spec{
		Name:            "sched",
		ShareChallenges: true,
		Rounds: []Round{
			challengeRound(8), {Kind: Merlin},
			challengeRound(4), {Kind: Merlin},
		},
		Decide: func(int, *NodeView) bool { return true },
	}
	h, err := AcquireHost(spec, 1, 0, []int{0}, [][]int{nil}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	want := []ScheduleStep{
		{Kind: StepChallenge, Round: 0, Arthur: 0},
		{Kind: StepExchange, Round: 0, Arthur: 0, Chal: true},
		{Kind: StepRespond, Round: 1, Merlin: 0},
		{Kind: StepExchange, Round: 1},
		{Kind: StepChallenge, Round: 2, Arthur: 1},
		{Kind: StepExchange, Round: 2, Arthur: 1, Chal: true},
		{Kind: StepRespond, Round: 3, Merlin: 1},
		{Kind: StepExchange, Round: 3},
		{Kind: StepDecide, Round: -1},
	}
	if steps := h.Steps(); !slices.Equal(steps, want) {
		t.Fatalf("Steps = %+v\nwant    %+v", steps, want)
	}
	if _, err := AcquireHost(&Spec{Name: "bad", Rounds: []Round{{Kind: Arthur}}}, 1, 0, []int{0}, [][]int{nil}, nil); err == nil {
		t.Fatal("AcquireHost accepted an Arthur round without Challenge")
	}
}
