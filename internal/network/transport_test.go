package network

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"dip/internal/graph"
	"dip/internal/wire"
)

// loopTransport is an in-memory Transport: it hosts every node in the same
// process through NodeState — the exact node-side code internal/peer runs
// in a separate process — with zero sockets. It deliberately reports
// collect-phase results in *descending* node order to prove the networked
// executor is arrival-order independent, like real peers answering at
// their own pace.
type loopTransport struct {
	nodes []*NodeState
	n     int
	// cursor walks each collect phase (challenges, forwards, decisions)
	// once; the executor calls each Recv* exactly n times per phase.
	chalCur, fwdCur, decCur int
	// pending accumulates exchange deliveries per receiver, in the
	// Transport contract's sender order, until the receiver's neighbor row
	// is complete.
	pending [][]wire.Message
	degrees []int
	ended   bool
	failure *RunError
}

func (lt *loopTransport) Begin(run *TransportRun) *RunError {
	lt.n = run.N
	memo := new(Memo) // one host: all its nodes share the run's memo
	lt.nodes = make([]*NodeState, run.N)
	lt.degrees = make([]int, run.N)
	lt.pending = make([][]wire.Message, run.N)
	for v := 0; v < run.N; v++ {
		var input wire.Message
		if run.Inputs != nil {
			input = run.Inputs[v]
		}
		// Copy the neighbor slice: TransportRun.Neighbors aliases pooled
		// engine state that a transport must not retain.
		nbrs := append([]int(nil), run.Neighbors[v]...)
		ns, err := NewNodeState(run.Spec, v, run.N, nbrs, input, run.Seed, memo)
		if err != nil {
			return &RunError{Protocol: run.Spec.Name, Phase: PhaseTransport,
				Round: -1, Node: v, Err: err}
		}
		lt.nodes[v] = ns
		lt.degrees[v] = len(nbrs)
	}
	return nil
}

// next returns the collect-phase cursor's node, descending.
func (lt *loopTransport) next(cur *int) int {
	v := lt.n - 1 - (*cur % lt.n)
	*cur++
	return v
}

func (lt *loopTransport) RecvChallenge(ri int) (int, wire.Message, *RunError) {
	v := lt.next(&lt.chalCur)
	m, rerr := lt.nodes[v].Challenge(ri)
	return v, m, rerr
}

func (lt *loopTransport) SendResponse(ri, node int, m wire.Message) *RunError {
	lt.nodes[node].PushResponse(m)
	return nil
}

func (lt *loopTransport) RecvForward(ri int) (int, wire.Message, *RunError) {
	v := lt.next(&lt.fwdCur)
	m, rerr := lt.nodes[v].ExchangeOut(ScheduleStep{Kind: StepExchange, Round: ri})
	return v, m, rerr
}

func (lt *loopTransport) SendExchange(ri, from, to int, chal bool, m wire.Message) *RunError {
	got := append(lt.pending[to], m)
	lt.pending[to] = got
	if len(got) == lt.degrees[to] {
		lt.nodes[to].PushExchange(ScheduleStep{Kind: StepExchange, Round: ri, Chal: chal}, got)
		lt.pending[to] = nil
	}
	return nil
}

func (lt *loopTransport) RecvDecision() (int, bool, *RunError) {
	v := lt.next(&lt.decCur)
	d, rerr := lt.nodes[v].Decide()
	return v, d, rerr
}

func (lt *loopTransport) End(failure *RunError) {
	lt.ended = true
	lt.failure = failure
}

// TestNetworkedMatchesSequential reuses the engine-equivalence case table:
// every spec/graph/prover/options mix must produce bit-identical results
// under the networked executor (nodes hosted through NodeState behind a
// Transport) and the sequential one.
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

// TestTransportProtocolViolations pins the executor's defense against a
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

// TestScheduleMatchesCompile pins the steps Schedule compiles for a spec
// of two Arthur–Merlin pairs that shares its challenges: step kinds,
// rounds and counters.
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
	steps, err := Schedule(spec)
	if err != nil {
		t.Fatal(err)
	}
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
	if !slices.Equal(steps, want) {
		t.Fatalf("Schedule = %+v\nwant       %+v", steps, want)
	}
	if _, err := Schedule(&Spec{Name: "bad", Rounds: []Round{{Kind: Arthur}}}); err == nil {
		t.Fatal("Schedule accepted an Arthur round without Challenge")
	}
}
