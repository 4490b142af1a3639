package network

import (
	"math/rand"
	"sync"
	"testing"

	"dip/internal/graph"
	"dip/internal/wire"
)

// resultsIdentical fails the test unless a and b agree on acceptance,
// per-node decisions, every cost counter, and (when recorded) every
// transcript message bit-for-bit.
func resultsIdentical(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Accepted != b.Accepted {
		t.Fatalf("%s: Accepted %v vs %v", label, a.Accepted, b.Accepted)
	}
	if len(a.Decisions) != len(b.Decisions) {
		t.Fatalf("%s: decision counts differ", label)
	}
	for v := range a.Decisions {
		if a.Decisions[v] != b.Decisions[v] {
			t.Fatalf("%s: node %d decision %v vs %v", label, v, a.Decisions[v], b.Decisions[v])
		}
	}
	costSlices := [][2][]int{
		{a.Cost.ToProver, b.Cost.ToProver},
		{a.Cost.FromProver, b.Cost.FromProver},
		{a.Cost.NodeToNode, b.Cost.NodeToNode},
	}
	for i, pair := range costSlices {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s: cost slice %d lengths differ", label, i)
		}
		for v := range pair[0] {
			if pair[0][v] != pair[1][v] {
				t.Fatalf("%s: cost slice %d node %d: %d vs %d",
					label, i, v, pair[0][v], pair[1][v])
			}
		}
	}
	if (a.Transcript == nil) != (b.Transcript == nil) {
		t.Fatalf("%s: transcript presence differs", label)
	}
	if a.Transcript == nil {
		return
	}
	ta, tb := a.Transcript, b.Transcript
	if len(ta.Rounds) != len(tb.Rounds) {
		t.Fatalf("%s: transcript round counts %d vs %d", label, len(ta.Rounds), len(tb.Rounds))
	}
	for r := range ta.Rounds {
		ra, rb := ta.Rounds[r], tb.Rounds[r]
		if ra.Kind != rb.Kind || len(ra.PerNode) != len(rb.PerNode) {
			t.Fatalf("%s: transcript round %d shape differs", label, r)
		}
		for v := range ra.PerNode {
			ma, mb := ra.PerNode[v], rb.PerNode[v]
			if ma.Bits != mb.Bits {
				t.Fatalf("%s: round %d node %d bits %d vs %d", label, r, v, ma.Bits, mb.Bits)
			}
			for i := range ma.Data {
				if ma.Data[i] != mb.Data[i] {
					t.Fatalf("%s: round %d node %d byte %d differs", label, r, v, i)
				}
			}
		}
	}
}

// digestSpec exercises the Digest hook and multi-round RNG consumption.
// A digest is the node's id byte and a random byte, so a node accepts
// only if every neighbor slot holds that neighbor's digest.
func digestSpec() *Spec {
	return &Spec{
		Name: "seq-digest",
		Rounds: []Round{
			challengeRound(16),
			{Kind: Merlin, Digest: func(v int, rng *rand.Rand, m wire.Message) wire.Message {
				var w wire.Writer
				w.WriteInt(v, 8)
				w.WriteUint(rng.Uint64()&0xFF, 8)
				return w.Message()
			}},
			challengeRound(8),
			{Kind: Merlin},
		},
		Decide: func(v int, view *NodeView) bool {
			return len(view.Responses) == 2 && fromNeighbors(view, view.NeighborResponses[0]) &&
				len(view.NeighborResponses[1]) == len(view.Neighbors)
		},
	}
}

// goTransport hosts every node on a goroutine of its own, each driving its
// NodeState from a FIFO inbox, and hands collect-phase replies to the
// executor in whatever order the node goroutines finish — a stand-in for a
// fleet of peers answering concurrently. Messages are copied at the
// boundary in both directions, as a wire would, so no node shares bytes
// with the coordinator or with another node.
type goTransport struct {
	n       int
	inbox   []chan func(*NodeState)
	replies chan nodeReply
	hosts   sync.WaitGroup
	// chalCur, fwdCur and decCur count the Recv* calls of each collect
	// phase; the first call of a phase fans the step out to every node.
	chalCur, fwdCur, decCur int
	// pending accumulates exchange deliveries per receiver, in the
	// Transport contract's sender order, until the receiver's neighbor row
	// is complete.
	pending [][]wire.Message
	degrees []int
	ended   bool
	failure *RunError
}

// nodeReply is one node's answer in a collect phase.
type nodeReply struct {
	v        int
	m        wire.Message
	decision bool
	rerr     *RunError
}

func cloneMessage(m wire.Message) wire.Message {
	return wire.Message{Data: append([]byte(nil), m.Data...), Bits: m.Bits}
}

func (gt *goTransport) Begin(run *TransportRun) *RunError {
	nodes := make([]*NodeState, run.N)
	gt.degrees = make([]int, run.N)
	for v := range nodes {
		var input wire.Message
		if run.Inputs != nil {
			input = run.Inputs[v]
		}
		nbrs := append([]int(nil), run.Neighbors[v]...)
		// Each node is a host of its own on its own goroutine, so none
		// shares a memo.
		ns, err := NewNodeState(run.Spec, v, run.N, nbrs, input, run.Seed, new(Memo))
		if err != nil {
			return &RunError{Protocol: run.Spec.Name, Phase: PhaseTransport,
				Round: -1, Node: v, Err: err}
		}
		nodes[v] = ns
		gt.degrees[v] = len(nbrs)
	}
	gt.n = run.N
	gt.pending = make([][]wire.Message, run.N)
	// At most one reply per node is outstanding, so hosts never block on
	// replies, even when the executor aborts mid-phase.
	gt.replies = make(chan nodeReply, run.N)
	gt.inbox = make([]chan func(*NodeState), run.N)
	for v, ns := range nodes {
		in := make(chan func(*NodeState), 4)
		gt.inbox[v] = in
		gt.hosts.Add(1)
		go func(ns *NodeState) {
			defer gt.hosts.Done()
			for f := range in {
				f(ns)
			}
		}(ns)
	}
	return nil
}

// collect returns the next reply of a collect phase, first asking every
// node when cur starts a new phase.
func (gt *goTransport) collect(cur *int, ask func(ns *NodeState) nodeReply) nodeReply {
	if *cur%gt.n == 0 {
		for _, in := range gt.inbox {
			in <- func(ns *NodeState) { gt.replies <- ask(ns) }
		}
	}
	*cur++
	return <-gt.replies
}

func (gt *goTransport) RecvChallenge(ri int) (int, wire.Message, *RunError) {
	r := gt.collect(&gt.chalCur, func(ns *NodeState) nodeReply {
		m, rerr := ns.Challenge(ri)
		return nodeReply{v: ns.V(), m: cloneMessage(m), rerr: rerr}
	})
	return r.v, r.m, r.rerr
}

func (gt *goTransport) SendResponse(ri, node int, m wire.Message) *RunError {
	m = cloneMessage(m)
	gt.inbox[node] <- func(ns *NodeState) { ns.PushResponse(m) }
	return nil
}

func (gt *goTransport) RecvForward(ri int) (int, wire.Message, *RunError) {
	r := gt.collect(&gt.fwdCur, func(ns *NodeState) nodeReply {
		m, rerr := ns.ExchangeOut(ScheduleStep{Kind: StepExchange, Round: ri})
		return nodeReply{v: ns.V(), m: cloneMessage(m), rerr: rerr}
	})
	return r.v, r.m, r.rerr
}

func (gt *goTransport) SendExchange(ri, from, to int, chal bool, m wire.Message) *RunError {
	got := append(gt.pending[to], cloneMessage(m))
	gt.pending[to] = got
	if len(got) == gt.degrees[to] {
		st := ScheduleStep{Kind: StepExchange, Round: ri, Chal: chal}
		gt.inbox[to] <- func(ns *NodeState) { ns.PushExchange(st, got) }
		gt.pending[to] = nil
	}
	return nil
}

func (gt *goTransport) RecvDecision() (int, bool, *RunError) {
	r := gt.collect(&gt.decCur, func(ns *NodeState) nodeReply {
		d, rerr := ns.Decide()
		return nodeReply{v: ns.V(), decision: d, rerr: rerr}
	})
	return r.v, r.decision, r.rerr
}

// End stops every node goroutine and waits for it to exit.
func (gt *goTransport) End(failure *RunError) {
	for _, in := range gt.inbox {
		close(in)
	}
	gt.hosts.Wait()
	gt.ended, gt.failure = true, failure
}

// TestSequentialMatchesConcurrent runs a mix of specs, graphs, provers, and
// options on the sequential executor and on the networked executor over
// goTransport — every node on a goroutine of its own, answering in
// arrival order — and requires bit-identical results: a node's output
// depends only on its own view, never on which goroutine ran it or when.
func TestSequentialMatchesConcurrent(t *testing.T) {
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
		spec   *Spec
		g      *graph.Graph
		prover Prover
		opts   Options
		accept bool
	}{
		{"echo-cycle", echoSpec(16), graph.Cycle(9), echoProver{}, Options{Seed: 1}, true},
		{"echo-complete", echoSpec(32), graph.Complete(7), echoProver{}, Options{Seed: 2}, true},
		{"echo-path-transcript", echoSpec(24), graph.Path(6), echoProver{},
			Options{Seed: 3, RecordTranscript: true}, true},
		{"lying", echoSpec(16), graph.Cycle(5), lyingProver{}, Options{Seed: 4}, false},
		{"broadcast-liar", broadcastSpec(), graph.Path(5), broadcastProver{liar: 2}, Options{Seed: 5}, false},
		{"corrupted", echoSpec(16), graph.Cycle(6), echoProver{},
			Options{Seed: 6, Corrupt: corrupt, RecordTranscript: true}, false},
		{"share-challenges", shareSpec(), graph.Path(4), echoProver{}, Options{Seed: 7}, true},
		{"share-star-path", shareSpec(), starPath(), echoProver{}, Options{Seed: 10}, true},
		{"digest-amam", digestSpec(), graph.Cycle(8), echoProver{},
			Options{Seed: 8, RecordTranscript: true}, true},
		{"digest-star-path", digestSpec(), starPath(), echoProver{},
			Options{Seed: 11, RecordTranscript: true}, true},
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
				gt := &goTransport{}
				conOpts := opts
				conOpts.Transport = gt
				conRes, err := Run(tc.spec, tc.g, nil, tc.prover, conOpts)
				if err != nil {
					t.Fatal(err)
				}
				resultsIdentical(t, tc.name, seqRes, conRes)
				if !gt.ended || gt.failure != nil {
					t.Fatalf("transport End(failure=%v), ended=%v", gt.failure, gt.ended)
				}
			}
		})
	}
}

// TestSequentialProverErrors pins the wrong-shape response error on the
// default executor.
func TestSequentialProverErrors(t *testing.T) {
	g := graph.Path(3)
	spec := &Spec{
		Name:   "seq-err",
		Rounds: []Round{{Kind: Merlin}},
		Decide: func(int, *NodeView) bool { return true },
	}
	wrongShape := proverFunc(func(int, *ProverView) (*Response, error) {
		return &Response{PerNode: make([]wire.Message, 1)}, nil
	})
	if _, err := Run(spec, g, nil, wrongShape, Options{}); err == nil {
		t.Fatal("wrong-shape response accepted by sequential engine")
	}
}

// mutatingProver echoes correctly but vandalizes the shared graph through
// its view, violating the ProverView.Graph read-only contract. The engine
// snapshot must keep routing and decisions unaffected within the run.
type mutatingProver struct{}

func (mutatingProver) Respond(_ int, view *ProverView) (*Response, error) {
	n := view.Graph.N()
	for v := 1; v < n; v++ {
		view.Graph.RemoveEdge(0, v)
	}
	for v := 1; v < n; v++ {
		if !view.Graph.HasEdge(0, v) && v > 1 {
			view.Graph.AddEdge(0, v)
		}
	}
	last := view.Challenges[len(view.Challenges)-1]
	resp := &Response{PerNode: make([]wire.Message, len(last))}
	copy(resp.PerNode, last)
	return resp, nil
}

// TestProverMutationCannotAffectDecisions runs the echo protocol with a
// prover that rewires the graph mid-run, under both executors: every node
// must still receive its echo over the original topology and accept, with
// costs identical to an honest run on the pristine graph.
func TestProverMutationCannotAffectDecisions(t *testing.T) {
	for _, mode := range []string{"sequential", "networked"} {
		t.Run(mode, func(t *testing.T) {
			run := func(p Prover) (*Result, error) {
				opts := Options{Seed: 21}
				if mode == "networked" {
					opts.Transport = &loopTransport{}
				}
				return Run(echoSpec(16), graph.Cycle(8), nil, p, opts)
			}
			honest, err := run(echoProver{})
			if err != nil {
				t.Fatal(err)
			}
			mutated, err := run(mutatingProver{})
			if err != nil {
				t.Fatal(err)
			}
			if !mutated.Accepted {
				t.Fatalf("mutating prover changed decisions: %v", mutated.Decisions)
			}
			resultsIdentical(t, "mutation-immunity", honest, mutated)
		})
	}
}
