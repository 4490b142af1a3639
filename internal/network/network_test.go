package network

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"dip/internal/graph"
	"dip/internal/wire"
)

// echoProver answers every node with its own last challenge.
type echoProver struct{}

func (echoProver) Respond(_ int, view *ProverView) (*Response, error) {
	last := view.Challenges[len(view.Challenges)-1]
	resp := &Response{PerNode: make([]wire.Message, len(last))}
	copy(resp.PerNode, last)
	return resp, nil
}

// challengeBits builds an Arthur round sending `bits` random bits.
func challengeRound(bits int) Round {
	return Round{Kind: Arthur, Challenge: func(v int, rng *rand.Rand, _ *NodeView) wire.Message {
		var w wire.Writer
		for i := 0; i < bits; i++ {
			w.WriteBool(rng.Intn(2) == 1)
		}
		return w.Message()
	}}
}

func echoSpec(bits int) *Spec {
	return &Spec{
		Name:   "echo",
		Rounds: []Round{challengeRound(bits), {Kind: Merlin}},
		Decide: func(v int, view *NodeView) bool {
			if len(view.Responses) != 1 {
				return false
			}
			got := view.Responses[0]
			want := view.MyChallenges[0]
			if got.Bits != want.Bits {
				return false
			}
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					return false
				}
			}
			return true
		},
	}
}

func TestEchoProtocolAccepts(t *testing.T) {
	g := graph.Cycle(6)
	res, err := Run(echoSpec(16), g, nil, echoProver{}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("echo protocol rejected: %v", res.Decisions)
	}
	for v := 0; v < 6; v++ {
		if res.Cost.ToProver[v] != 16 || res.Cost.FromProver[v] != 16 {
			t.Fatalf("node %d cost = %d/%d, want 16/16",
				v, res.Cost.ToProver[v], res.Cost.FromProver[v])
		}
		// Each node forwards its 16-bit response to its 2 neighbors.
		if res.Cost.NodeToNode[v] != 32 {
			t.Fatalf("node %d node-to-node = %d, want 32", v, res.Cost.NodeToNode[v])
		}
	}
	if res.Cost.MaxProverBits() != 32 {
		t.Fatalf("MaxProverBits = %d, want 32", res.Cost.MaxProverBits())
	}
	if res.Cost.TotalProverBits() != 6*32 {
		t.Fatalf("TotalProverBits = %d", res.Cost.TotalProverBits())
	}
	if res.Cost.MaxNodeToNodeBits() != 32 {
		t.Fatalf("MaxNodeToNodeBits = %d", res.Cost.MaxNodeToNodeBits())
	}
}

// lyingProver echoes wrong bits to node 0 only.
type lyingProver struct{}

func (lyingProver) Respond(_ int, view *ProverView) (*Response, error) {
	last := view.Challenges[len(view.Challenges)-1]
	resp := &Response{PerNode: make([]wire.Message, len(last))}
	copy(resp.PerNode, last)
	var w wire.Writer
	w.WriteUint(0xDEAD, 16)
	resp.PerNode[0] = w.Message()
	return resp, nil
}

func TestLyingProverRejected(t *testing.T) {
	g := graph.Cycle(6)
	res, err := Run(echoSpec(16), g, nil, lyingProver{}, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("lying prover accepted")
	}
	// Only node 0 should reject (its echo is wrong; others' are fine).
	for v, d := range res.Decisions {
		if (v == 0) == d {
			t.Fatalf("node %d decision = %v", v, d)
		}
	}
}

// broadcastProver sends a constant everywhere except node `liar`, which
// gets a different value. Used to verify broadcast-consistency checking.
type broadcastProver struct{ liar int }

func (p broadcastProver) Respond(_ int, view *ProverView) (*Response, error) {
	n := view.Graph.N()
	var w wire.Writer
	w.WriteUint(42, 8)
	resp := Broadcast(n, w.Message())
	if p.liar >= 0 {
		var bad wire.Writer
		bad.WriteUint(43, 8)
		resp.PerNode[p.liar] = bad.Message()
	}
	return resp, nil
}

// broadcastSpec accepts iff the node's response equals all neighbors'.
func broadcastSpec() *Spec {
	return &Spec{
		Name:   "broadcast-check",
		Rounds: []Round{{Kind: Merlin}},
		Decide: func(v int, view *NodeView) bool {
			mine := view.Responses[0]
			for _, u := range view.Neighbors {
				other := view.NeighborResponses[0][u]
				if other.Bits != mine.Bits {
					return false
				}
				for i := range mine.Data {
					if mine.Data[i] != other.Data[i] {
						return false
					}
				}
			}
			return true
		},
	}
}

func TestBroadcastConsistency(t *testing.T) {
	g := graph.Path(5)
	res, err := Run(broadcastSpec(), g, nil, broadcastProver{liar: -1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("consistent broadcast rejected")
	}

	res, err = Run(broadcastSpec(), g, nil, broadcastProver{liar: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("inconsistent broadcast accepted")
	}
	// Node 2 and its neighbors 1, 3 must reject; 0 and 4 cannot tell.
	want := []bool{true, false, false, false, true}
	for v, d := range res.Decisions {
		if d != want[v] {
			t.Fatalf("node %d decision = %v, want %v", v, d, want[v])
		}
	}
}

func TestCorruptionCaught(t *testing.T) {
	g := graph.Cycle(6)
	corrupt := func(round, node int, m wire.Message) wire.Message {
		if node != 3 || m.Bits == 0 {
			return m
		}
		out := wire.Message{Data: append([]byte(nil), m.Data...), Bits: m.Bits}
		out.Data[0] ^= 1
		return out
	}
	res, err := Run(echoSpec(16), g, nil, echoProver{}, Options{Seed: 3, Corrupt: corrupt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("corrupted message accepted")
	}
	if res.Decisions[3] {
		t.Fatal("node 3 accepted a corrupted echo")
	}
}

func TestShareChallenges(t *testing.T) {
	g := graph.Path(3)
	spec := &Spec{
		Name:            "share",
		ShareChallenges: true,
		Rounds:          []Round{challengeRound(8), {Kind: Merlin}},
		Decide: func(v int, view *NodeView) bool {
			if len(view.NeighborChallenges) != 1 {
				return false
			}
			return len(view.NeighborChallenges[0]) == len(view.Neighbors)
		},
	}
	res, err := Run(spec, g, nil, echoProver{}, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("neighbor challenges missing")
	}
	// Node 1 (degree 2) forwards 8-bit challenge and 8-bit response to 2
	// neighbors: 2*8 + 2*8 = 32 bits.
	if res.Cost.NodeToNode[1] != 32 {
		t.Fatalf("NodeToNode[1] = %d, want 32", res.Cost.NodeToNode[1])
	}
}

func TestMultiRoundAMAM(t *testing.T) {
	// Two Arthur-Merlin exchanges; the second response must echo the second
	// challenge. Exercises the exchange-stash path under concurrency.
	g := graph.Complete(8)
	spec := &Spec{
		Name: "amam-echo",
		Rounds: []Round{
			challengeRound(12), {Kind: Merlin},
			challengeRound(20), {Kind: Merlin},
		},
		Decide: func(v int, view *NodeView) bool {
			for k := 0; k < 2; k++ {
				got, want := view.Responses[k], view.MyChallenges[k]
				if got.Bits != want.Bits {
					return false
				}
				for i := range want.Data {
					if got.Data[i] != want.Data[i] {
						return false
					}
				}
				if len(view.NeighborResponses[k]) != len(view.Neighbors) {
					return false
				}
			}
			return true
		},
	}
	for seed := int64(0); seed < 5; seed++ {
		res, err := Run(spec, g, nil, echoProver{}, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			t.Fatalf("seed %d: AMAM echo rejected", seed)
		}
		if got := res.Cost.MaxProverBits(); got != 12+12+20+20 {
			t.Fatalf("MaxProverBits = %d, want 64", got)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	g := graph.Cycle(5)
	spec := &Spec{
		Name:   "record",
		Rounds: []Round{challengeRound(32), {Kind: Merlin}},
		Decide: func(int, *NodeView) bool { return true },
	}
	run := func() []wire.Message {
		var got []wire.Message
		p := proverFunc(func(_ int, view *ProverView) (*Response, error) {
			got = append([]wire.Message(nil), view.Challenges[0]...)
			return Broadcast(5, wire.Empty), nil
		})
		if _, err := Run(spec, g, nil, p, Options{Seed: 99}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	for v := range a {
		if a[v].Bits != b[v].Bits {
			t.Fatal("nondeterministic bits")
		}
		for i := range a[v].Data {
			if a[v].Data[i] != b[v].Data[i] {
				t.Fatal("nondeterministic challenge data")
			}
		}
	}
}

// proverFunc adapts a function to the Prover interface.
type proverFunc func(int, *ProverView) (*Response, error)

func (f proverFunc) Respond(r int, v *ProverView) (*Response, error) { return f(r, v) }

func TestProverErrorPropagates(t *testing.T) {
	g := graph.Path(3)
	boom := errors.New("boom")
	p := proverFunc(func(int, *ProverView) (*Response, error) { return nil, boom })
	spec := &Spec{
		Name:   "err",
		Rounds: []Round{{Kind: Merlin}},
		Decide: func(int, *NodeView) bool { return true },
	}
	if _, err := Run(spec, g, nil, p, Options{}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestMalformedResponseShape(t *testing.T) {
	g := graph.Path(3)
	spec := &Spec{
		Name:   "shape",
		Rounds: []Round{{Kind: Merlin}},
		Decide: func(int, *NodeView) bool { return true },
	}
	for _, resp := range []*Response{{PerNode: make([]wire.Message, 2)}, nil} {
		p := proverFunc(func(int, *ProverView) (*Response, error) { return resp, nil })
		if _, err := Run(spec, g, nil, p, Options{}); err == nil {
			t.Fatalf("wrong-shape response %v accepted", resp)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	g := graph.Path(3)
	decide := func(int, *NodeView) bool { return true }
	if _, err := Run(&Spec{Decide: decide}, nil, nil, echoProver{}, Options{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := Run(&Spec{}, g, nil, echoProver{}, Options{}); err == nil {
		t.Fatal("nil Decide accepted")
	}
	if _, err := Run(&Spec{Decide: decide, Rounds: []Round{{Kind: Arthur}}}, g, nil, echoProver{}, Options{}); err == nil {
		t.Fatal("Arthur without Challenge accepted")
	}
	if _, err := Run(&Spec{Decide: decide, Rounds: []Round{{Kind: Kind(9)}}}, g, nil, echoProver{}, Options{}); err == nil {
		t.Fatal("bad kind accepted")
	}
	if _, err := Run(&Spec{Decide: decide}, g, make([]wire.Message, 2), echoProver{}, Options{}); err == nil {
		t.Fatal("wrong input count accepted")
	}
}

func TestEmptyGraph(t *testing.T) {
	res, err := Run(&Spec{Decide: func(int, *NodeView) bool { return false }},
		graph.New(0), nil, echoProver{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("empty graph should vacuously accept")
	}
}

func TestInputsDelivered(t *testing.T) {
	g := graph.Path(3)
	inputs := make([]wire.Message, 3)
	for v := range inputs {
		var w wire.Writer
		w.WriteInt(v+10, 8)
		inputs[v] = w.Message()
	}
	spec := &Spec{
		Name:   "inputs",
		Rounds: nil,
		Decide: func(v int, view *NodeView) bool {
			got, err := wire.NewReader(view.Input).ReadInt(8)
			return err == nil && got == v+10
		},
	}
	res, err := Run(spec, g, inputs, echoProver{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatal("inputs not delivered")
	}
}

func TestHasNeighbor(t *testing.T) {
	nv := &NodeView{Neighbors: []int{1, 4}}
	if !nv.HasNeighbor(4) || nv.HasNeighbor(2) {
		t.Fatal("HasNeighbor wrong")
	}
}

func TestKindString(t *testing.T) {
	if Arthur.String() != "Arthur" || Merlin.String() != "Merlin" {
		t.Fatal("Kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown kind string wrong")
	}
}

func TestDigestReplacesNeighborExchange(t *testing.T) {
	// With a Digest hook, each node keeps its full response but neighbors
	// receive (and the cost accounting charges) only the digest.
	g := graph.Cycle(5)
	spec := &Spec{
		Name: "digest",
		Rounds: []Round{{
			Kind: Merlin,
			Digest: func(v int, _ *rand.Rand, m wire.Message) wire.Message {
				var w wire.Writer
				w.WriteInt(v, 8) // 8-bit digest regardless of response size
				return w.Message()
			},
		}},
		Decide: func(v int, view *NodeView) bool {
			if view.Responses[0].Bits != 64 {
				return false // own response must be the full message
			}
			for u, d := range view.NeighborResponses[0] {
				got, err := wire.NewReader(d).ReadInt(8)
				if err != nil || got != u {
					return false // neighbor message must be u's digest
				}
			}
			return true
		},
	}
	big64 := proverFunc(func(int, *ProverView) (*Response, error) {
		var w wire.Writer
		w.WriteUint(0xDEADBEEF, 64)
		return Broadcast(5, w.Message()), nil
	})
	res, err := Run(spec, g, nil, big64, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted {
		t.Fatalf("digest semantics wrong: %v", res.Decisions)
	}
	for v := 0; v < 5; v++ {
		if res.Cost.NodeToNode[v] != 2*8 {
			t.Fatalf("node %d charged %d node-to-node bits, want 16", v, res.Cost.NodeToNode[v])
		}
		if res.Cost.FromProver[v] != 64 {
			t.Fatalf("node %d prover bits = %d", v, res.Cost.FromProver[v])
		}
	}
}

func TestTranscriptRecording(t *testing.T) {
	g := graph.Cycle(4)
	res, err := Run(echoSpec(16), g, nil, echoProver{}, Options{Seed: 2, RecordTranscript: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Transcript
	if tr == nil {
		t.Fatal("transcript missing")
	}
	if len(tr.Rounds) != 2 {
		t.Fatalf("recorded %d rounds, want 2", len(tr.Rounds))
	}
	if tr.Rounds[0].Kind != Arthur || tr.Rounds[1].Kind != Merlin {
		t.Fatal("round kinds wrong")
	}
	for _, r := range tr.Rounds {
		if len(r.PerNode) != 4 {
			t.Fatal("per-node messages missing")
		}
		for _, m := range r.PerNode {
			if m.Bits != 16 {
				t.Fatalf("recorded %d bits, want 16", m.Bits)
			}
		}
	}
	if tr.TotalBits() != 2*4*16 {
		t.Fatalf("TotalBits = %d, want 128", tr.TotalBits())
	}
	s := tr.String()
	if !strings.Contains(s, "echo") || !strings.Contains(s, "Arthur") {
		t.Fatalf("String rendering missing fields:\n%s", s)
	}

	// Without the option, no transcript is attached.
	res, err = Run(echoSpec(16), g, nil, echoProver{}, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Transcript != nil {
		t.Fatal("transcript attached without opt-in")
	}
}

func TestTranscriptRecordsCorruptedDelivery(t *testing.T) {
	// The transcript shows what the network observed: post-corruption.
	g := graph.Path(3)
	corrupt := func(round, node int, m wire.Message) wire.Message {
		out := wire.Message{Data: append([]byte(nil), m.Data...), Bits: m.Bits}
		if node == 1 && m.Bits > 0 {
			out.Data[0] ^= 1
		}
		return out
	}
	res, err := Run(echoSpec(8), g, nil, echoProver{},
		Options{Seed: 3, Corrupt: corrupt, RecordTranscript: true})
	if err != nil {
		t.Fatal(err)
	}
	merlin := res.Transcript.Rounds[1]
	// Node 1's delivered message must differ from its challenge.
	challenge := res.Transcript.Rounds[0].PerNode[1]
	delivered := merlin.PerNode[1]
	if challenge.Data[0] == delivered.Data[0] {
		t.Fatal("transcript recorded the pre-corruption message")
	}
}
