package network

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"dip/internal/graph"
	"dip/internal/wire"
)

// engineModes runs a subtest under each executor — the networked one over
// a fresh in-memory loopTransport — so every hardening path is pinned to
// behave identically in both.
func engineModes(t *testing.T, f func(t *testing.T, opts Options)) {
	t.Run("sequential", func(t *testing.T) { f(t, Options{Seed: 1}) })
	t.Run("networked", func(t *testing.T) { f(t, Options{Seed: 1, Transport: &loopTransport{}}) })
}

// wantRunError asserts err is a *RunError with the given attribution.
func wantRunError(t *testing.T, err error, phase Phase, round, node int) *RunError {
	t.Helper()
	if err == nil {
		t.Fatal("run succeeded, want *RunError")
	}
	var re *RunError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v (%T), want *RunError", err, err)
	}
	if re.Phase != phase || re.Round != round || re.Node != node {
		t.Fatalf("RunError{Phase:%q Round:%d Node:%d}, want {%q %d %d}; err: %v",
			re.Phase, re.Round, re.Node, phase, round, node, err)
	}
	return re
}

// TestNilProverMerlinSpec is the regression test for the former
// nil-interface panic: a spec with Merlin rounds and no prover must fail
// with a descriptive setup error, while an Arthur-only spec runs fine
// without one.
func TestNilProverMerlinSpec(t *testing.T) {
	g := graph.Path(3)
	engineModes(t, func(t *testing.T, opts Options) {
		_, err := Run(echoSpec(8), g, nil, nil, opts)
		re := wantRunError(t, err, PhaseSetup, 1, -1)
		if !strings.Contains(re.Error(), "nil Prover") {
			t.Fatalf("error not descriptive: %v", re)
		}
	})
	arthurOnly := &Spec{
		Name:   "arthur-only",
		Rounds: []Round{challengeRound(4)},
		Decide: func(int, *NodeView) bool { return true },
	}
	res, err := Run(arthurOnly, g, nil, nil, Options{Seed: 1})
	if err != nil || !res.Accepted {
		t.Fatalf("Arthur-only spec without prover: res=%+v err=%v", res, err)
	}
}

// TestMalformedProverMessage is the regression test for unvalidated
// m.Bits: a prover whose Bits disagrees with len(Data), or is negative,
// must be rejected with node attribution before anything is charged or
// delivered.
func TestMalformedProverMessage(t *testing.T) {
	g := graph.Path(3)
	spec := &Spec{
		Name:   "malformed",
		Rounds: []Round{{Kind: Merlin}},
		Decide: func(int, *NodeView) bool { return true },
	}
	cases := []struct {
		name string
		m    wire.Message
	}{
		{"negative-bits", wire.Message{Data: []byte{0}, Bits: -3}},
		{"bits-overstate-data", wire.Message{Data: []byte{0}, Bits: 17}},
		{"data-overstate-bits", wire.Message{Data: []byte{0, 0, 0}, Bits: 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			engineModes(t, func(t *testing.T, opts Options) {
				p := proverFunc(func(int, *ProverView) (*Response, error) {
					resp := Broadcast(3, wire.Empty)
					resp.PerNode[1] = tc.m // nodes 0 and 2 stay well-formed
					return resp, nil
				})
				_, err := Run(spec, g, nil, p, opts)
				re := wantRunError(t, err, PhaseRespond, 0, 1)
				if !strings.Contains(re.Error(), "malformed message") {
					t.Fatalf("error not descriptive: %v", re)
				}
			})
		})
	}
}

// panicSpec builds a 4-round MAM-style spec whose callbacks panic at the
// requested phase, to pin panic containment with attribution.
func panicSpec(phase Phase, node int) (*Spec, Prover) {
	spec := &Spec{
		Name: "panicky",
		Rounds: []Round{
			challengeRound(4),
			{Kind: Merlin},
		},
		Decide: func(v int, _ *NodeView) bool { return true },
	}
	prover := Prover(echoProver{})
	switch phase {
	case PhaseChallenge:
		inner := spec.Rounds[0].Challenge
		spec.Rounds[0].Challenge = func(v int, rng *rand.Rand, view *NodeView) wire.Message {
			if v == node {
				panic("challenge boom")
			}
			return inner(v, rng, view)
		}
	case PhaseRespond:
		prover = proverFunc(func(int, *ProverView) (*Response, error) {
			panic("respond boom")
		})
	case PhaseDigest:
		spec.Rounds[1].Digest = func(v int, _ *rand.Rand, m wire.Message) wire.Message {
			if v == node {
				panic("digest boom")
			}
			return m
		}
	case PhaseDecide:
		spec.Decide = func(v int, _ *NodeView) bool {
			if v == node {
				panic("decide boom")
			}
			return true
		}
	}
	return spec, prover
}

// TestPanicContainment: a panic in any Spec/Prover callback becomes a
// *RunError attributed to the right phase, round, and node — under both
// executors, without crashing or hanging.
func TestPanicContainment(t *testing.T) {
	g := graph.Cycle(6)
	cases := []struct {
		phase       Phase
		round, node int
	}{
		{PhaseChallenge, 0, 2},
		{PhaseRespond, 1, -1},
		{PhaseDigest, 1, 4},
		{PhaseDecide, -1, 3},
	}
	for _, tc := range cases {
		t.Run(string(tc.phase), func(t *testing.T) {
			engineModes(t, func(t *testing.T, opts Options) {
				spec, p := panicSpec(tc.phase, tc.node)
				_, err := Run(spec, g, nil, p, opts)
				re := wantRunError(t, err, tc.phase, tc.round, tc.node)
				if !strings.Contains(re.Error(), "panic") || !strings.Contains(re.Error(), "boom") {
					t.Fatalf("panic cause lost: %v", re)
				}
			})
		})
	}
}

// blockingProver blocks in Respond until release is closed.
type blockingProver struct{ release chan struct{} }

func (p *blockingProver) Respond(int, *ProverView) (*Response, error) {
	<-p.release
	return nil, errors.New("released")
}

// TestProverTimeout: a hung prover aborts the run with a deadline
// *RunError under both executors instead of hanging it forever.
func TestProverTimeout(t *testing.T) {
	g := graph.Path(3)
	spec := &Spec{
		Name:   "hung",
		Rounds: []Round{challengeRound(4), {Kind: Merlin}},
		Decide: func(int, *NodeView) bool { return true },
	}
	engineModes(t, func(t *testing.T, opts Options) {
		p := &blockingProver{release: make(chan struct{})}
		defer close(p.release)
		opts.ProverTimeout = 20 * time.Millisecond
		_, err := Run(spec, g, nil, p, opts)
		wantRunError(t, err, PhaseDeadline, 1, -1)
	})
}

// TestProverTimeoutLeaksNoGoroutines pins the deadline path: after the
// hung provers are released, the goroutine count must settle back to the
// baseline — the deadline watchdogs may not leak.
func TestProverTimeoutLeaksNoGoroutines(t *testing.T) {
	g := graph.Cycle(16)
	spec := &Spec{
		Name:   "hung",
		Rounds: []Round{{Kind: Merlin}, challengeRound(4), {Kind: Merlin}},
		Decide: func(int, *NodeView) bool { return true },
	}
	before := runtime.NumGoroutine()
	release := make(chan struct{})
	for i := 0; i < 10; i++ {
		p := &hangAfterProver{failRound: 1, release: release}
		opts := Options{Seed: int64(i), ProverTimeout: 5 * time.Millisecond}
		if _, err := Run(spec, g, nil, p, opts); err == nil {
			t.Fatal("hung prover did not error")
		} else {
			wantRunError(t, err, PhaseDeadline, 2, -1)
		}
	}
	// Unblock the abandoned Respond calls; only then can their watchdog
	// goroutines drain.
	close(release)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after settle window",
				before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// hangAfterProver answers Merlin rounds honestly until failRound, then
// blocks until release is closed.
type hangAfterProver struct {
	failRound int
	release   chan struct{}
}

func (p *hangAfterProver) Respond(merlinRound int, view *ProverView) (*Response, error) {
	if merlinRound >= p.failRound {
		<-p.release
		return nil, errors.New("released")
	}
	return Broadcast(view.Graph.N(), wire.Empty), nil
}

// TestCorruptExchangeBothEngines pins (a) that exchange-plane corruption
// changes what neighbors see, (b) that the sender is still charged for
// the original message ("charged, then corrupted"), and (c) that the
// sequential and networked executors agree bit-for-bit under it.
func TestCorruptExchangeBothEngines(t *testing.T) {
	g := graph.Cycle(8)
	spec := broadcastSpec()
	// Flip one bit of every exchanged copy: every broadcast check must
	// fail, so every node must reject.
	cx := func(round, from, to int, m wire.Message) wire.Message {
		if m.Bits == 0 {
			return m
		}
		out := wire.Message{Data: append([]byte(nil), m.Data...), Bits: m.Bits}
		out.Data[0] ^= 1
		return out
	}
	clean, err := Run(spec, g, nil, broadcastProver{liar: -1}, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Accepted {
		t.Fatal("honest broadcast rejected without corruption")
	}
	seq, err := Run(spec, g, nil, broadcastProver{liar: -1},
		Options{Seed: 5, CorruptExchange: cx})
	if err != nil {
		t.Fatal(err)
	}
	netRes, err := Run(spec, g, nil, broadcastProver{liar: -1},
		Options{Seed: 5, CorruptExchange: cx, Transport: &loopTransport{}})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Accepted {
		t.Fatal("corrupted exchange still accepted")
	}
	for v, d := range seq.Decisions {
		if d {
			t.Fatalf("node %d accepted a corrupted neighbor copy", v)
		}
	}
	resultsIdentical(t, "corrupt-exchange", seq, netRes)
	// Charged-then-corrupted: node-to-node cost must equal the clean run's
	// (the corrupted copy is larger nowhere, but pin exact equality).
	for v := range clean.Cost.NodeToNode {
		if clean.Cost.NodeToNode[v] != seq.Cost.NodeToNode[v] {
			t.Fatalf("node %d: NodeToNode %d under corruption, want %d (charge the original)",
				v, seq.Cost.NodeToNode[v], clean.Cost.NodeToNode[v])
		}
	}

	// Rewriting only the copy of a's digest that b receives must fail b
	// alone: every node checks each neighbor slot against its sender.
	const a, b = 9, 2
	one := func(round, from, to int, m wire.Message) wire.Message {
		if from != a || to != b || m.Bits == 0 {
			return m
		}
		out := wire.Message{Data: append([]byte(nil), m.Data...), Bits: m.Bits}
		out.Data[0] ^= 0xFF
		return out
	}
	for _, tr := range []Transport{nil, &loopTransport{}} {
		res, err := Run(digestSpec(), starPath(), nil, echoProver{},
			Options{Seed: 5, CorruptExchange: one, Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		for v, d := range res.Decisions {
			if d == (v == b) {
				t.Fatalf("transport %T: node %d decided %v with only the copy %d→%d rewritten", tr, v, d, a, b)
			}
		}
	}
}

// TestRunErrorFormat pins the attribution rendering.
func TestRunErrorFormat(t *testing.T) {
	re := &RunError{Protocol: "p", Phase: PhaseDigest, Round: 2, Node: 7, Err: errors.New("x")}
	s := re.Error()
	for _, want := range []string{`"p"`, "digest", "round 2", "node 7", "x"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Error() = %q, missing %q", s, want)
		}
	}
	noNode := &RunError{Protocol: "p", Phase: PhaseRespond, Round: 0, Node: -1, Err: errors.New("x")}
	if strings.Contains(noNode.Error(), "node") {
		t.Fatalf("Error() = %q mentions a node for Node=-1", noNode.Error())
	}
}
