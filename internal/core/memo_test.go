package core

import (
	"slices"
	"testing"

	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/perm"
	"dip/internal/wire"
)

// withoutMemo returns spec with every node deciding on its own, as nodes
// did before hosts kept a run-scoped memo: Decide sees a nil memo.
func withoutMemo(spec *network.Spec) *network.Spec {
	s := *spec
	s.Decide = func(v int, view *network.NodeView) bool {
		memo := view.Memo
		view.Memo = nil
		defer func() { view.Memo = memo }()
		return spec.Decide(v, view)
	}
	return &s
}

// TestDistinctAdviceDecidesAsWithoutMemo hands every node of a 12-cycle
// advice of its own — more distinct contents than a memo holds — and has
// each neighbor forward the receiver's own advice back (an exchange
// corruptor), so every node reaches its content check on a different
// string. The labeling schemes must decide node by node exactly as they
// do without a memo, and as the advice says:
//
//   - sym-lcp: even nodes get a rotation (accept); odd nodes a reflection
//     whose witness it fixes (reject);
//   - gni-lcp: every node's G₁ is the input cycle plus a chord, which
//     makes it non-isomorphic to G₀; the chord misses the node (accept)
//     unless the node is a multiple of 3 (its G₁ row is wrong: reject).
func TestDistinctAdviceDecidesAsWithoutMemo(t *testing.T) {
	const n = 12
	if n <= network.MemoCap {
		t.Fatalf("n = %d does not exceed the memo cap %d", n, network.MemoCap)
	}
	cycle := graph.Cycle(n)

	sym, err := NewSymLCP(n)
	if err != nil {
		t.Fatal(err)
	}
	symAdvice := make([]wire.Message, n)
	for v := range symAdvice {
		rho, witness := perm.Identity(n), 0
		for x := range rho {
			if v%2 == 0 {
				rho[x] = (x + v/2 + 1) % n
			} else {
				rho[x] = (v - 1 - x + n) % n
				witness = (v - 1) / 2
			}
		}
		symAdvice[v] = sym.encode(symLCPAdvice{g: cycle, rho: rho, witness: witness})
	}

	gni, err := NewGNILCP(n)
	if err != nil {
		t.Fatal(err)
	}
	gniAdvice := make([]wire.Message, n)
	for v := range gniAdvice {
		g1 := graph.Cycle(n)
		if v%3 == 0 {
			g1.AddEdge(v, (v+5)%n)
		} else {
			g1.AddEdge((v+2)%n, (v+5)%n)
		}
		gniAdvice[v] = gni.encode(cycle, g1)
	}

	cases := []struct {
		name   string
		spec   *network.Spec
		inputs []wire.Message
		advice []wire.Message
		accept func(v int) bool
	}{
		{"sym-lcp", sym.Spec(), nil, symAdvice, func(v int) bool { return v%2 == 0 }},
		{"gni-lcp", gni.Spec(), EncodeGNIInputs(cycle), gniAdvice, func(v int) bool { return v%3 != 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, a := range tc.advice[1:] {
				if msgEqual(a, tc.advice[0]) {
					t.Fatal("two nodes share an advice string")
				}
			}
			prover := proverFunc(func(int, *network.ProverView) (*network.Response, error) {
				return &network.Response{PerNode: slices.Clone(tc.advice)}, nil
			})
			opts := network.Options{Seed: 1, CorruptExchange: func(_, _, to int, _ wire.Message) wire.Message {
				return tc.advice[to]
			}}
			with, err := network.Run(tc.spec, cycle, tc.inputs, prover, opts)
			if err != nil {
				t.Fatal(err)
			}
			without, err := network.Run(withoutMemo(tc.spec), cycle, tc.inputs, prover, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(with.Decisions, without.Decisions) {
				t.Fatalf("decisions with a memo %v, without %v", with.Decisions, without.Decisions)
			}
			for v, d := range with.Decisions {
				if d != tc.accept(v) {
					t.Fatalf("node %d decided %v on its own advice: %v", v, d, with.Decisions)
				}
			}
		})
	}
}
