package network

import (
	"math/rand"
	"testing"

	"dip/internal/graph"
	"dip/internal/wire"
)

// checkPerRound asserts the per-round invariants of a cost accounting:
// one entry per spec round with matching kinds, and per-node, per-
// direction sums that equal the aggregate slices exactly.
func checkPerRound(t *testing.T, spec *Spec, c *Cost) {
	t.Helper()
	if len(c.PerRound) != len(spec.Rounds) {
		t.Fatalf("PerRound has %d entries for %d rounds", len(c.PerRound), len(spec.Rounds))
	}
	for k, rc := range c.PerRound {
		if rc.Kind != spec.Rounds[k].Kind {
			t.Fatalf("PerRound[%d].Kind = %v, round is %v", k, rc.Kind, spec.Rounds[k].Kind)
		}
	}
	for v := range c.ToProver {
		to, from, nbr := 0, 0, 0
		for k := range c.PerRound {
			to += c.PerRound[k].ToProver[v]
			from += c.PerRound[k].FromProver[v]
			nbr += c.PerRound[k].NodeToNode[v]
		}
		if to != c.ToProver[v] || from != c.FromProver[v] || nbr != c.NodeToNode[v] {
			t.Fatalf("node %d: per-round sums (%d,%d,%d) != aggregates (%d,%d,%d)",
				v, to, from, nbr, c.ToProver[v], c.FromProver[v], c.NodeToNode[v])
		}
	}
	arg := c.ArgMaxProverNode()
	sum := 0
	for _, b := range c.ProverBitsByRound(arg) {
		sum += b
	}
	if sum != c.MaxProverBits() {
		t.Fatalf("per-round prover bits at node %d sum to %d, MaxProverBits is %d",
			arg, sum, c.MaxProverBits())
	}
}

// TestPerRoundCostSums runs a multi-round echo protocol on a star (so
// node costs are heterogeneous) on both node sides and checks that the
// per-round breakdown decomposes every aggregate exactly.
func TestPerRoundCostSums(t *testing.T) {
	g := graph.Star(7)
	spec := &Spec{
		Name: "amam-echo",
		Rounds: []Round{
			challengeRound(8),
			{Kind: Merlin},
			challengeRound(24),
			{Kind: Merlin},
		},
		Decide: func(v int, view *NodeView) bool { return true },
	}
	for _, opts := range []Options{
		{Seed: 5},
		{Seed: 5, Transport: &loopTransport{}},
	} {
		res, err := Run(spec, g, nil, echoProver{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkPerRound(t, spec, &res.Cost)
		// An echo round returns each node its own challenge: the second
		// Merlin round must carry the second Arthur round's 24 bits.
		if got := res.Cost.PerRound[3].FromProver[0]; got != 24 {
			t.Fatalf("round 3 FromProver[0] = %d, want 24", got)
		}
		if got := res.Cost.PerRound[0].ToProver[0]; got != 8 {
			t.Fatalf("round 0 ToProver[0] = %d, want 8", got)
		}
	}
}

// TestPerRoundCostWithSharedChallengesAndDigest covers the two special
// cost paths: Arthur-round neighbor exchanges (ShareChallenges) and
// digest-metered Merlin forwarding, on both node sides.
func TestPerRoundCostWithSharedChallengesAndDigest(t *testing.T) {
	g := graph.Cycle(5)
	digest := func(v int, rng *rand.Rand, m wire.Message) wire.Message {
		var w wire.Writer
		w.WriteBool(true)
		return w.Message() // 1 bit instead of the full response
	}
	spec := &Spec{
		Name: "shared-digest",
		Rounds: []Round{
			challengeRound(6),
			{Kind: Merlin, Digest: digest},
		},
		Decide:          func(v int, view *NodeView) bool { return true },
		ShareChallenges: true,
	}
	for _, opts := range []Options{
		{Seed: 9},
		{Seed: 9, Transport: &loopTransport{}},
	} {
		res, err := Run(spec, g, nil, echoProver{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkPerRound(t, spec, &res.Cost)
		// Arthur round: each node forwards its 6-bit challenge to both
		// cycle neighbors; Merlin round: the 1-bit digest to both.
		if got := res.Cost.PerRound[0].NodeToNode[2]; got != 12 {
			t.Fatalf("Arthur-round NodeToNode[2] = %d, want 12", got)
		}
		if got := res.Cost.PerRound[1].NodeToNode[2]; got != 2 {
			t.Fatalf("Merlin-round NodeToNode[2] = %d, want 2 (digest bits)", got)
		}
	}
}
