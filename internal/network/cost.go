package network

// Cost is the bit-exact communication accounting of a run. Every increment
// happens in runState.deliver — the single delivery funnel the walk routes
// all messages through — so the aggregate and per-round views cannot drift
// apart and cannot differ between node sides.
type Cost struct {
	// ToProver[v] counts challenge bits node v sent to the prover.
	ToProver []int
	// FromProver[v] counts response bits the prover sent to node v.
	FromProver []int
	// NodeToNode[v] counts bits v sent to its neighbors in exchanges.
	NodeToNode []int
	// PerRound[k] is the same accounting restricted to round k of the
	// spec (one entry per Round, Arthur and Merlin alike). For every node
	// v and every direction, the per-round entries sum exactly to the
	// aggregate slices above, whichever side plays the nodes. This is
	// the granularity at which the round-vs-certificate trade-off
	// literature measures protocols.
	PerRound []RoundCost
}

// RoundCost is one round's slice of the cost accounting. Slices are
// indexed by node; directions that cannot occur in a round (e.g.
// FromProver in an Arthur round) stay zero.
type RoundCost struct {
	// Kind records whether the round was Arthur or Merlin.
	Kind       Kind
	ToProver   []int
	FromProver []int
	NodeToNode []int
}

// ProverBits returns node v's prover-communication bits in this round
// (both directions, challenges included).
func (r *RoundCost) ProverBits(v int) int {
	return r.ToProver[v] + r.FromProver[v]
}

// MaxProverBits returns the paper's complexity measure: the maximum over
// nodes of bits exchanged with the prover (both directions, challenges
// included).
func (c *Cost) MaxProverBits() int {
	maxBits := 0
	for v := range c.ToProver {
		if b := c.ToProver[v] + c.FromProver[v]; b > maxBits {
			maxBits = b
		}
	}
	return maxBits
}

// TotalProverBits returns the sum over nodes of prover-communication bits.
func (c *Cost) TotalProverBits() int {
	total := 0
	for v := range c.ToProver {
		total += c.ToProver[v] + c.FromProver[v]
	}
	return total
}

// MaxNodeToNodeBits returns the maximum over nodes of bits sent to
// neighbors.
func (c *Cost) MaxNodeToNodeBits() int {
	maxBits := 0
	for _, b := range c.NodeToNode {
		if b > maxBits {
			maxBits = b
		}
	}
	return maxBits
}

// ArgMaxProverNode returns the lowest-indexed node attaining
// MaxProverBits (0 for an empty cost).
func (c *Cost) ArgMaxProverNode() int {
	arg, maxBits := 0, -1
	for v := range c.ToProver {
		if b := c.ToProver[v] + c.FromProver[v]; b > maxBits {
			arg, maxBits = v, b
		}
	}
	return arg
}

// ProverBitsByRound returns node v's prover-communication bits round by
// round. Taken at v = ArgMaxProverNode(), the entries sum exactly to
// MaxProverBits — the per-round decomposition of the paper's cost
// measure.
func (c *Cost) ProverBitsByRound(v int) []int {
	out := make([]int, len(c.PerRound))
	for k := range c.PerRound {
		out[k] = c.PerRound[k].ProverBits(v)
	}
	return out
}

// newCost builds a zeroed Cost for an n-node run of spec, with one
// PerRound entry per round. All per-node slices (aggregate and
// per-round) are carved out of a single backing array so the per-round
// breakdown costs one allocation, not 3·rounds. The Cost escapes into the
// Result (callers retain it — experiments.TrialStats.Sample reads it long
// after the run), so it is freshly allocated every run and never pooled.
func newCost(spec *Spec, n int) Cost {
	rounds := len(spec.Rounds)
	back := make([]int, (3+3*rounds)*n)
	carve := func() []int {
		s := back[:n:n]
		back = back[n:]
		return s
	}
	c := Cost{
		ToProver:   carve(),
		FromProver: carve(),
		NodeToNode: carve(),
		PerRound:   make([]RoundCost, rounds),
	}
	for k, r := range spec.Rounds {
		c.PerRound[k] = RoundCost{
			Kind:       r.Kind,
			ToProver:   carve(),
			FromProver: carve(),
			NodeToNode: carve(),
		}
	}
	return c
}
