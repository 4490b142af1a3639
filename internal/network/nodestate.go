package network

import (
	"fmt"
	"math/rand"

	"dip/internal/wire"
)

// NodeState is one verifier node extracted from the engine: its RNG, its
// view, and nothing else. It exists for node hosts behind a Transport —
// internal/peer builds one NodeState per hosted node and walks Schedule()
// against it — and is deliberately a thin shell over the same free
// functions (challengeNode, forwardNode, decideNode) the sequential
// executor runs, so a node behaves bit-identically wherever it lives.
//
// A NodeState is single-goroutine: the host drives it in schedule order.
type NodeState struct {
	spec *Spec
	v, n int
	src  splitmixSource
	rng  *rand.Rand
	view NodeView
}

// NewNodeState builds node v of an n-node run: RNG seeded mix(seed, v),
// fresh view over the given neighbor slice and input. memo is the host's
// memo for this run, shared by every NodeState the host plays in it on
// the same goroutine (nil for none). The spec is validated with the same
// gate Run uses, so a host cannot start playing a schedule the
// coordinator would have rejected.
func NewNodeState(spec *Spec, v, n int, neighbors []int, input wire.Message, seed int64, memo *Memo) (*NodeState, error) {
	if _, err := validateSpec(spec); err != nil {
		return nil, err
	}
	if v < 0 || v >= n {
		return nil, fmt.Errorf("network: node %d out of range [0,%d)", v, n)
	}
	ns := &NodeState{spec: spec, v: v, n: n}
	ns.src = nodeSource(seed, v)
	ns.rng = rand.New(&ns.src)
	ns.view = NodeView{V: v, NumVertices: n, Neighbors: neighbors, Input: input, Memo: memo}
	return ns, nil
}

// V returns the node's identifier.
func (ns *NodeState) V() int { return ns.v }

// Challenge plays the node's half of an Arthur round (spec round ri): draw
// the challenge from the node RNG and record it in the view.
func (ns *NodeState) Challenge(ri int) (wire.Message, *RunError) {
	return challengeNode(ns.spec, ri, ns.v, ns.rng, &ns.view)
}

// PushResponse records the prover's delivered (post-funnel) Merlin-round
// message, exactly as the sequential executor appends to
// views[v].Responses.
func (ns *NodeState) PushResponse(m wire.Message) {
	ns.view.Responses = append(ns.view.Responses, m)
}

// ExchangeOut returns what this node sends its neighbors for exchange step
// st: its latest challenge (challenge exchanges), or its latest delivered
// response — digested through the round's Digest when one is defined,
// drawing from the node RNG in the same schedule position as the
// sequential executor.
func (ns *NodeState) ExchangeOut(st ScheduleStep) (wire.Message, *RunError) {
	if st.Chal {
		mc := ns.view.MyChallenges
		return mc[len(mc)-1], nil
	}
	rs := ns.view.Responses
	return forwardNode(ns.spec, st.Round, ns.v, ns.rng, rs[len(rs)-1])
}

// PushExchange records the post-funnel copies received from the node's
// neighbors for exchange step st. got[j] is the copy from the node's j-th
// neighbor, one entry per neighbor; the NodeState retains it.
func (ns *NodeState) PushExchange(st ScheduleStep, got []wire.Message) {
	if st.Chal {
		ns.view.NeighborChallenges = append(ns.view.NeighborChallenges, got)
	} else {
		ns.view.NeighborResponses = append(ns.view.NeighborResponses, got)
	}
}

// Decide runs the node's decision function over everything it has seen.
func (ns *NodeState) Decide() (bool, *RunError) {
	return decideNode(ns.spec, ns.v, &ns.view)
}
