package network

import (
	"fmt"
	"math/rand"

	"dip/internal/stats"
	"dip/internal/wire"
)

// Host is the node half of a run on one machine: the RNGs, views and
// view backing arrays of the verifier nodes it hosts, the run's compiled
// schedule, and the run's memo, which every hosted node shares. It plays
// one whole step at a time, for every hosted node in ascending order.
// Each node draws from its own RNG, seeded mix(seed, v), and sees only its
// own view, so a node behaves bit-identically whichever Host plays it and
// whatever other nodes that Host plays.
//
// Every run's pooled state embeds one Host for all of its nodes. A node
// host behind a Transport (internal/peer: one per session) checks one out
// of the same pool with AcquireHost for the nodes it was handed and gives
// it back with Release. A Host is used from one goroutine at a time.
type Host struct {
	spec   *Spec
	n      int
	script script

	// nodes are the hosted node ids ascending; nbrs[i] is nodes[i]'s
	// neighbor list (the caller's slice). An exchange's copies are
	// positional: node i's are got[off[i]:off[i+1]], one per neighbor.
	nodes []int
	nbrs  [][]int
	off   []int

	// views[i] is nodes[i]'s view. Its rows grow into the backing arrays
	// below, each node's region capacity-clipped so an append can never
	// cross into the next node's.
	views       []NodeView
	myBack      []wire.Message
	respBack    []wire.Message
	nbrRespRows [][]wire.Message
	nbrChalRows [][]wire.Message

	// rngs[i] wraps &sources[i], node nodes[i]'s source. The two arrays
	// grow together, and a reused Rand is re-seeded through Rand.Seed,
	// which also resets its buffered read state, so it draws exactly what
	// a fresh Rand over nodeSource would.
	sources []stats.SplitMix
	rngs    []*rand.Rand

	// memo is the run's memo on this host, shared by every hosted node.
	memo Memo

	// state is the pooled run state this Host is embedded in.
	state *runState
}

// AcquireHost checks a Host out of the engine-state pool to play nodes in
// an n-node run of spec at seed: nodes are ascending ids in [0, n), and
// nbrs[i] and inputs[i] (inputs nil for none) are nodes[i]'s ascending
// neighbor list and private input. The Host keeps nbrs until Release. The
// spec passes the gate Run applies, so a host never starts a schedule the
// coordinator would have refused.
func AcquireHost(spec *Spec, n int, seed int64, nodes []int, nbrs [][]int, inputs []wire.Message) (*Host, error) {
	if _, err := validateSpec(spec); err != nil {
		return nil, err
	}
	if len(nbrs) != len(nodes) || (inputs != nil && len(inputs) != len(nodes)) {
		return nil, fmt.Errorf("network: %d nodes with %d neighbor lists and %d inputs", len(nodes), len(nbrs), len(inputs))
	}
	for _, v := range nodes {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("network: node %d out of range [0,%d)", v, n)
		}
	}
	s := acquireState()
	s.Host.reset(spec, n, seed, nodes, nbrs, inputs)
	return &s.Host, nil
}

// Release empties the Host and returns it to the pool; it must not be
// used afterwards.
func (h *Host) Release() { h.state.release() }

// Steps returns the run's compiled schedule, valid until Release.
func (h *Host) Steps() []ScheduleStep { return h.script.steps }

// reset prepares the Host for one run: compiles the schedule, seeds the
// RNGs and carves every view from the pooled backing arrays. nodes nil
// hosts all n nodes, with nbrs and inputs indexed by node.
func (h *Host) reset(spec *Spec, n int, seed int64, nodes []int, nbrs [][]int, inputs []wire.Message) {
	h.spec, h.n, h.nbrs = spec, n, nbrs
	h.script.compile(spec)
	k, nA, nM := len(nbrs), h.script.nA, h.script.nM

	h.nodes = grow(h.nodes, k)
	h.off = grow(h.off, k+1)
	h.off[0] = 0
	for i := range k {
		h.nodes[i] = i
		if nodes != nil {
			h.nodes[i] = nodes[i]
		}
		h.off[i+1] = h.off[i] + len(nbrs[i])
	}

	h.myBack = grow(h.myBack, k*nA)
	h.respBack = grow(h.respBack, k*nM)
	h.nbrRespRows = grow(h.nbrRespRows, k*nM)
	if spec.ShareChallenges {
		h.nbrChalRows = grow(h.nbrChalRows, k*nA)
	}

	if cap(h.sources) < k {
		h.sources = make([]stats.SplitMix, k)
		h.rngs = make([]*rand.Rand, k)
		for i, v := range h.nodes {
			h.sources[i] = nodeSource(seed, v)
			h.rngs[i] = rand.New(&h.sources[i])
		}
	} else {
		h.sources, h.rngs = h.sources[:k], h.rngs[:k]
		for i, v := range h.nodes {
			h.rngs[i].Seed(mix(seed, int64(v)))
		}
	}

	h.views = grow(h.views, k)
	for i, v := range h.nodes {
		h.views[i] = NodeView{
			V:                 v,
			NumVertices:       n,
			Neighbors:         nbrs[i],
			MyChallenges:      h.myBack[i*nA : i*nA : (i+1)*nA],
			Responses:         h.respBack[i*nM : i*nM : (i+1)*nM],
			NeighborResponses: h.nbrRespRows[i*nM : i*nM : (i+1)*nM],
			Memo:              &h.memo,
		}
		if spec.ShareChallenges {
			h.views[i].NeighborChallenges = h.nbrChalRows[i*nA : i*nA : (i+1)*nA]
		}
		if inputs != nil {
			h.views[i].Input = inputs[i]
		}
	}
}

// clear drops the references the finished run left in the Host — the
// message headers behind its views, the spec and the memo's entries —
// keeping the storage for the next. The views themselves are rewritten
// whole by the next reset, so clear leaves them: until then they keep the
// last run's neighbor lists and inputs.
func (h *Host) clear() {
	clear(h.myBack)
	clear(h.respBack)
	clear(h.nbrRespRows)
	clear(h.nbrChalRows)
	h.memo.reset()
	h.spec, h.nbrs = nil, nil
}

// Challenge plays Arthur round ri: each hosted node draws its challenge
// from its RNG, and its view records it. out[i] receives nodes[i]'s.
func (h *Host) Challenge(ri int, out []wire.Message) *RunError {
	round := &h.spec.Rounds[ri]
	for i := range h.views {
		view, rng := &h.views[i], h.rngs[i]
		var c wire.Message
		if rerr := guardNode(h.spec.Name, PhaseChallenge, ri, view.V, func() {
			c = round.Challenge(view.V, rng, view)
		}); rerr != nil {
			return rerr
		}
		view.MyChallenges = append(view.MyChallenges, c)
		out[i] = c
	}
	return nil
}

// Respond records in[i], the post-funnel message Merlin round ri delivered
// to nodes[i]. It cannot fail; the error makes a Host one of the walk's
// node sides.
func (h *Host) Respond(ri int, in []wire.Message) *RunError {
	for i := range h.views {
		h.views[i].Responses = append(h.views[i].Responses, in[i])
	}
	return nil
}

// Forward plays the digest half of Merlin round ri's exchange, for a
// round that defines a Digest: out[i] receives the digest nodes[i]
// forwards of its latest response, drawn from its RNG.
func (h *Host) Forward(ri int, out []wire.Message) *RunError {
	digest := h.spec.Rounds[ri].Digest
	for i := range h.views {
		view, rng := &h.views[i], h.rngs[i]
		m := view.Responses[len(view.Responses)-1]
		if rerr := guardNode(h.spec.Name, PhaseDigest, ri, view.V, func() {
			out[i] = digest(view.V, rng, m)
		}); rerr != nil {
			return rerr
		}
	}
	return nil
}

// Exchange records exchange step st's post-funnel copies in the hosted
// views. got is positional: receivers ascending, each one's copies in its
// neighbor order, so nodes[i]'s row is got[off[i]:off[i+1]]. The views
// keep got for the rest of the run. It cannot fail; the error makes a
// Host one of the walk's node sides.
func (h *Host) Exchange(st ScheduleStep, got []wire.Message) *RunError {
	for i := range h.views {
		lo, hi := h.off[i], h.off[i+1]
		view := &h.views[i]
		if st.Chal {
			view.NeighborChallenges = append(view.NeighborChallenges, got[lo:hi:hi])
		} else {
			view.NeighborResponses = append(view.NeighborResponses, got[lo:hi:hi])
		}
	}
	return nil
}

// Decide runs each hosted node's decision function over its view; out[i]
// receives nodes[i]'s decision.
func (h *Host) Decide(out []bool) *RunError {
	for i := range h.views {
		view := &h.views[i]
		if rerr := guardNode(h.spec.Name, PhaseDecide, -1, view.V, func() {
			out[i] = h.spec.Decide(view.V, view)
		}); rerr != nil {
			return rerr
		}
	}
	return nil
}

// guardNode runs a Spec callback with panic containment: a panic in f
// becomes a *RunError attributed to (phase, round, node) instead of
// crashing the process (in a peer process, the node host).
func guardNode(protocol string, phase Phase, round, node int, f func()) (rerr *RunError) {
	defer func() {
		if r := recover(); r != nil {
			rerr = &RunError{Protocol: protocol, Phase: phase, Round: round, Node: node,
				Err: fmt.Errorf("panic: %v", r)}
		}
	}()
	f()
	return nil
}
