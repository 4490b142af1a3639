package network

import (
	"math/rand"

	"dip/internal/wire"
)

// This file is the round-script layer: the synchronous schedule of a run,
// compiled once per run from the Spec and then *interpreted* by both
// executors and by every remote node host. It is the one description of
// "what happens in which order": the step list below, plus the shared
// per-node step helpers that run every Spec callback.

// StepKind enumerates the script's step types. It is exported because the
// schedule itself is part of the engine's distributed contract: an
// out-of-process node host (internal/peer) walks the same schedule as the
// executors, playing the node-facing half of each step.
type StepKind uint8

const (
	// StepChallenge is an Arthur round: every node produces a random
	// challenge and sends it to the prover.
	StepChallenge StepKind = iota
	// StepRespond is a Merlin round: the prover produces one response per
	// node, each of which is delivered (validated, charged, corrupted)
	// through the funnel.
	StepRespond
	// StepExchange is a neighbor exchange: every node sends its current
	// outbound message (challenge, response, or digest) to each neighbor
	// and collects one message from each.
	StepExchange
	// StepDecide runs every node's decision function.
	StepDecide
)

// step is one entry of the compiled schedule.
type step struct {
	kind StepKind
	// ri is the spec round index the step belongs to (-1 for StepDecide);
	// it is the round coordinate of cost attribution and of the exchange
	// plane's corruption hook.
	ri int
	// merlin is the Merlin-round counter for StepRespond.
	merlin int
	// arthur is the Arthur-round counter for StepChallenge and for
	// challenge exchanges (it selects the pooled challenge row / map slot).
	arthur int
	// chal marks a StepExchange that exchanges Arthur challenges
	// (Spec.ShareChallenges) rather than Merlin responses.
	chal bool
}

// script is the compiled synchronous schedule of one run.
type script struct {
	steps []step
	// merlinOf[ri] is the Merlin-round counter of spec round ri, or -1 for
	// Arthur rounds; it converts the funnel's spec-round coordinate into
	// the Corruptor contract's Merlin-round coordinate.
	merlinOf []int
	// nA/nM count Arthur and Merlin rounds; nEx counts exchanges (one per
	// Merlin round, plus one per Arthur round under ShareChallenges).
	nA, nM, nEx int
}

// compile rebuilds the schedule for spec, reusing the receiver's buffers.
// Spec.Rounds has already been validated by Run.
func (sc *script) compile(spec *Spec) {
	sc.steps = sc.steps[:0]
	sc.merlinOf = sc.merlinOf[:0]
	sc.nA, sc.nM, sc.nEx = 0, 0, 0
	for ri, r := range spec.Rounds {
		switch r.Kind {
		case Arthur:
			sc.steps = append(sc.steps, step{kind: StepChallenge, ri: ri, arthur: sc.nA})
			sc.merlinOf = append(sc.merlinOf, -1)
			if spec.ShareChallenges {
				sc.steps = append(sc.steps, step{kind: StepExchange, ri: ri, arthur: sc.nA, chal: true})
				sc.nEx++
			}
			sc.nA++
		case Merlin:
			sc.steps = append(sc.steps, step{kind: StepRespond, ri: ri, merlin: sc.nM})
			sc.merlinOf = append(sc.merlinOf, sc.nM)
			sc.steps = append(sc.steps, step{kind: StepExchange, ri: ri})
			sc.nEx++
			sc.nM++
		}
	}
	sc.steps = append(sc.steps, step{kind: StepDecide, ri: -1})
}

// ScheduleStep is the exported projection of one compiled step: everything
// a node host outside this process needs to play its half of the step.
// Round is the spec round index (-1 for the decide step); Merlin and
// Arthur are the respective round counters (selecting challenge rows and
// response slots); Chal marks an exchange that shares Arthur challenges
// (Spec.ShareChallenges) rather than Merlin responses.
type ScheduleStep struct {
	Kind   StepKind
	Round  int
	Merlin int
	Arthur int
	Chal   bool
}

// Schedule compiles spec's synchronous schedule into its exported form.
// Remote node hosts (internal/peer) walk this exact step list alongside
// the coordinator's networked executor; because both sides derive it from
// the same Spec, no schedule negotiation happens on the wire.
func Schedule(spec *Spec) ([]ScheduleStep, error) {
	if _, err := validateSpec(spec); err != nil {
		return nil, err
	}
	var sc script
	sc.compile(spec)
	out := make([]ScheduleStep, len(sc.steps))
	for i, st := range sc.steps {
		out[i] = ScheduleStep{Kind: st.kind, Round: st.ri, Merlin: st.merlin, Arthur: st.arthur, Chal: st.chal}
	}
	return out, nil
}

// The helpers below are the per-node halves of the script's steps. They
// are free functions over (spec, rng, view) — the complete state of one
// verifier node — so the same code runs whether the node lives inside a
// pooled runState (the sequential executor) or in a NodeState behind a
// Transport (internal/peer). Every Spec callback runs exclusively through
// them, so panic containment, RunError attribution, and view bookkeeping
// exist once.

// challengeNode runs node v's Challenge callback for Arthur round ri and
// appends the result to v's view.
func challengeNode(spec *Spec, ri, v int, rng *rand.Rand, view *NodeView) (wire.Message, *RunError) {
	var c wire.Message
	round := &spec.Rounds[ri]
	if rerr := guardNode(spec.Name, PhaseChallenge, ri, v, func() {
		c = round.Challenge(v, rng, view)
	}); rerr != nil {
		return c, rerr
	}
	view.MyChallenges = append(view.MyChallenges, c)
	return c, nil
}

// forwardNode maps node v's delivered Merlin-round message to what v
// forwards to its neighbors: the message itself, or its Digest when the
// round defines one.
func forwardNode(spec *Spec, ri, v int, rng *rand.Rand, m wire.Message) (wire.Message, *RunError) {
	digest := spec.Rounds[ri].Digest
	if digest == nil {
		return m, nil
	}
	out := m
	rerr := guardNode(spec.Name, PhaseDigest, ri, v, func() {
		out = digest(v, rng, m)
	})
	return out, rerr
}

// decideNode runs node v's decision function.
func decideNode(spec *Spec, v int, view *NodeView) (bool, *RunError) {
	var d bool
	rerr := guardNode(spec.Name, PhaseDecide, -1, v, func() {
		d = spec.Decide(v, view)
	})
	return d, rerr
}

// nodeChallenge is challengeNode over the coordinator-held view of node v.
func (s *runState) nodeChallenge(ri, v int) (wire.Message, *RunError) {
	return challengeNode(s.spec, ri, v, s.rngs[v], &s.views[v])
}

// nodeForward is forwardNode over the coordinator-held state of node v.
func (s *runState) nodeForward(ri, v int, m wire.Message) (wire.Message, *RunError) {
	return forwardNode(s.spec, ri, v, s.rngs[v], m)
}

// nodeDecide runs node v's decision function and stores the outcome.
func (s *runState) nodeDecide(v int) *RunError {
	d, rerr := decideNode(s.spec, v, &s.views[v])
	if rerr != nil {
		return rerr
	}
	s.decisions[v] = d
	return nil
}

// recordRound appends one round to the transcript (post-corruption
// messages, i.e. what the network actually observed); a no-op unless
// recording was requested. The copy is deliberate: transcripts escape into
// the Result, so they must not alias pooled rows.
func (s *runState) recordRound(kind Kind, perNode []wire.Message) {
	if s.transcript == nil {
		return
	}
	rec := make([]wire.Message, len(perNode))
	copy(rec, perNode)
	s.transcript.Rounds = append(s.transcript.Rounds, TranscriptRound{Kind: kind, PerNode: rec})
}

// takeMap returns the pooled exchange map at back[slot], allocating it on
// first use. Maps are cleared on release, so a reused map is empty here.
func takeMap(back []map[int]wire.Message, slot, deg int) map[int]wire.Message {
	m := back[slot]
	if m == nil {
		m = make(map[int]wire.Message, deg)
		back[slot] = m
	}
	return m
}
