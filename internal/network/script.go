package network

import "dip/internal/wire"

// This file is the round-script layer: the synchronous schedule of a run,
// compiled once per run from the Spec and then *interpreted* by the walk
// and by every Host that plays nodes behind a Transport. It is the one
// description of "what happens in which order".

// StepKind enumerates the script's step types. It is exported because the
// schedule itself is part of the engine's distributed contract: an
// out-of-process node host (internal/peer) plays the node-facing half of
// each step of the same schedule (Host.Steps) the coordinator walks.
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

// ScheduleStep is one step of the compiled schedule: everything the walk,
// or a node host outside this process, needs to play its half of the
// step. Round is the spec round index (-1 for the decide step); it is
// the round coordinate of cost attribution and of the exchange plane's
// corruption hook. Merlin is the Merlin-round counter of a StepRespond;
// Arthur is the Arthur-round counter of a StepChallenge and of a challenge
// exchange (it selects the challenge row). Chal marks an exchange that
// shares Arthur challenges (Spec.ShareChallenges) rather than Merlin
// responses.
type ScheduleStep struct {
	Kind   StepKind
	Round  int
	Merlin int
	Arthur int
	Chal   bool
}

// script is the compiled synchronous schedule of one run.
type script struct {
	steps []ScheduleStep
	// merlinOf[ri] is the Merlin-round counter of spec round ri, or -1 for
	// Arthur rounds; it converts the funnel's spec-round coordinate into
	// the Corruptor contract's Merlin-round coordinate.
	merlinOf []int
	// nA/nM count Arthur and Merlin rounds; nEx counts exchanges (one per
	// Merlin round, plus one per Arthur round under ShareChallenges).
	nA, nM, nEx int
}

// compile rebuilds the schedule for spec, reusing the receiver's buffers.
// Spec.Rounds has already been validated (validateSpec). Both sides of a
// distributed run compile it from the same Spec, so no schedule
// negotiation happens on the wire.
func (sc *script) compile(spec *Spec) {
	sc.steps = sc.steps[:0]
	sc.merlinOf = sc.merlinOf[:0]
	sc.nA, sc.nM, sc.nEx = 0, 0, 0
	for ri, r := range spec.Rounds {
		switch r.Kind {
		case Arthur:
			sc.steps = append(sc.steps, ScheduleStep{Kind: StepChallenge, Round: ri, Arthur: sc.nA})
			sc.merlinOf = append(sc.merlinOf, -1)
			if spec.ShareChallenges {
				sc.steps = append(sc.steps, ScheduleStep{Kind: StepExchange, Round: ri, Arthur: sc.nA, Chal: true})
				sc.nEx++
			}
			sc.nA++
		case Merlin:
			sc.steps = append(sc.steps, ScheduleStep{Kind: StepRespond, Round: ri, Merlin: sc.nM})
			sc.merlinOf = append(sc.merlinOf, sc.nM)
			sc.steps = append(sc.steps, ScheduleStep{Kind: StepExchange, Round: ri})
			sc.nEx++
			sc.nM++
		}
	}
	sc.steps = append(sc.steps, ScheduleStep{Kind: StepDecide, Round: -1})
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
