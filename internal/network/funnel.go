package network

import (
	"errors"
	"fmt"
	"time"

	"dip/internal/wire"
)

// This file is the delivery-funnel layer: every message of a run — on
// every plane, whichever side plays the nodes — passes through deliver
// exactly once, on the run's goroutine. Validation, bit-charging
// (aggregate and per-round), and fault injection therefore each exist in
// exactly one place, which is the seam where internal/faults adapters attach
// (Options.Corrupt / Options.CorruptExchange) and whose charge totals the
// internal/obs delivery meters are published from (runState.finish).

// plane identifies the direction of a delivery inside the funnel.
type plane uint8

const (
	// planeChallenge is the node→prover direction (Arthur challenges).
	planeChallenge plane = iota
	// planeResponse is the prover→node direction (Merlin responses).
	planeResponse
	// planeExchange is the node→node direction (forward/digest traffic
	// and, under Spec.ShareChallenges, challenge exchanges).
	planeExchange
)

// deliver is the funnel: validate → charge → corrupt for one message
// delivery, returning the message the receiver actually observes. ri is
// the spec round the delivery belongs to; from/to are node indices, with
// -1 standing for the prover. Cost semantics are "charged, then
// corrupted" on every plane: the sender's honest bits are metered before
// any injector rewrites them.
func (s *runState) deliver(pl plane, ri, from, to int, m wire.Message) (wire.Message, *RunError) {
	switch pl {
	case planeChallenge:
		s.cost.ToProver[from] += m.Bits
		s.cost.PerRound[ri].ToProver[from] += m.Bits
	case planeResponse:
		if rerr := s.checkMessage(ri, to, m); rerr != nil {
			return m, rerr
		}
		s.cost.FromProver[to] += m.Bits
		s.cost.PerRound[ri].FromProver[to] += m.Bits
		if s.opts.Corrupt != nil {
			m = s.opts.Corrupt(s.script.merlinOf[ri], to, m)
		}
	case planeExchange:
		s.cost.NodeToNode[from] += m.Bits
		s.cost.PerRound[ri].NodeToNode[from] += m.Bits
		if s.opts.CorruptExchange != nil {
			m = s.opts.CorruptExchange(ri, from, to, m)
		}
	}
	return m, nil
}

// checkMessage rejects a malformed prover wire.Message before it is
// charged or delivered: Bits must be non-negative and Data must be exactly
// ceil(Bits/8) bytes (the invariant wire.Writer maintains). Without this
// check a hostile prover could silently corrupt the cost accounting
// (negative Bits) or feed verifiers more data than it was charged for.
func (s *runState) checkMessage(ri, v int, m wire.Message) *RunError {
	if m.Bits < 0 || len(m.Data) != (m.Bits+7)/8 {
		return s.runError(PhaseRespond, ri, v,
			fmt.Errorf("malformed message: Bits=%d but len(Data)=%d (want %d bytes)",
				m.Bits, len(m.Data), (m.Bits+7)/8))
	}
	return nil
}

// errRunCanceled is the cause inside a PhaseCanceled *RunError raised at a
// step boundary (RunContext callers see the context's own error only when
// the context was done before the run started; mid-run aborts surface
// this sentinel, with the caller's context holding the reason).
var errRunCanceled = errors.New("run canceled")

// checkCancel polls Options.Cancel at a step boundary. The walk calls it
// between steps — never inside one — so an aborted run has executed an
// integral prefix of the script and the pooled state stays releasable.
func (s *runState) checkCancel(ri int) *RunError {
	if s.opts.Cancel == nil {
		return nil
	}
	select {
	case <-s.opts.Cancel:
		return s.runError(PhaseCanceled, ri, -1, errRunCanceled)
	default:
		return nil
	}
}

// runError builds a *RunError attributed to (phase, round, node) for this
// run's protocol.
func (s *runState) runError(phase Phase, round, node int, err error) *RunError {
	return &RunError{Protocol: s.spec.Name, Phase: phase, Round: round, Node: node, Err: err}
}

// callRespond invokes Prover.Respond for spec round ri with panic
// containment, response-shape validation, and (when Options.ProverTimeout
// is set) a deadline. The walk calls the prover exclusively through this
// helper, so a hostile prover implementation fails identically whichever
// side plays the nodes.
func (s *runState) callRespond(ri, merlinRound int) (*Response, *RunError) {
	call := func() (resp *Response, rerr *RunError) {
		defer func() {
			if r := recover(); r != nil {
				rerr = s.runError(PhaseRespond, ri, -1, fmt.Errorf("prover panic: %v", r))
			}
		}()
		r, err := s.prover.Respond(merlinRound, &s.pv)
		if err != nil {
			return nil, s.runError(PhaseRespond, ri, -1,
				fmt.Errorf("prover round %d: %w", merlinRound, err))
		}
		if r == nil || len(r.PerNode) != s.n {
			return nil, s.runError(PhaseRespond, ri, -1,
				fmt.Errorf("prover round %d: response for %d nodes, want %d",
					merlinRound, respLen(r), s.n))
		}
		return r, nil
	}
	if s.opts.ProverTimeout <= 0 {
		return call()
	}
	type outcome struct {
		resp *Response
		rerr *RunError
	}
	done := make(chan outcome, 1) // buffered: a late prover must not leak forever
	go func() {
		resp, rerr := call()
		done <- outcome{resp, rerr}
	}()
	timer := time.NewTimer(s.opts.ProverTimeout)
	defer timer.Stop()
	select {
	case out := <-done:
		return out.resp, out.rerr
	case <-timer.C:
		// The abandoned Respond goroutine still holds this runState (it
		// reads the ProverView and, on failure paths, the spec name), so
		// the state must not be pooled for reuse.
		s.abandoned = true
		return nil, s.runError(PhaseDeadline, ri, -1,
			fmt.Errorf("prover round %d: no response within %v", merlinRound, s.opts.ProverTimeout))
	}
}

func respLen(r *Response) int {
	if r == nil {
		return 0
	}
	return len(r.PerNode)
}
