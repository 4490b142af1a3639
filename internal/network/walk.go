package network

import (
	"fmt"

	"dip/internal/wire"
)

// nodeSide is where a run's nodes play their half of each step: the run's
// own Host when they live in this process, transportSide when
// Options.Transport hosts them elsewhere. Rows (out, in) are indexed by
// node; got holds an exchange's positional copies, receivers ascending
// and each one's senders in neighbor order.
type nodeSide interface {
	Challenge(ri int, out []wire.Message) *RunError
	Respond(ri int, in []wire.Message) *RunError
	Forward(ri int, out []wire.Message) *RunError
	Exchange(st ScheduleStep, got []wire.Message) *RunError
	Decide(out []bool) *RunError
}

// walk interprets the round script once, on the calling goroutine. The
// prover, the delivery funnel and the transcript run here, in one order
// whichever side plays the nodes; side plays each step's node half. A
// run's results are therefore bit-identical on either side: node
// randomness is per node, so it does not matter which host draws it;
// every delivery happens here in the same order, so cost rows, corruption
// calls and transcript rows match; and the nodes observe the post-funnel
// copies this walk hands the side, so views and decisions match.
func (s *runState) walk(side nodeSide) *RunError {
	n := s.n
	ex := 0 // exchanges played so far
	for _, st := range s.script.steps {
		if rerr := s.checkCancel(st.Round); rerr != nil {
			return rerr
		}
		switch st.Kind {
		case StepChallenge:
			row := s.chalRows[st.Arthur*n : (st.Arthur+1)*n]
			if rerr := side.Challenge(st.Round, row); rerr != nil {
				return rerr
			}
			// The challenge plane has no corruption hook: deliver only
			// charges, nodes ascending, and the row stays as it is.
			for v, c := range row {
				s.deliver(planeChallenge, st.Round, v, -1, c)
			}
			s.pv.Challenges = append(s.pv.Challenges, row)
			s.recordRound(Arthur, row)

		case StepRespond:
			resp, rerr := s.callRespond(st.Round, st.Merlin)
			if rerr != nil {
				return rerr
			}
			for v := 0; v < n; v++ {
				m, rerr := s.deliver(planeResponse, st.Round, -1, v, resp.PerNode[v])
				if rerr != nil {
					return rerr
				}
				s.delivered[v] = m
			}
			if rerr := side.Respond(st.Round, s.delivered); rerr != nil {
				return rerr
			}
			s.recordRound(Merlin, s.delivered)

		case StepExchange:
			// What each node forwards: the round's challenges, its
			// delivered response, or the digest of it. Digests draw from
			// the node RNGs, so every node's is made before any delivery.
			msgs := s.delivered
			if st.Chal {
				msgs = s.chalRows[st.Arthur*n : (st.Arthur+1)*n]
			} else if s.spec.Rounds[st.Round].Digest != nil {
				if rerr := side.Forward(st.Round, s.forwards); rerr != nil {
					return rerr
				}
				msgs = s.forwards
			}
			// This exchange's copies land in its own region of exBack:
			// u→v delivery charges u for its honest copy, and v receives
			// the (possibly corrupted) one.
			e := len(s.adjFlat)
			got := s.exBack[ex*e : (ex+1)*e]
			ex++
			k := 0
			for v, nbrs := range s.nbrs {
				for _, u := range nbrs {
					got[k], _ = s.deliver(planeExchange, st.Round, u, v, msgs[u])
					k++
				}
			}
			if rerr := side.Exchange(st, got); rerr != nil {
				return rerr
			}

		case StepDecide:
			if rerr := side.Decide(s.decisions); rerr != nil {
				return rerr
			}
		}
	}
	return nil
}

// walkTransport runs the walk with the nodes behind Options.Transport:
// Begin provisions the far side, and End closes the run however it went.
func (s *runState) walkTransport() *RunError {
	t := s.opts.Transport
	rerr := t.Begin(&TransportRun{
		Spec:      s.spec,
		Seed:      s.opts.Seed,
		N:         s.n,
		Neighbors: s.nbrs,
		Inputs:    s.inputs,
		Cancel:    s.opts.Cancel,
	})
	if rerr == nil {
		s.remote.s, s.remote.t = s, t
		s.remote.seen = grow(s.remote.seen, s.n)
		rerr = s.walk(&s.remote)
	}
	t.End(rerr)
	return rerr
}

// transportSide plays the node side over a Transport: each step becomes
// the per-node calls whose number and order the Transport contract fixes.
// A node the far side reports must be in range and report once per
// collect phase; anything else is a protocol violation that fails the
// run, not state to absorb.
type transportSide struct {
	s    *runState
	t    Transport
	seen []bool // nodes reported in the current collect phase
}

func (ts *transportSide) Challenge(ri int, out []wire.Message) *RunError {
	return ts.collect(ri, "challenge", out, ts.t.RecvChallenge)
}

func (ts *transportSide) Forward(ri int, out []wire.Message) *RunError {
	return ts.collect(ri, "forward", out, ts.t.RecvForward)
}

// collect receives one message per node, in any arrival order, into out.
func (ts *transportSide) collect(ri int, what string, out []wire.Message, recv func(int) (int, wire.Message, *RunError)) *RunError {
	clear(ts.seen)
	for range out {
		v, m, rerr := recv(ri)
		if rerr != nil {
			return rerr
		}
		if rerr := ts.claim(ri, v, what); rerr != nil {
			return rerr
		}
		out[v] = m
	}
	return nil
}

func (ts *transportSide) Respond(ri int, in []wire.Message) *RunError {
	for v, m := range in {
		if rerr := ts.t.SendResponse(ri, v, m); rerr != nil {
			return rerr
		}
	}
	return nil
}

func (ts *transportSide) Exchange(st ScheduleStep, got []wire.Message) *RunError {
	k := 0
	for v, nbrs := range ts.s.nbrs {
		for _, u := range nbrs {
			if rerr := ts.t.SendExchange(st.Round, u, v, st.Chal, got[k]); rerr != nil {
				return rerr
			}
			k++
		}
	}
	return nil
}

func (ts *transportSide) Decide(out []bool) *RunError {
	clear(ts.seen)
	for range out {
		v, d, rerr := ts.t.RecvDecision()
		if rerr != nil {
			return rerr
		}
		if rerr := ts.claim(-1, v, "decision"); rerr != nil {
			return rerr
		}
		out[v] = d
	}
	return nil
}

// claim checks a node index the transport reported in one collect phase
// and marks it seen.
func (ts *transportSide) claim(ri, v int, what string) *RunError {
	if v < 0 || v >= len(ts.seen) {
		return ts.s.runError(PhaseTransport, ri, -1,
			fmt.Errorf("transport reported %s for node %d of %d", what, v, len(ts.seen)))
	}
	if ts.seen[v] {
		return ts.s.runError(PhaseTransport, ri, v,
			fmt.Errorf("transport reported a second %s for node %d", what, v))
	}
	ts.seen[v] = true
	return nil
}
