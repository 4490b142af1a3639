package network

import (
	"fmt"

	"dip/internal/wire"
)

// runNetworked interprets the round script against remote verifier nodes
// reached through Options.Transport. It is the coordinator half of a
// distributed run: the prover, the delivery funnel (validation, cost
// charging, fault corruption), and the transcript all execute here, in
// exactly runSequential's order, while every node-side callback
// (Challenge, Digest, Decide) runs wherever the transport's far side hosts
// the node — its RNG seeded mix(Seed, v) there, via NodeState.
//
// Bit-identity with runSequential follows from three facts: node
// randomness is per-node (so it does not matter which process draws it),
// every funnel delivery happens here in the sequential order (so cost
// rows, corruption call order, and transcript rows match), and the copies
// the far side observes are the post-funnel messages this side sends (so
// views — and hence decisions — match). The equivalence suite asserts all
// of it protocol-by-protocol.
func runNetworked(s *runState) *RunError {
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
		rerr = playNetworked(s, t)
	}
	t.End(rerr)
	return rerr
}

// playNetworked walks the script once Begin has provisioned the far side.
func playNetworked(s *runState, t Transport) *RunError {
	n := s.n
	// seen tracks which nodes have reported within one collect phase
	// (challenges, forwards, decisions): a transport frame for an
	// out-of-range or duplicate node is a protocol violation, not silently
	// absorbed state corruption.
	seen := make([]bool, n)
	for _, st := range s.script.steps {
		if rerr := s.checkCancel(st.Round); rerr != nil {
			return rerr
		}
		switch st.Kind {
		case StepChallenge:
			row := s.chalRows[st.Arthur*n : (st.Arthur+1)*n]
			clearSeen(seen)
			for i := 0; i < n; i++ {
				v, c, rerr := t.RecvChallenge(st.Round)
				if rerr != nil {
					return rerr
				}
				if rerr := claimNode(s, st.Round, seen, v, "challenge"); rerr != nil {
					return rerr
				}
				row[v] = c
			}
			// Charge in ascending node order — the funnel order both
			// executors share. (The challenge plane has no corruption hook,
			// so deliver returns the message unchanged.)
			for v := 0; v < n; v++ {
				m, rerr := s.deliver(planeChallenge, st.Round, v, -1, row[v])
				if rerr != nil {
					return rerr
				}
				row[v] = m
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
				if rerr := t.SendResponse(st.Round, v, m); rerr != nil {
					return rerr
				}
			}
			s.recordRound(Merlin, s.delivered)

		case StepExchange:
			// Pick what each node forwards, mirroring runSequential: the
			// round's challenges and plain (digest-less) responses are
			// copies the coordinator already holds, so only digests cross
			// the wire back — each node computes its own digest (the RNG
			// draw must happen on the node's host) and reports it before
			// any delivery.
			var msgs []wire.Message
			if st.Chal {
				msgs = s.chalRows[st.Arthur*n : (st.Arthur+1)*n]
			} else if s.spec.Rounds[st.Round].Digest != nil {
				clearSeen(seen)
				for i := 0; i < n; i++ {
					v, f, rerr := t.RecvForward(st.Round)
					if rerr != nil {
						return rerr
					}
					if rerr := claimNode(s, st.Round, seen, v, "forward"); rerr != nil {
						return rerr
					}
					s.forwards[v] = f
				}
				msgs = s.forwards
			} else {
				msgs = s.delivered
			}
			for v := 0; v < n; v++ {
				for _, u := range s.nbrs[v] {
					// u→v delivery: u is charged for its honest copy, v's
					// host receives the (possibly corrupted) one.
					m, _ := s.deliver(planeExchange, st.Round, u, v, msgs[u])
					if rerr := t.SendExchange(st.Round, u, v, st.Chal, m); rerr != nil {
						return rerr
					}
				}
			}

		case StepDecide:
			clearSeen(seen)
			for i := 0; i < n; i++ {
				v, d, rerr := t.RecvDecision()
				if rerr != nil {
					return rerr
				}
				if rerr := claimNode(s, -1, seen, v, "decision"); rerr != nil {
					return rerr
				}
				s.decisions[v] = d
			}
		}
	}
	return nil
}

// claimNode validates a node index reported by the transport within one
// collect phase and marks it seen.
func claimNode(s *runState, ri int, seen []bool, v int, what string) *RunError {
	if v < 0 || v >= len(seen) {
		return s.runError(PhaseTransport, ri, -1,
			fmt.Errorf("transport reported %s for node %d of %d", what, v, len(seen)))
	}
	if seen[v] {
		return s.runError(PhaseTransport, ri, v,
			fmt.Errorf("transport reported a second %s for node %d", what, v))
	}
	seen[v] = true
	return nil
}

func clearSeen(seen []bool) {
	for i := range seen {
		seen[i] = false
	}
}
