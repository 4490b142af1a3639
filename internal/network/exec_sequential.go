package network

import "dip/internal/wire"

// runSequential interprets the round script on the calling goroutine,
// playing every node's half of each step itself. Each node still owns a
// private RNG seeded by mix(Seed, v), so its draws do not depend on which
// executor or host runs it.
func runSequential(s *runState) *RunError {
	n := s.n
	ex := 0 // exchanges played so far
	for _, st := range s.script.steps {
		if rerr := s.checkCancel(st.Round); rerr != nil {
			return rerr
		}
		switch st.Kind {
		case StepChallenge:
			row := s.chalRows[st.Arthur*n : (st.Arthur+1)*n]
			for v := 0; v < n; v++ {
				c, rerr := s.nodeChallenge(st.Round, v)
				if rerr != nil {
					return rerr
				}
				m, rerr := s.deliver(planeChallenge, st.Round, v, -1, c)
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
				s.views[v].Responses = append(s.views[v].Responses, m)
			}
			s.recordRound(Merlin, s.delivered)

		case StepExchange:
			// Pick what each node forwards: the round's challenges, the
			// delivered responses, or their digests. Digests draw from the
			// node RNGs, so they run for all nodes (ascending) before any
			// delivery.
			var msgs []wire.Message
			if st.Chal {
				msgs = s.chalRows[st.Arthur*n : (st.Arthur+1)*n]
			} else if s.spec.Rounds[st.Round].Digest != nil {
				for v := 0; v < n; v++ {
					f, rerr := s.nodeForward(st.Round, v, s.delivered[v])
					if rerr != nil {
						return rerr
					}
					s.forwards[v] = f
				}
				msgs = s.forwards
			} else {
				msgs = s.delivered
			}
			// Node v's copies land in this exchange's region of exBack,
			// carved by adjOff: slot j holds the copy from s.nbrs[v][j].
			base := ex * len(s.adjFlat)
			ex++
			for v := 0; v < n; v++ {
				lo, hi := base+s.adjOff[v], base+s.adjOff[v+1]
				got := s.exBack[lo:hi:hi]
				for j, u := range s.nbrs[v] {
					// u→v delivery: u is charged for its honest copy, v
					// receives the (possibly corrupted) one.
					got[j], _ = s.deliver(planeExchange, st.Round, u, v, msgs[u])
				}
				if st.Chal {
					s.views[v].NeighborChallenges = append(s.views[v].NeighborChallenges, got)
				} else {
					s.views[v].NeighborResponses = append(s.views[v].NeighborResponses, got)
				}
			}

		case StepDecide:
			for v := 0; v < n; v++ {
				if rerr := s.nodeDecide(v); rerr != nil {
					return rerr
				}
			}
		}
	}
	return nil
}
