package network

import "dip/internal/wire"

// runSequential interprets the round script on the calling goroutine,
// playing every node's half of each step itself. Each node still owns a
// private RNG seeded by mix(Seed, v), so its draws do not depend on which
// executor or host runs it.
func runSequential(s *runState) *RunError {
	n := s.n
	for _, st := range s.script.steps {
		if rerr := s.checkCancel(st.ri); rerr != nil {
			return rerr
		}
		switch st.kind {
		case StepChallenge:
			row := s.chalRows[st.arthur*n : (st.arthur+1)*n]
			for v := 0; v < n; v++ {
				c, rerr := s.nodeChallenge(st.ri, v)
				if rerr != nil {
					return rerr
				}
				m, rerr := s.deliver(planeChallenge, st.ri, v, -1, c)
				if rerr != nil {
					return rerr
				}
				row[v] = m
			}
			s.pv.Challenges = append(s.pv.Challenges, row)
			s.recordRound(Arthur, row)

		case StepRespond:
			resp, rerr := s.callRespond(st.ri, st.merlin)
			if rerr != nil {
				return rerr
			}
			for v := 0; v < n; v++ {
				m, rerr := s.deliver(planeResponse, st.ri, -1, v, resp.PerNode[v])
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
			if st.chal {
				msgs = s.chalRows[st.arthur*n : (st.arthur+1)*n]
			} else if s.spec.Rounds[st.ri].Digest != nil {
				for v := 0; v < n; v++ {
					f, rerr := s.nodeForward(st.ri, v, s.delivered[v])
					if rerr != nil {
						return rerr
					}
					s.forwards[v] = f
				}
				msgs = s.forwards
			} else {
				msgs = s.delivered
			}
			for v := 0; v < n; v++ {
				deg := len(s.nbrs[v])
				var got map[int]wire.Message
				if st.chal {
					got = takeMap(s.nbrChalBack, v*s.script.nA+len(s.views[v].NeighborChallenges), deg)
				} else {
					got = takeMap(s.nbrRespBack, v*s.script.nM+len(s.views[v].NeighborResponses), deg)
				}
				for _, u := range s.nbrs[v] {
					// u→v delivery: u is charged for its honest copy, v
					// receives the (possibly corrupted) one.
					m, _ := s.deliver(planeExchange, st.ri, u, v, msgs[u])
					got[u] = m
				}
				if st.chal {
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
