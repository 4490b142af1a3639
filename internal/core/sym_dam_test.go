package core

import (
	"math/rand"
	"slices"
	"testing"

	"dip/internal/faults"
	"dip/internal/network"
	"dip/internal/wire"
)

// referenceSymDAMDecide is the broadcast rule SymDAM.decide replaced:
// every neighbor's message is decoded in full and its ρ, echo and root
// compared field by field with the node's own. It is kept here as the
// reference the bit-level prefix comparison must agree with.
func referenceSymDAMDecide(s *SymDAM, v int, view *network.NodeView) bool {
	if view.NumVertices != s.n {
		return false
	}
	msg, err := s.decode(view.Responses[0])
	if err != nil {
		return false
	}
	nbrs := make([]symShare, len(view.Neighbors))
	for j, u := range view.Neighbors {
		nm, err := s.decode(view.NeighborResponses[0][j])
		if err != nil || nm.root != msg.root || nm.echo.Cmp(msg.echo) != 0 || !slices.Equal(nm.rho, msg.rho) {
			return false
		}
		nbrs[j] = symShare{tree: nm.tree, image: msg.rho[u], a: nm.a, b: nm.b}
	}
	own := symShare{tree: msg.tree, image: msg.rho[v], a: msg.a, b: msg.b}
	return s.verify(v, msg.root, msg.echo, own, nbrs, view)
}

// messageVariants returns m altered in the ways a faulty link or prover
// can alter it: every single-bit flip, one bit cut off the end (the cut
// bit left set in the data, as faults.Truncate leaves it), one bit added
// (0 or 1), the padding past Bits set, and faults.Truncate's half.
func messageVariants(m wire.Message) []wire.Message {
	clone := func(bits int) wire.Message {
		data := make([]byte, (bits+7)/8)
		copy(data, m.Data)
		return wire.Message{Data: data, Bits: bits}
	}
	var out []wire.Message
	for j := 0; j < m.Bits; j++ {
		f := clone(m.Bits)
		f.Data[j/8] ^= 1 << (j % 8)
		out = append(out, f)
	}
	out = append(out, clone(m.Bits-1))
	for _, bit := range []byte{0, 1} {
		f := clone(m.Bits + 1)
		f.Data[m.Bits/8] |= bit << (m.Bits % 8)
		out = append(out, f)
	}
	if m.Bits%8 != 0 {
		f := clone(m.Bits)
		f.Data[len(f.Data)-1] |= 0xFF << (m.Bits % 8)
		out = append(out, f)
	}
	return append(out, faults.Truncate()(nil, faults.Context{}, m))
}

// TestSymDAMBroadcastCheckMatchesDecodeRule checks that comparing the
// broadcast prefix bit for bit decides as decoding every neighbor in full
// did: on an honest 16-node run, every node's verdict under each variant
// of each neighbor's message equals the reference rule's.
func TestSymDAMBroadcastCheckMatchesDecodeRule(t *testing.T) {
	g := symmetricGraph(t, 7, 25)
	n := g.N()
	s, err := NewSymDAM(n, 25)
	if err != nil {
		t.Fatal(err)
	}
	round := s.hashIndexRound()
	challenges := make([]wire.Message, n)
	for v := range challenges {
		challenges[v] = round.Challenge(v, rand.New(rand.NewSource(int64(v))), nil)
	}
	resp, err := s.HonestProver().Respond(0, &network.ProverView{Graph: g, Challenges: [][]wire.Message{challenges}})
	if err != nil {
		t.Fatal(err)
	}
	msgs := resp.PerNode
	view := func(v int) *network.NodeView {
		nbrs := g.Neighbors(v)
		copies := make([]wire.Message, len(nbrs))
		for j, u := range nbrs {
			copies[j] = msgs[u]
		}
		return &network.NodeView{
			V: v, NumVertices: n, Neighbors: nbrs,
			MyChallenges:      []wire.Message{challenges[v]},
			Responses:         []wire.Message{msgs[v]},
			NeighborResponses: [][]wire.Message{copies},
		}
	}
	verdicts := map[bool]int{}
	for v := 0; v < n; v++ {
		nv := view(v)
		if !s.decide(v, nv) || !referenceSymDAMDecide(s, v, nv) {
			t.Fatalf("node %d rejects the honest run", v)
		}
		for j, u := range nv.Neighbors {
			for k, m := range messageVariants(msgs[u]) {
				nv.NeighborResponses[0][j] = m
				got, want := s.decide(v, nv), referenceSymDAMDecide(s, v, nv)
				if got != want {
					t.Fatalf("node %d, neighbor %d, variant %d (%d bits): decide = %v, reference %v", v, u, k, m.Bits, got, want)
				}
				verdicts[got]++
			}
			nv.NeighborResponses[0][j] = msgs[u]
		}
	}
	// Flips in a non-child's a and b, and in padding, leave the node
	// accepting; every other variant makes it reject.
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("verdicts %v: want both outcomes among the variants", verdicts)
	}
	t.Logf("%d variants accepted, %d rejected, as the reference", verdicts[true], verdicts[false])
}
