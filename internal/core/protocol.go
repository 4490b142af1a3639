// Package core implements the paper's protocols: the dMAM and dAM
// interactive proofs for graph Symmetry (Protocols 1 and 2, Sections 3.1 and
// 3.2), the dAM protocol for Dumbbell Symmetry (Section 3.3), the
// distributed Goldwasser–Sipser dAMAM protocol for Graph Non-Isomorphism
// (Section 4), the non-interactive "distributed NP" (LCP) baselines they are
// compared against, and the cheating provers used to measure soundness.
//
// Every protocol is expressed as a network.Spec (round schedule plus
// per-node decision function) together with an honest network.Prover. The
// three symmetry protocols embed one Protocol 1 kit (symKit, symkit.go)
// and differ only in their message layout, their broadcast comparison and
// where a node's image ρ(v) comes from; the four GNI protocols embed one
// Goldwasser–Sipser kit (gsKit, gs.go) and differ only in what they
// broadcast and when.
// Running a protocol against its honest prover on a yes-instance must
// accept; running any prover on a no-instance must accept with probability
// below 1/3.
package core

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"

	"dip/internal/spantree"
	"dip/internal/wire"
)

// DefaultGNIRepetitions is the default parallel-repetition count of the
// GNI protocols (dAMAM, promise-free, marked). 40 repetitions push the
// per-repetition constant-gap acceptance difference of the
// Goldwasser–Sipser set-size test far past the paper's 2/3 vs 1/3
// thresholds. Every GNI entry point — dip.Options.Repetitions and the
// cmd/dipsim -k flag alike — resolves its default from this constant, so
// the library and the CLI cannot drift apart.
const DefaultGNIRepetitions = 40

// msgEqual reports whether two wire messages carry identical bit strings.
func msgEqual(a, b wire.Message) bool {
	if a.Bits != b.Bits {
		return false
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			return false
		}
	}
	return true
}

// bigChallenge draws a uniform element of [0, modulus) and encodes it in
// exactly WidthForBig(modulus) bits.
func bigChallenge(rng *rand.Rand, modulus *big.Int) wire.Message {
	v := new(big.Int).Rand(rng, modulus)
	var w wire.Writer
	w.WriteBig(v, wire.WidthForBig(modulus))
	return w.Message()
}

// decodeBigChallenge parses a challenge produced by bigChallenge; it fails
// if the message has the wrong length or the value is outside [0, modulus).
func decodeBigChallenge(m wire.Message, modulus *big.Int) (*big.Int, error) {
	r := wire.NewReader(m)
	v, err := r.ReadBig(wire.WidthForBig(modulus))
	if err != nil {
		return nil, err
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	if v.Cmp(modulus) >= 0 {
		return nil, fmt.Errorf("core: challenge %v out of range", v)
	}
	return v, nil
}

// writeTree writes spanning-tree advice as parent | dist, each a vertex id
// of an n-vertex graph; the root travels in a field of its own or is fixed.
func writeTree(w *wire.Writer, t spantree.Advice, n int) {
	w.WriteInt(t.Parent, wire.WidthFor(n))
	w.WriteInt(t.Dist, wire.WidthFor(n))
}

// readTree reads advice written by writeTree for a tree rooted at root;
// the parent must be a vertex.
func readTree(r *wire.Reader, n, root int) (spantree.Advice, error) {
	t := spantree.Advice{Root: root}
	var err error
	if t.Parent, err = r.ReadInt(wire.WidthFor(n)); err != nil {
		return t, err
	}
	if t.Dist, err = r.ReadInt(wire.WidthFor(n)); err != nil {
		return t, err
	}
	if t.Parent >= n {
		return t, errors.New("core: parent id out of range")
	}
	return t, nil
}
