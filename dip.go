// Package dip is the public facade of the interactive-distributed-proofs
// library: a reproduction of "Interactive Distributed Proofs" (Kol, Oshman,
// Saxena; PODC 2018).
//
// The paper's model: n network nodes, connected by a graph, interact over a
// constant number of rounds with a single all-seeing but untrusted prover
// to decide whether the graph satisfies a property; each node sees only its
// own neighborhood and the prover messages delivered to itself and its
// neighbors; the cost of a protocol is the number of bits each node
// exchanges with the prover.
//
// Every protocol is reachable through one entry point: build a Request
// (protocol name, graph as an edge list, options) and call Run — or
// RunContext to bound the run by a context. Protocols lists the registry.
// The full machinery — the proof engine, the hash families, graph
// generators, adversarial provers, the lower-bound framework and the
// experiment harness — lives in the internal packages and is exercised by
// the examples, the experiment binary (cmd/dipbench), the verification
// service (cmd/dipserve) and the benchmark suite.
package dip

import (
	"time"

	"dip/internal/core"
	"dip/internal/graph"
	"dip/internal/network"
)

// Options configure a protocol run. The JSON form is part of the
// dip-report/v1 request wire format consumed by cmd/dipserve.
type Options struct {
	// Seed makes runs reproducible: equal seeds (with the same inputs)
	// yield identical node randomness. sym-dmam, dsym-dam, sym-rpls and
	// the GNI protocols that hash (gni-damam, gni-general, gni-marked)
	// also pick their primes from Seed; sym-dam's modulus depends only on
	// n, and sym-lcp and gni-lcp hash nothing.
	Seed int64 `json:"seed"`
	// Repetitions is the parallel-repetition count of the GNI protocols
	// (ignored elsewhere). 0 selects core.DefaultGNIRepetitions; every
	// protocol rejects negative values and values above MaxRepetitions
	// with an error.
	Repetitions int `json:"repetitions,omitempty"`
	// Timeout, when positive, bounds the prover's per-round response time
	// (plumbed to the engine's ProverTimeout): a prover that has not
	// answered within it aborts the run with a structured engine error
	// instead of hanging the caller. 0 means no bound; negative values are
	// rejected with an error. The field name carries the unit so the wire
	// form stays unambiguous.
	Timeout time.Duration `json:"timeout_ns,omitempty"`
}

// resolveRepetitions maps a validated Options.Repetitions onto a concrete
// count: 0 selects the shared default (entry.validate has refused
// negatives and counts above MaxRepetitions).
func resolveRepetitions(reps int) int {
	if reps == 0 {
		return core.DefaultGNIRepetitions
	}
	return reps
}

// resolveTimeout validates Options.Timeout: 0 disables the bound,
// negatives are invalid.
func resolveTimeout(d time.Duration) (time.Duration, error) {
	if d < 0 {
		return 0, badRequestf("dip: Timeout must be non-negative, got %v (0 disables the prover deadline)", d)
	}
	return d, nil
}

// Report summarizes a protocol run.
type Report struct {
	// Protocol is the protocol's name, e.g. "sym-dmam".
	Protocol string
	// Accepted is true iff every node accepted. On yes-instances with the
	// honest prover this holds with probability > 2/3 (for the protocols
	// here: essentially always); on no-instances no prover pushes it above
	// 1/3.
	Accepted bool
	// Decisions holds the per-node outputs.
	Decisions []bool
	// MaxProverBits is the paper's cost measure: the maximum over nodes of
	// bits exchanged with the prover, challenges included.
	MaxProverBits int
	// TotalProverBits sums prover-communication bits over all nodes.
	TotalProverBits int
	// MaxNodeToNodeBits is the largest number of bits any node sent to its
	// neighbors.
	MaxNodeToNodeBits int
	// MaxNode is the lowest-indexed node attaining MaxProverBits; the
	// per-round breakdown below is taken at this node, so its prover-bit
	// entries sum exactly to MaxProverBits.
	MaxNode int
	// PerRound is the round-by-round cost at MaxNode, one entry per round
	// of the protocol's schedule.
	PerRound []RoundCost
}

// RoundCost is one round of Report.PerRound: the bits MaxNode exchanged on
// each plane during that round.
type RoundCost struct {
	// Kind is "Arthur" or "Merlin".
	Kind string `json:"kind"`
	// ToProver counts challenge bits sent to the prover in this round.
	ToProver int `json:"to_prover"`
	// FromProver counts response bits received from the prover.
	FromProver int `json:"from_prover"`
	// NodeToNode counts bits forwarded to neighbors.
	NodeToNode int `json:"node_to_node"`
}

// ReportFromResult shapes a raw engine result into a Report. It exists for
// in-module tools (cmd/dipsim) that drive the engine directly — for fault
// injection or transcript recording — but emit the same Report and
// dip-report/v1 document as Run. network is an internal package, so the
// signature is unusable outside this module.
func ReportFromResult(name string, res *network.Result) Report {
	return report(name, res)
}

func report(name string, res *network.Result) Report {
	v := res.Cost.ArgMaxProverNode()
	perRound := make([]RoundCost, len(res.Cost.PerRound))
	for k := range res.Cost.PerRound {
		r := &res.Cost.PerRound[k]
		perRound[k] = RoundCost{
			Kind:       r.Kind.String(),
			ToProver:   r.ToProver[v],
			FromProver: r.FromProver[v],
			NodeToNode: r.NodeToNode[v],
		}
	}
	return Report{
		Protocol:          name,
		Accepted:          res.Accepted,
		Decisions:         res.Decisions,
		MaxProverBits:     res.Cost.MaxProverBits(),
		TotalProverBits:   res.Cost.TotalProverBits(),
		MaxNodeToNodeBits: res.Cost.MaxNodeToNodeBits(),
		MaxNode:           v,
		PerRound:          perRound,
	}
}

// buildGraph validates an edge list and builds the graph.
func buildGraph(n int, edges [][2]int) (*graph.Graph, error) {
	if n < 1 {
		return nil, badRequestf("dip: graph needs at least one vertex, got %d", n)
	}
	g := graph.New(n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, badRequestf("dip: edge {%d,%d} outside vertex range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, badRequestf("dip: self-loop at %d", u)
		}
		g.AddEdge(u, v)
	}
	return g, nil
}

// SymmetryAdviceBits returns the per-node advice length of the
// non-interactive ("distributed NP") baseline for symmetry — the Θ(n²)
// cost that Theorems 1.1–1.2 beat exponentially.
func SymmetryAdviceBits(n int) (int, error) {
	lcp, err := core.NewSymLCP(n)
	if err != nil {
		return 0, err
	}
	return lcp.AdviceBits(), nil
}

// IsSymmetric decides symmetry centrally (no protocol): a ground-truth
// helper for building scenarios and checking protocol outcomes.
func IsSymmetric(n int, edges [][2]int) (bool, error) {
	g, err := buildGraph(n, edges)
	if err != nil {
		return false, err
	}
	return graph.FindNontrivialAutomorphism(g) != nil, nil
}

// AreIsomorphic decides isomorphism centrally (no protocol): the
// ground-truth helper for GNI scenarios.
func AreIsomorphic(n int, edges0, edges1 [][2]int) (bool, error) {
	g0, err := buildGraph(n, edges0)
	if err != nil {
		return false, err
	}
	g1, err := buildGraph(n, edges1)
	if err != nil {
		return false, err
	}
	return graph.AreIsomorphic(g0, g1), nil
}
