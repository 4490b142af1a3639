// Quickstart: prove to a network that its graph is symmetric.
//
// A ring of 64 machines wants a certificate that their topology has a
// non-trivial automorphism, paying only O(log n) bits per machine. The
// untrusted prover (think: the cloud operator who knows the whole topology)
// runs Protocol 1 of Kol-Oshman-Saxena (PODC 2018): it commits to an
// automorphism, the machines jointly pick a random hash, and a spanning
// tree aggregates the hashed adjacency matrix on both sides of the
// commitment.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"dip"
)

func main() {
	// The network: a ring of 64 machines (rings are highly symmetric).
	const n = 64
	var edges [][2]int
	for v := 0; v < n; v++ {
		edges = append(edges, [2]int{v, (v + 1) % n})
	}

	// Ground truth, computed centrally for comparison.
	truth, err := dip.IsSymmetric(n, edges)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ground truth: symmetric = %v\n", truth)

	// The interactive proof: honest prover, O(log n) bits per node.
	rep, err := dip.Run(dip.Request{Protocol: "sym-dmam", N: n, Edges: edges,
		Options: dip.Options{Seed: 42}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("protocol %s: accepted = %v\n", rep.Protocol, rep.Accepted)
	fmt.Printf("cost: %d bits per node to/from the prover (total %d)\n",
		rep.MaxProverBits, rep.TotalProverBits)

	// Compare with the non-interactive baseline: the same certificate
	// without interaction needs the whole adjacency matrix at every node.
	advice, err := dip.SymmetryAdviceBits(n)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("non-interactive baseline would need %d bits per node\n", advice)

	if rep.Accepted != truth {
		log.Fatal("protocol outcome disagrees with ground truth")
	}
	fmt.Println("OK: one round of interaction replaced a quadratic certificate")
}
