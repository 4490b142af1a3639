// Extensions: what lies beyond the paper's statements.
//
// Three artifacts this reproduction adds on top of the PODC 2018 results,
// each answering a question the paper raises:
//
//  1. round reduction — the paper asks whether dAMAM protocols can be
//     compressed; our GNI protocol runs in a single Arthur-Merlin exchange;
//
//  2. the asymmetry promise — the paper restricts GNI to rigid graphs; the
//     automorphism-compensated protocol handles any pair, demonstrated on
//     two heavily symmetric graphs;
//
//  3. fingerprinted verification — the randomized proof-labeling schemes
//     the paper compares against ([4]), with measured savings.
//
//     go run ./examples/extensions
package main

import (
	"fmt"
	"log"

	"dip"
	"dip/internal/graph"
)

func main() {
	const n = 6

	// 2. Promise-free GNI on symmetric graphs: a 6-cycle versus K_{3,3}.
	// Both have large automorphism groups (12 and 72), so the paper's
	// protocol's counting argument would break; pair-counting fixes it.
	c6 := graph.Cycle(n)
	k33 := graph.New(n)
	for u := 0; u < n/2; u++ {
		for v := n / 2; v < n; v++ {
			k33.AddEdge(u, v)
		}
	}
	rep, err := dip.Run(dip.Request{Protocol: "gni-general", N: n,
		Edges: c6.Edges(), Edges1: k33.Edges(),
		Options: dip.Options{Seed: 5, Repetitions: 60}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C6 vs K3,3 (both symmetric): %s accepted=%v, %d bits/node\n",
		rep.Protocol, rep.Accepted, rep.MaxProverBits)

	// ... and the same protocol must reject an isomorphic symmetric pair.
	rep2, err := dip.Run(dip.Request{Protocol: "gni-general", N: n,
		Edges: c6.Edges(), Edges1: graph.Cycle(n).Edges(),
		Options: dip.Options{Seed: 6, Repetitions: 60}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C6 vs C6 (isomorphic):       %s accepted=%v\n", rep2.Protocol, rep2.Accepted)

	// 3. Fingerprinted verification: same Θ(n²) advice, tiny neighbor
	// traffic.
	ring := graph.Cycle(48)
	lcp, err := dip.Run(dip.Request{Protocol: "sym-lcp", N: 48, Edges: ring.Edges(),
		Options: dip.Options{Seed: 7}})
	if err != nil {
		log.Fatal(err)
	}
	rpls, err := dip.Run(dip.Request{Protocol: "sym-rpls", N: 48, Edges: ring.Edges(),
		Options: dip.Options{Seed: 7}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnon-interactive certificate on a 48-ring:\n")
	fmt.Printf("  full exchange:   %6d node-to-node bits\n", lcp.MaxNodeToNodeBits)
	fmt.Printf("  fingerprinted:   %6d node-to-node bits (accepted=%v)\n",
		rpls.MaxNodeToNodeBits, rpls.Accepted)

	if !rep.Accepted || rep2.Accepted || !lcp.Accepted || !rpls.Accepted {
		log.Fatal("an extension protocol returned the wrong outcome")
	}
	fmt.Println("\nsee cmd/dipbench -experiment E10 / E11 for the full tables")
}
