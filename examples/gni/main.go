// GNI: a data holder convinces its clients that two communities differ.
//
// This is the paper's motivating scenario (Section 1): a central entity —
// here, a social-network operator — knows the full topology; the members
// of community A form the network graph G₀, and each member also receives
// its row of a second community's graph G₁. The operator claims the two
// community structures are NOT isomorphic (e.g. "your group is organized
// differently from the control group"), and proves it interactively with
// the distributed Goldwasser-Sipser protocol (Theorem 1.5), paying
// O(n log n) bits per member.
//
//	go run ./examples/gni
package main

import (
	"fmt"
	"log"
	"math/rand"

	"dip"
	"dip/internal/graph"
)

func main() {
	const n = 6
	rng := rand.New(rand.NewSource(11))

	// Two rigid (asymmetric) community graphs — the paper's promise.
	communityA, err := graph.RandomAsymmetricConnected(n, rng)
	if err != nil {
		log.Fatal(err)
	}
	communityB, err := graph.RandomAsymmetricConnected(n, rng)
	if err != nil {
		log.Fatal(err)
	}
	for graph.AreIsomorphic(communityA, communityB) {
		if communityB, err = graph.RandomAsymmetricConnected(n, rng); err != nil {
			log.Fatal(err)
		}
	}
	// Hide the relationship behind a random relabeling, as a real data
	// holder would.
	shuffledB, _ := communityB.Shuffle(rng)

	truth, err := dip.AreIsomorphic(n, communityA.Edges(), shuffledB.Edges())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ground truth: isomorphic = %v (claim: non-isomorphic)\n", truth)

	rep, err := dip.Run(dip.Request{Protocol: "gni-damam", N: n,
		Edges: communityA.Edges(), Edges1: shuffledB.Edges(),
		Options: dip.Options{Seed: 11, Repetitions: 40}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("protocol %s: accepted = %v\n", rep.Protocol, rep.Accepted)
	fmt.Printf("cost: %d bits per member (40 repetitions)\n", rep.MaxProverBits)

	// Now let the operator lie: present a relabeled copy of community A
	// itself and claim it is different.
	impostor, _ := communityA.Shuffle(rng)
	lie, err := dip.Run(dip.Request{Protocol: "gni-damam", N: n,
		Edges: communityA.Edges(), Edges1: impostor.Edges(),
		Options: dip.Options{Seed: 12, Repetitions: 40}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lying operator (isomorphic pair): accepted = %v\n", lie.Accepted)

	if rep.Accepted == truth || lie.Accepted {
		log.Fatal("protocol outcomes disagree with ground truth")
	}
	fmt.Println("\nhonest claims pass, fabricated ones fail — without any member seeing the whole graph")
}
