// Separation: the exponential gap between "distributed NP" and
// distributed AM (Theorem 1.2).
//
// The Dumbbell Symmetry language DSym (Definition 5) fixes the candidate
// automorphism, which kills the commitment round: a single Arthur-Merlin
// exchange with an O(log n)-bit hash suffices. Without interaction, the
// same language provably needs Ω(n²)-bit advice ([17]). This example runs
// both on the same instances and prints the widening gap.
//
//	go run ./examples/separation
package main

import (
	"fmt"
	"log"
	"math/rand"

	"dip"
	"dip/internal/graph"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	fmt.Println("DSym: interactive O(log n) vs non-interactive Θ(n²)")
	fmt.Printf("%8s  %14s  %14s  %8s\n", "vertices", "dAM bits/node", "LCP bits/node", "ratio")

	for _, side := range []int{6, 12, 24, 48} {
		const half = 1
		f := graph.ConnectedGNP(side, 0.5, rng)
		g := graph.DSymGraph(f, half)
		edges := g.Edges()

		rep, err := dip.Run(dip.Request{Protocol: "dsym-dam", Side: side, Half: half, Edges: edges,
			Options: dip.Options{Seed: 7}})
		if err != nil {
			log.Fatal(err)
		}
		if !rep.Accepted {
			log.Fatalf("dAM rejected a DSym instance (side %d)", side)
		}

		lcpBits, err := dip.SymmetryAdviceBits(g.N())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8d  %14d  %14d  %7.1fx\n",
			g.N(), rep.MaxProverBits, lcpBits, float64(lcpBits)/float64(rep.MaxProverBits))
	}
	fmt.Println("\nthe ratio grows ~ n²/log n: interaction is exponentially cheaper")
}
