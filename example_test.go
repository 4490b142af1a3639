package dip_test

import (
	"fmt"

	"dip"
)

// A ring is symmetric: rotating it by one position is a non-trivial
// automorphism. Protocol 1 (sym-dmam) proves this interactively in
// O(log n) bits per node.
func ExampleRun() {
	const n = 8
	var edges [][2]int
	for v := 0; v < n; v++ {
		edges = append(edges, [2]int{v, (v + 1) % n})
	}
	rep, err := dip.Run(dip.Request{Protocol: "sym-dmam", N: n, Edges: edges,
		Options: dip.Options{Seed: 1}})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(rep.Protocol, rep.Accepted)
	// Output: sym-dmam true
}

// A star has many symmetries; the centralized ground-truth helper agrees
// with the protocol.
func ExampleIsSymmetric() {
	edges := [][2]int{{0, 1}, {0, 2}, {0, 3}}
	sym, err := dip.IsSymmetric(4, edges)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(sym)
	// Output: true
}

// Two paths of the same length are isomorphic regardless of labeling.
func ExampleAreIsomorphic() {
	p1 := [][2]int{{0, 1}, {1, 2}, {2, 3}}
	p2 := [][2]int{{3, 1}, {1, 0}, {0, 2}}
	iso, err := dip.AreIsomorphic(4, p1, p2)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(iso)
	// Output: true
}
