package core

import (
	"math/big"
	"math/rand"
	"testing"

	"dip/internal/graph"
	"dip/internal/hashing"
	"dip/internal/network"
	"dip/internal/setupcache"
)

// TestProverAndVerifiersShareRowTable runs the three symmetry protocols
// with their honest provers and checks that an in-process run builds the
// echoed index's row table once: after the prover's last Respond, the
// memo its ProverView carries must answer kit.rowTable(memo, i) without a
// build, and every node's Decide must get that same table from its view's
// memo. The probe counts the builds a lookup would make.
func TestProverAndVerifiersShareRowTable(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	cycle := graph.Cycle(12)
	dmam, err := NewSymDMAM(cycle.N(), 1)
	if err != nil {
		t.Fatal(err)
	}
	dam, err := NewSymDAM(cycle.N(), 1)
	if err != nil {
		t.Fatal(err)
	}
	dsymG := graph.DSymGraph(graph.ConnectedGNP(5, 0.5, rng), 1)
	dsym, err := NewDSymDAM(5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	honestRoot := func(kit *symKit, g *graph.Graph) int {
		_, root := kit.honestMapping(setupcache.ForGraph(g))
		return root
	}
	for _, tc := range []struct {
		name   string
		kit    *symKit
		spec   *network.Spec
		prover network.Prover
		g      *graph.Graph
		root   int
		last   int // the Merlin round that sends the subtree sums
	}{
		{"sym-dmam", &dmam.symKit, dmam.Spec(), dmam.HonestProver(), cycle, honestRoot(&dmam.symKit, cycle), 1},
		{"sym-dam", &dam.symKit, dam.Spec(), dam.HonestProver(), cycle, honestRoot(&dam.symKit, cycle), 0},
		{"dsym-dam", &dsym.symKit, dsym.Spec(), dsym.HonestProver(), dsymG, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kit := tc.kit
			builds := 0
			var i *big.Int
			probe := func(memo *network.Memo) *hashing.RowTable {
				return network.Memoize(memo, kit, network.FieldKey(i), func() *hashing.RowTable {
					builds++
					return kit.family.RowTable(i, kit.n)
				})
			}
			var proverTab *hashing.RowTable
			prover := proverFunc(func(round int, view *network.ProverView) (*network.Response, error) {
				if view.Memo == nil {
					t.Fatal("the engine handed the prover no memo")
				}
				resp, err := tc.prover.Respond(round, view)
				if err != nil || round != tc.last {
					return resp, err
				}
				if i, err = kit.rootIndex(view, tc.root); err != nil {
					t.Fatal(err)
				}
				proverTab = probe(view.Memo)
				if builds != 0 {
					t.Fatalf("after the prover's Respond, the memo had no table for i: %d build(s)", builds)
				}
				if got := kit.rowTable(view.Memo, i); got != proverTab {
					t.Fatal("kit.rowTable returned a table other than the prover's")
				}
				return resp, nil
			})
			spec := *tc.spec
			spec.Decide = func(v int, view *network.NodeView) bool {
				if got := probe(view.Memo); got != proverTab {
					t.Errorf("node %d: the memo's table is not the prover's", v)
				}
				return tc.spec.Decide(v, view)
			}
			res, err := network.Run(&spec, tc.g, nil, prover, network.Options{Seed: 41})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Accepted {
				t.Fatal("honest run rejected")
			}
			if proverTab == nil || builds != 0 {
				t.Fatalf("prover table %v, %d build(s) in the run; want the prover's table and none", proverTab != nil, builds)
			}
		})
	}
}
