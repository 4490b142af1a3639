package dip

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"dip/internal/core"
	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/obs"
)

// TestProtocolRoundsMatchSpecs pins the round counts stated in the registry
// to the actual protocol Specs, so the listing cannot drift when a protocol
// gains or loses a round.
func TestProtocolRoundsMatchSpecs(t *testing.T) {
	specOf := map[string]func() (*network.Spec, error){
		"sym-dmam": func() (*network.Spec, error) {
			p, err := core.NewSymDMAM(8, 1)
			if err != nil {
				return nil, err
			}
			return p.Spec(), nil
		},
		"sym-dam": func() (*network.Spec, error) {
			p, err := core.NewSymDAM(8, 1)
			if err != nil {
				return nil, err
			}
			return p.Spec(), nil
		},
		"dsym-dam": func() (*network.Spec, error) {
			p, err := core.NewDSymDAM(6, 1, 1)
			if err != nil {
				return nil, err
			}
			return p.Spec(), nil
		},
		"sym-lcp": func() (*network.Spec, error) {
			p, err := core.NewSymLCP(8)
			if err != nil {
				return nil, err
			}
			return p.Spec(), nil
		},
		"sym-rpls": func() (*network.Spec, error) {
			p, err := core.NewSymRPLS(8, 1)
			if err != nil {
				return nil, err
			}
			return p.Spec(), nil
		},
		"gni-damam": func() (*network.Spec, error) {
			p, err := core.NewGNIDAMAM(6, 2, 1)
			if err != nil {
				return nil, err
			}
			return p.Spec(), nil
		},
		"gni-general": func() (*network.Spec, error) {
			p, err := core.NewGNIGeneral(6, 2, 1)
			if err != nil {
				return nil, err
			}
			return p.Spec(), nil
		},
		"gni-marked": func() (*network.Spec, error) {
			p, err := core.NewMarkedGNI(14, 6, 2, 1)
			if err != nil {
				return nil, err
			}
			return p.Spec(), nil
		},
		"gni-lcp": func() (*network.Spec, error) {
			p, err := core.NewGNILCP(9)
			if err != nil {
				return nil, err
			}
			return p.Spec(), nil
		},
	}

	infos := Protocols()
	if len(infos) != len(specOf) {
		t.Fatalf("registry lists %d protocols, test covers %d", len(infos), len(specOf))
	}
	for _, info := range infos {
		build, ok := specOf[info.Name]
		if !ok {
			t.Errorf("protocol %q has no spec builder in this test", info.Name)
			continue
		}
		spec, err := build()
		if err != nil {
			t.Errorf("%s: %v", info.Name, err)
			continue
		}
		if got := len(spec.Rounds); got != info.Rounds {
			t.Errorf("%s: registry says %d rounds, Spec has %d", info.Name, info.Rounds, got)
		}
		if info.Family != "sym" && info.Family != "gni" {
			t.Errorf("%s: unknown family %q", info.Name, info.Family)
		}
		if info.Summary == "" {
			t.Errorf("%s: empty summary", info.Name)
		}
	}
}

// TestProtocolsSorted: the listing is sorted by name, so service responses
// and docs are stable.
func TestProtocolsSorted(t *testing.T) {
	infos := Protocols()
	for i := 1; i < len(infos); i++ {
		if infos[i-1].Name >= infos[i].Name {
			t.Fatalf("listing not sorted: %q before %q", infos[i-1].Name, infos[i].Name)
		}
	}
}

// TestRunRejectsUnknownProtocol and friends: dispatch-level validation.
func TestRunRejectsUnknownProtocol(t *testing.T) {
	_, err := Run(Request{Protocol: "sym-quantum", N: 4, Edges: [][2]int{{0, 1}}})
	if err == nil || !strings.Contains(err.Error(), "unknown protocol") {
		t.Fatalf("err = %v, want unknown-protocol error", err)
	}
}

func TestRunRejectsUnusedFields(t *testing.T) {
	cycle := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	type rejectCase struct {
		name string
		req  Request
		want string
	}
	cases := []rejectCase{
		{"edges1 on sym", Request{Protocol: "sym-dmam", N: 4, Edges: cycle, Edges1: cycle}, "takes no Edges1"},
		{"marks on sym", Request{Protocol: "sym-dam", N: 4, Edges: cycle, Marks: []int{0, 0, 1, 1}}, "takes no Marks"},
		{"side on sym", Request{Protocol: "sym-dmam", N: 4, Edges: cycle, Side: 3}, "takes no Side/Half"},
		{"marks on gni pair", Request{Protocol: "gni-damam", N: 4, Edges: cycle, Edges1: cycle, Marks: []int{0}}, "takes no Marks"},
	}
	// A negative repetition count is refused by every protocol, including
	// those that ignore the count.
	for _, p := range Protocols() {
		cases = append(cases, rejectCase{"negative repetitions on " + p.Name,
			Request{Protocol: p.Name, N: 4, Edges: cycle, Options: Options{Repetitions: -1}}, "Repetitions must be non-negative"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(tc.req)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestRunRejectsDisconnectedNetwork: every protocol refuses a network
// graph that is not connected as a request error, before it runs. The
// builders that take n from the request check the graph before they
// build the protocol, so they make no protocol-cache lookup; dsym-dam
// takes n from Side and Half, so it builds its instance first. G₁ of a
// GNI pair is node input, not a network, and may be disconnected.
func TestRunRejectsDisconnectedNetwork(t *testing.T) {
	split := [][2]int{{0, 1}, {2, 3}}
	cycle := edgesOf(graph.Cycle(8))
	marks := []int{0, 0, 1, 1, -1, -1, -1, -1}
	reqs := []Request{
		{Protocol: "sym-dmam", N: 8, Edges: split},
		{Protocol: "sym-dam", N: 8, Edges: split},
		{Protocol: "dsym-dam", Side: 3, Half: 1, Edges: split},
		{Protocol: "sym-lcp", N: 8, Edges: split},
		{Protocol: "sym-rpls", N: 8, Edges: split},
		{Protocol: "gni-damam", N: 8, Edges: split, Edges1: cycle},
		{Protocol: "gni-general", N: 8, Edges: split, Edges1: cycle},
		{Protocol: "gni-marked", N: 8, Edges: split, Marks: marks},
		{Protocol: "gni-lcp", N: 8, Edges: split, Edges1: cycle},
	}
	if len(reqs) != len(Protocols()) {
		t.Fatalf("%d cases for %d protocols", len(reqs), len(Protocols()))
	}
	protos := obs.Cache("protocols")
	for _, req := range reqs {
		t.Run(req.Protocol, func(t *testing.T) {
			before := protos.Hits.Value() + protos.Misses.Value()
			_, err := Run(req)
			var rerr *RequestError
			if !errors.As(err, &rerr) || !strings.Contains(err.Error(), "not connected") {
				t.Fatalf("err = %v, want a RequestError naming the disconnected network", err)
			}
			lookups := protos.Hits.Value() + protos.Misses.Value() - before
			if req.Protocol != "dsym-dam" && lookups != 0 {
				t.Fatalf("%d protocol-cache lookups before the graph was refused", lookups)
			}
		})
	}
	// Only the network must be connected.
	if _, err := Run(Request{Protocol: "gni-lcp", N: 8, Edges: cycle, Edges1: split}); err != nil {
		t.Fatalf("disconnected G₁ refused: %v", err)
	}
}

// TestRunRejectsNegativeTimeout: Options validation matches the
// Repetitions style.
func TestRunRejectsNegativeTimeout(t *testing.T) {
	_, err := Run(Request{Protocol: "sym-dmam", N: 4,
		Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, Options: Options{Timeout: -1}})
	if err == nil || !strings.Contains(err.Error(), "Timeout must be non-negative") {
		t.Fatalf("err = %v, want negative-timeout error", err)
	}
}

// TestRunDSymDAMVertexCount: an explicit N must agree with the dumbbell's
// derived vertex count; 0 defers to it.
func TestRunDSymDAMVertexCount(t *testing.T) {
	proto, err := core.NewDSymDAM(6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	edges := edgesOf(graph.DSymGraph(graph.ConnectedGNP(6, 0.5, rng), 1))
	if _, err := Run(Request{Protocol: "dsym-dam", Side: 6, Half: 1, N: proto.N() + 1, Edges: edges}); err == nil {
		t.Fatal("mismatched N accepted")
	}
	rep, err := Run(Request{Protocol: "dsym-dam", Side: 6, Half: 1, Edges: edges})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Accepted {
		t.Fatal("honest dumbbell run rejected")
	}
	// 2·Side + 2·Half + 1 is capped at MaxVertices, and so is each
	// parameter on its own, before the sum could overflow.
	for _, sh := range [][2]int{{256, 256}, {MaxVertices + 1, 0}, {1, MaxVertices + 1}, {math.MaxInt / 2, math.MaxInt / 2}} {
		_, err := Run(Request{Protocol: "dsym-dam", Side: sh[0], Half: sh[1], Edges: edges})
		if err == nil || !strings.Contains(err.Error(), "cap of 1024 vertices") {
			t.Fatalf("side=%d half=%d returned %v, want the vertex cap", sh[0], sh[1], err)
		}
	}
}

// TestReportPerRound: the per-round breakdown has one entry per round and
// its prover bits sum to MaxProverBits at MaxNode.
func TestReportPerRound(t *testing.T) {
	rep, err := Run(Request{Protocol: "sym-dmam", N: 6,
		Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}, Options: Options{Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PerRound) != 3 {
		t.Fatalf("PerRound has %d entries, want 3", len(rep.PerRound))
	}
	sum := 0
	for _, r := range rep.PerRound {
		if r.Kind != "Arthur" && r.Kind != "Merlin" {
			t.Fatalf("round kind %q", r.Kind)
		}
		sum += r.ToProver + r.FromProver
	}
	if sum != rep.MaxProverBits {
		t.Fatalf("per-round prover bits sum to %d, MaxProverBits = %d", sum, rep.MaxProverBits)
	}
	if rep.MaxNode < 0 || rep.MaxNode >= 6 {
		t.Fatalf("MaxNode = %d", rep.MaxNode)
	}
}
