package dip

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dip/internal/network"
)

// strippedRequests holds one request per registry protocol with the edge
// lists stripped, the form a dippeer fleet receives in its hello.
func strippedRequests() map[string]Request {
	marks := []int{0, 0, 0, 1, 1, 1}
	return map[string]Request{
		"sym-dmam":    {Protocol: "sym-dmam", N: 8, Options: Options{Seed: 3}},
		"sym-dam":     {Protocol: "sym-dam", N: 8, Options: Options{Seed: 3}},
		"dsym-dam":    {Protocol: "dsym-dam", Side: 6, Half: 1, Options: Options{Seed: 3}},
		"sym-lcp":     {Protocol: "sym-lcp", N: 8},
		"sym-rpls":    {Protocol: "sym-rpls", N: 8, Options: Options{Seed: 3}},
		"gni-damam":   {Protocol: "gni-damam", N: 6, Options: Options{Seed: 3, Repetitions: 2}},
		"gni-general": {Protocol: "gni-general", N: 6, Options: Options{Seed: 3, Repetitions: 2}},
		"gni-marked":  {Protocol: "gni-marked", N: 6, Marks: marks, Options: Options{Seed: 3, Repetitions: 2}},
		"gni-lcp":     {Protocol: "gni-lcp", N: 6},
	}
}

// TestBuildSpecAllProtocols exercises the peer-provisioning path for every
// registry protocol: a request with the edge lists stripped (the form a
// dippeer fleet receives in its handshake) must still rebuild a Spec, and
// repeated builds must agree on the protocol structure — the constructors
// behind them are memoized per (protocol, params, seed), so callbacks in
// both specs close over the same cached instance.
func TestBuildSpecAllProtocols(t *testing.T) {
	stripped := strippedRequests()
	for name, e := range registry {
		req, ok := stripped[name]
		if !ok {
			t.Errorf("no BuildSpec fixture for protocol %q — add one", name)
			continue
		}
		spec, err := BuildSpec(req)
		if err != nil {
			t.Errorf("%s: BuildSpec: %v", name, err)
			continue
		}
		if spec.Name != name {
			t.Errorf("%s: spec named %q", name, spec.Name)
		}
		again, err := e.spec(&req)
		if err != nil {
			t.Errorf("%s: second build: %v", name, err)
			continue
		}
		if err := specsAgree(spec, again); err != nil {
			t.Errorf("%s: rebuilt spec diverges: %v", name, err)
		}
	}
}

// specsAgree reports how two builds of a Spec differ in structure: name,
// round count and kinds, and challenge sharing.
func specsAgree(a, b *network.Spec) error {
	if a.Name != b.Name || len(a.Rounds) != len(b.Rounds) || a.ShareChallenges != b.ShareChallenges {
		return fmt.Errorf("%s: %d rounds share=%v vs %s: %d rounds share=%v",
			a.Name, len(a.Rounds), a.ShareChallenges, b.Name, len(b.Rounds), b.ShareChallenges)
	}
	for i := range a.Rounds {
		if a.Rounds[i].Kind != b.Rounds[i].Kind {
			return fmt.Errorf("round %d kind differs across builds", i)
		}
	}
	return nil
}

func TestBuildSpecRejects(t *testing.T) {
	type rejectCase struct {
		name string
		req  Request
		frag string
	}
	cases := []rejectCase{
		{"unknown", Request{Protocol: "nope"}, "unknown protocol"},
		{"stray-edges1", Request{Protocol: "sym-dmam", N: 4, Edges1: [][2]int{{0, 1}}}, "takes no Edges1"},
		{"stray-marks", Request{Protocol: "sym-dam", N: 4, Marks: []int{0, 0, 1, 1}}, "takes no Marks"},
		{"stray-side", Request{Protocol: "sym-lcp", N: 4, Side: 3}, "takes no Side"},
		{"marks-length", Request{Protocol: "gni-marked", N: 4, Marks: []int{0}}, "marks for"},
		{"bad-mark", Request{Protocol: "gni-marked", N: 2, Marks: []int{0, 7}}, "mark 7"},
		{"unequal-marked-sets", Request{Protocol: "gni-marked", N: 7, Marks: []int{0, 0, 0, 1, 1, 1, 1}}, "sizes 3 and 4"},
		{"vertex-cap", Request{Protocol: "sym-dam", N: MaxVertices + 1}, "cap of 1024 vertices"},
		{"dsym-vertex-cap", Request{Protocol: "dsym-dam", Side: 300, Half: 300}, "cap of 1024 vertices"},
		{"repetition-cap", Request{Protocol: "gni-general", N: 6, Options: Options{Repetitions: MaxRepetitions + 1}}, "cap of 1000"},
	}
	for _, p := range Protocols() {
		cases = append(cases, rejectCase{"negative-repetitions-" + p.Name,
			Request{Protocol: p.Name, N: 6, Options: Options{Repetitions: -1}}, "Repetitions must be non-negative"})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := BuildSpec(tc.req); err == nil || !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("err = %v, want mention of %q", err, tc.frag)
			}
		})
	}
	// The caps are answered as request errors (HTTP 400), on the peer path
	// as on the run path; a request at the cap passes.
	if _, err := BuildSpec(Request{Protocol: "sym-lcp", N: MaxVertices}); err != nil {
		t.Fatalf("n at the cap: %v", err)
	}
	var reqErr *RequestError
	if _, err := BuildSpec(Request{Protocol: "gni-marked", N: MaxVertices + 1}); !errors.As(err, &reqErr) {
		t.Fatalf("vertex cap on BuildSpec returned %v, want a RequestError", err)
	}
}
