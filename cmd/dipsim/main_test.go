package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dip"
	"dip/internal/core"
	"dip/internal/obs"
)

// TestMakeGraphValidatesRandomKinds is the regression test for the
// silent-resize bug: unsatisfiable -n values must error instead of
// producing a graph of a different size.
func TestMakeGraphValidatesRandomKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		kind string
		n    int
		want string // substring of the error; "" = must succeed with g.N()==n
	}{
		{"doubled", 12, "at least 14"},
		{"doubled", 15, "even size"},
		{"doubled", 14, ""},
		{"doubled", 16, ""},
		{"asymmetric", 4, "at least 6"},
		{"asymmetric", 6, ""},
		{"nonsense", 10, "unknown graph kind"},
		// Sizes the deterministic generators would panic on, or that the
		// service would refuse after the graph is already allocated.
		{"cycle", 2, "at least 3"},
		{"cycle", 3, ""},
		{"complete", -1, "outside [1, 1024]"},
		{"star", -1, "outside [1, 1024]"},
		{"path", -1, "outside [1, 1024]"},
		{"path", 0, "outside [1, 1024]"},
		{"path", 1, ""},
		{"complete", dip.MaxVertices + 1, "outside [1, 1024]"},
	}
	for _, tc := range cases {
		g, err := makeGraph(tc.kind, tc.n, rng)
		if tc.want != "" {
			if err == nil {
				t.Fatalf("makeGraph(%q, %d) succeeded, want error", tc.kind, tc.n)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("makeGraph(%q, %d) error %q, want mention of %q", tc.kind, tc.n, err, tc.want)
			}
			continue
		}
		if err != nil {
			t.Fatalf("makeGraph(%q, %d): %v", tc.kind, tc.n, err)
		}
		if g.N() != tc.n {
			t.Fatalf("makeGraph(%q, %d) built %d vertices, want exactly %d", tc.kind, tc.n, g.N(), tc.n)
		}
	}
}

// TestRunReportsGraphErrors drives the CLI entry point end to end with
// unsatisfiable sizes: each must be a usage error, not a generator panic.
func TestRunReportsGraphErrors(t *testing.T) {
	cases := []struct {
		o    simOptions
		want string
	}{
		{simOptions{protocol: "sym-dmam", kind: "doubled", n: 12}, "at least 14"},
		{simOptions{protocol: "sym-dmam", kind: "cycle", n: 2}, "at least 3"},
		{simOptions{protocol: "sym-dam", kind: "complete", n: -1}, "outside [1, 1024]"},
		{simOptions{protocol: "dsym-dam", side: 0, half: 1}, "invalid parameters side=0"},
		{simOptions{protocol: "dsym-dam", side: 4, half: -1}, "invalid parameters side=4 half=-1"},
		{simOptions{protocol: "dsym-dam", side: 300, half: 300}, "cap of 1024 vertices"},
	}
	for _, tc := range cases {
		tc.o.seed = 1
		var out bytes.Buffer
		if err := run(tc.o, &out); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("run(%+v) returned %v, want an error mentioning %q", tc.o, err, tc.want)
		}
	}
}

// TestKFlagDefaultsToSharedConstant pins the -k default to the shared
// repetition constant (it used to be an out-of-sync literal 30 while the
// library used 40).
func TestKFlagDefaultsToSharedConstant(t *testing.T) {
	o := parseFlags(nil)
	if o.k != core.DefaultGNIRepetitions {
		t.Fatalf("-k default = %d, want core.DefaultGNIRepetitions (%d)", o.k, core.DefaultGNIRepetitions)
	}
}

// TestRunEmitsJSON smoke-tests the machine-readable output: a valid
// dip-report/v1 document with per-round prover bits that sum to the
// aggregate (Validate re-checks the full invariant set).
func TestRunEmitsJSON(t *testing.T) {
	var out bytes.Buffer
	o := simOptions{protocol: "sym-dmam", kind: "cycle", n: 8, k: 1, seed: 1, jsonPath: "-"}
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	start := strings.Index(text, "{")
	if start < 0 {
		t.Fatalf("no JSON in output:\n%s", text)
	}
	rec, err := dip.DecodeWireReport(strings.NewReader(text[start:]))
	if err != nil {
		t.Fatalf("bad dip-report/v1 document: %v\n%s", err, text[start:])
	}
	if rec.Schema != dip.ReportSchema {
		t.Fatalf("schema %q, want %q", rec.Schema, dip.ReportSchema)
	}
	if rec.Protocol != "sym-dmam" || rec.Nodes != 8 || len(rec.PerRound) == 0 {
		t.Fatalf("malformed record: %+v", rec)
	}
	if rec.Graph == "" {
		t.Fatalf("graph provenance missing: %+v", rec)
	}
	sum := 0
	for _, r := range rec.PerRound {
		sum += r.ToProver + r.FromProver
	}
	if sum != rec.MaxProverBits {
		t.Fatalf("per-round sum %d != max_prover_bits %d", sum, rec.MaxProverBits)
	}
	if !strings.Contains(text, "per-round bits at node") {
		t.Fatalf("human-readable per-round section missing:\n%s", text)
	}
}

// TestRunMatchesDipRun pins dipsim's plain path to the public API: the
// JSON document dipsim emits must agree with dip.Run on the request
// dipsim reports having executed.
func TestRunMatchesDipRun(t *testing.T) {
	var out bytes.Buffer
	o := simOptions{protocol: "sym-dam", kind: "cycle", n: 10, seed: 7, jsonPath: "-"}
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	rec, err := dip.DecodeWireReport(strings.NewReader(text[strings.Index(text, "{"):]))
	if err != nil {
		t.Fatal(err)
	}
	edges := make([][2]int, 10)
	for i := 0; i < 10; i++ {
		edges[i] = [2]int{i, (i + 1) % 10}
	}
	rep, err := dip.Run(dip.Request{Protocol: "sym-dam", N: 10, Edges: edges, Options: dip.Options{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	want := dip.WireReportFrom(rep, 7)
	if rec.Accepted != want.Accepted || rec.MaxProverBits != want.MaxProverBits ||
		rec.TotalProverBits != want.TotalProverBits || rec.MaxNode != want.MaxNode {
		t.Fatalf("dipsim document %+v disagrees with dip.Run %+v", rec, want)
	}
	a, _ := json.Marshal(rec.PerRound)
	b, _ := json.Marshal(want.PerRound)
	if !bytes.Equal(a, b) {
		t.Fatalf("per-round breakdowns differ: %s vs %s", a, b)
	}

	// Every protocol spelling: the engine path (-v, which drives the
	// engine on the registry's assembled run) and the plain path (dip.Run)
	// emit the same document. -k 0 selects the default repetition count
	// on both.
	for name, o := range map[string]simOptions{
		"sym-dmam":      {protocol: "sym-dmam", kind: "cycle", n: 8},
		"sym-dam":       {protocol: "sym-dam", kind: "doubled", n: 14},
		"sym-rpls":      {protocol: "sym-rpls", kind: "star", n: 8},
		"sym-lcp":       {protocol: "sym-lcp", kind: "path", n: 8},
		"dsym-dam":      {protocol: "dsym-dam", side: 4, half: 1},
		"gni":           {protocol: "gni", n: 6, k: 4},
		"gni-default-k": {protocol: "gni", n: 6, k: 0},
		"gni-lcp":       {protocol: "gni-lcp", n: 6},
		"gni-marked":    {protocol: "gni-marked", n: 6, k: 4},
	} {
		t.Run(name, func(t *testing.T) {
			o.seed = 3
			plain := runDocument(t, o)
			o.verbose = true
			if engine := runDocument(t, o); !bytes.Equal(plain, engine) {
				t.Fatalf("engine path document differs from the plain path's:\n%s\n%s", engine, plain)
			}
		})
	}
}

// runDocument runs dipsim and returns the dip-report/v1 document it
// writes, with the process-wide delivery meters zeroed first so that
// they count this run alone.
func runDocument(t *testing.T, o simOptions) []byte {
	t.Helper()
	o.jsonPath = filepath.Join(t.TempDir(), "report.json")
	obs.Reset()
	if err := run(o, io.Discard); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(o.jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestRunWithFault drives the -fault path: an honest sym-dam run with
// every prover message bit-flipped must be rejected, and the JSON record
// must carry the fault configuration.
func TestRunWithFault(t *testing.T) {
	var out bytes.Buffer
	o := simOptions{protocol: "sym-dam", kind: "doubled", n: 14, seed: 1, jsonPath: "-",
		fault: "bitflip", faultPlane: "prover", faultProb: 1}
	if err := run(o, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "fault: bitflip on prover plane") {
		t.Fatalf("fault banner missing:\n%s", text)
	}
	rec, err := dip.DecodeWireReport(strings.NewReader(text[strings.Index(text, "{"):]))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Accepted {
		t.Fatal("bit-flipped sym-dam run was accepted")
	}
	if len(rec.RejectingNodes) == 0 {
		t.Fatalf("rejected run lists no rejecting nodes: %+v", rec)
	}
	if rec.Fault != "bitflip" || rec.FaultPlane != "prover" || rec.FaultProb != 1 {
		t.Fatalf("fault fields not recorded: %+v", rec)
	}
}

// TestRunRejectsBadFaultFlags covers the -fault validation paths.
func TestRunRejectsBadFaultFlags(t *testing.T) {
	cases := []struct {
		name string
		o    simOptions
		want string
	}{
		{"unknown class", simOptions{fault: "gamma-ray"}, "unknown fault class"},
		{"unknown plane", simOptions{fault: "bitflip", faultPlane: "carrier"}, "unknown fault plane"},
		{"unsupported plane", simOptions{fault: "nodeswap", faultPlane: "exchange"}, "does not support"},
		{"bad prob", simOptions{fault: "bitflip", faultPlane: "prover", faultProb: 2}, "outside [0, 1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.o.protocol = "sym-dam"
			tc.o.kind = "doubled"
			tc.o.n = 14
			tc.o.seed = 1
			var out bytes.Buffer
			err := run(tc.o, &out)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run returned %v, want error containing %q", err, tc.want)
			}
		})
	}
}
