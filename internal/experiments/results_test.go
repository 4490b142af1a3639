package experiments

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dip/internal/graph"
	"dip/internal/network"
)

// sampleResults builds a small well-formed ResultsFile.
func sampleResults() *ResultsFile {
	return &ResultsFile{
		Schema:     Schema,
		Tool:       "dipbench",
		Seed:       1,
		Quick:      true,
		GoMaxProcs: 4,
		Experiments: []ExperimentResult{{
			ID:      "E1",
			Title:   "demo",
			Columns: []string{"a", "b"},
			Rows:    [][]string{{"1", "2"}},
			Cells: []Cell{{
				Salt:      99,
				Kind:      "protocol",
				Trials:    10,
				Successes: 9,
				Estimate:  Interval{Rate: 0.9, Lo: 0.59, Hi: 0.98},
				Cost: &CostSummary{
					MaxProverBits:     7,
					TotalProverBits:   12,
					MaxNodeToNodeBits: 3,
					MaxNode:           0,
					PerRound: []RoundSummary{
						{Kind: "Arthur", ToProver: 3},
						{Kind: "Merlin", FromProver: 4, NodeToNode: 3},
					},
				},
			}},
		}},
		EngineBench:  &AllocBench{Workload: "echo", Nodes: 256, Trials: 50, AllocsPerOp: 519},
		RequestBench: &AllocBench{Workload: "request", Nodes: 64, Trials: 50, AllocsPerOp: 2547},
		HeavyBench:   &AllocBench{Workload: "heavy", Nodes: 64, Trials: 50, AllocsPerOp: 1359},
	}
}

func TestResultsRoundTrip(t *testing.T) {
	f := sampleResults()
	var buf bytes.Buffer
	if err := f.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResults(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("round trip changed the file:\nin:  %+v\nout: %+v", f, got)
	}
}

func TestResultsValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(*ResultsFile)
		want   string
	}{
		{"wrong-schema", func(f *ResultsFile) { f.Schema = "dip-bench/v0" }, "schema"},
		{"negative-trials-override", func(f *ResultsFile) { f.TrialsOverride = -5 }, "trials_override"},
		{"engine-bench-zero-allocs", func(f *ResultsFile) { f.EngineBench.AllocsPerOp = 0 }, "engine_bench"},
		{"request-bench-negative-allocs", func(f *ResultsFile) { f.RequestBench.AllocsPerOp = -1 }, "request_bench"},
		{"heavy-bench-zero-allocs", func(f *ResultsFile) { f.HeavyBench.AllocsPerOp = 0 }, "heavy_bench"},
		{"empty-id", func(f *ResultsFile) { f.Experiments[0].ID = "" }, "empty ID"},
		{"successes-overflow", func(f *ResultsFile) { f.Experiments[0].Cells[0].Successes = 11 }, "successes"},
		{"interval-out-of-range", func(f *ResultsFile) { f.Experiments[0].Cells[0].Estimate.Hi = 1.5 }, "interval"},
		{"per-round-mismatch", func(f *ResultsFile) { f.Experiments[0].Cells[0].Cost.PerRound[0].ToProver = 4 }, "per-round"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := sampleResults()
			tc.break_(f)
			err := f.Validate()
			if err == nil {
				t.Fatal("malformed file validated")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestRecorderCellsIdenticalAcrossParallel pins the canonical-artifact
// guarantee behind committed BENCH_*.json files: the recorded cells — and
// their encoded bytes — are identical at any worker count.
func TestRecorderCellsIdenticalAcrossParallel(t *testing.T) {
	g := graph.Path(2)
	encode := func(workers int) ([]Cell, []byte) {
		rec := &Recorder{}
		cfg := Config{Seed: 5, Parallel: workers, Recorder: rec}
		if _, err := RunTrials(cfg, 99, 64, coinTrial(g)); err != nil {
			t.Fatal(err)
		}
		if _, err := RunFlagTrials(cfg, 7, 50, func(i int, rng *rand.Rand) (bool, error) {
			return rng.Intn(3) == 0, nil
		}); err != nil {
			t.Fatal(err)
		}
		f := &ResultsFile{
			Schema: Schema, Tool: "dipbench", Seed: 5, GoMaxProcs: 4,
			Experiments: []ExperimentResult{{ID: "T", Title: "t", Cells: rec.Cells()}},
		}
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := f.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return rec.Cells(), buf.Bytes()
	}
	cells1, bytes1 := encode(1)
	if len(cells1) != 2 || cells1[0].Kind != "protocol" || cells1[1].Kind != "flag" {
		t.Fatalf("unexpected cells: %+v", cells1)
	}
	if cells1[0].Cost == nil || len(cells1[0].Cost.PerRound) == 0 {
		t.Fatal("protocol cell has no per-round cost")
	}
	if cells1[1].Cost != nil {
		t.Fatal("flag cell must not carry cost accounting")
	}
	cells8, bytes8 := encode(8)
	if !reflect.DeepEqual(cells1, cells8) {
		t.Fatalf("cells differ across worker counts:\n1: %+v\n8: %+v", cells1, cells8)
	}
	if !bytes.Equal(bytes1, bytes8) {
		t.Fatal("encoded results differ across worker counts")
	}
}

// TestSummarizeCostDecomposesMaxProverBits checks the JSON contract on a
// real run: to_prover + from_prover over the per-round rows sum exactly
// to max_prover_bits.
func TestSummarizeCostDecomposesMaxProverBits(t *testing.T) {
	g := graph.Path(3)
	res, err := network.Run(coinSpec(), g, nil, nopProver{}, network.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s := SummarizeCost(&res.Cost)
	sum := 0
	for _, r := range s.PerRound {
		sum += r.ToProver + r.FromProver
	}
	if sum != s.MaxProverBits {
		t.Fatalf("per-round rows sum to %d, max_prover_bits is %d", sum, s.MaxProverBits)
	}
}
