package experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/wire"
)

// EngineBench is the allocation budget of the engine's reference
// workload: the same one-echo-round, 256-node-cycle protocol the
// BenchmarkEngineSequential micro-benchmark times. allocs/op is a pure
// function of the engine's code (the run-state pool is an explicit
// freelist, not a GC-cleared sync.Pool), so the figure is reproducible
// and belongs in the canonical block of dip-bench/v1 files — where
// `dipbench -bench-check` can diff it against a fresh measurement and
// fail on regressions.
type EngineBench struct {
	// Workload names the measured configuration.
	Workload string `json:"workload"`
	// Nodes is the cycle size of the workload graph.
	Nodes int `json:"nodes"`
	// Trials is the number of measured runs (after one warmup run).
	Trials int `json:"trials"`
	// AllocsPerOp is the steady-state heap allocations per engine run.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// engineBenchNodes matches BenchmarkEngineSequential's graph size.
const engineBenchNodes = 256

// engineBenchTrials is enough to amortize any pool-warming remainder
// while keeping the measurement under ~100ms.
const engineBenchTrials = 50

// MeasureEngineAllocs replays the engine micro-benchmark workload under
// testing.AllocsPerRun: a 256-node cycle running one Arthur echo round
// (32-bit challenges) and one Merlin echo response on the sequential
// executor, a fresh seed per run. AllocsPerRun performs one untimed
// warmup call, which also warms the run-state pool, so the reported
// figure is the steady state the trial harness actually sees.
func MeasureEngineAllocs() (*EngineBench, error) {
	g := graph.Cycle(engineBenchNodes)
	spec := &network.Spec{
		Name: "bench-echo",
		Rounds: []network.Round{
			{Kind: network.Arthur, Challenge: func(_ int, rng *rand.Rand, _ *network.NodeView) wire.Message {
				var w wire.Writer
				w.WriteUint(rng.Uint64()&0xFFFFFFFF, 32)
				return w.Message()
			}},
			{Kind: network.Merlin},
		},
		Decide: func(int, *network.NodeView) bool { return true },
	}
	prover := engineBenchProver{}

	var seed int64
	var runErr error
	allocs := testing.AllocsPerRun(engineBenchTrials, func() {
		if runErr != nil {
			return
		}
		opts := network.Options{Seed: seed}
		seed++
		if _, err := network.Run(spec, g, nil, prover, opts); err != nil {
			runErr = err
		}
	})
	if runErr != nil {
		return nil, fmt.Errorf("engine bench run: %w", runErr)
	}
	return &EngineBench{
		Workload:    "sequential echo round, cycle graph",
		Nodes:       engineBenchNodes,
		Trials:      engineBenchTrials,
		AllocsPerOp: allocs,
	}, nil
}

// engineBenchProver echoes each node's last challenge, like the
// micro-benchmark's prover.
type engineBenchProver struct{}

func (engineBenchProver) Respond(_ int, view *network.ProverView) (*network.Response, error) {
	last := view.Challenges[len(view.Challenges)-1]
	resp := &network.Response{PerNode: make([]wire.Message, len(last))}
	copy(resp.PerNode, last)
	return resp, nil
}

// AllocRegressionLimit is the relative allocs/op growth -bench-check
// tolerates before failing: 10%.
const AllocRegressionLimit = 0.10

// CheckEngineAllocs compares a fresh measurement against a recorded
// budget and returns an error when the measurement exceeds the budget by
// more than AllocRegressionLimit. Improvements (fewer allocations) pass;
// the caller decides whether to re-record the budget.
func CheckEngineAllocs(recorded *EngineBench, measured *EngineBench) error {
	if recorded == nil {
		return fmt.Errorf("engine bench: results file has no engine_bench record to check against")
	}
	if recorded.AllocsPerOp <= 0 {
		return fmt.Errorf("engine bench: recorded allocs/op %v is not positive", recorded.AllocsPerOp)
	}
	limit := recorded.AllocsPerOp * (1 + AllocRegressionLimit)
	if measured.AllocsPerOp > limit {
		return fmt.Errorf("engine bench: %.1f allocs/op exceeds recorded %.1f by more than %d%% (limit %.1f)",
			measured.AllocsPerOp, recorded.AllocsPerOp, int(AllocRegressionLimit*100), limit)
	}
	return nil
}
