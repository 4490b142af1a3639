package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"dip"
	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/stats"
	"dip/internal/wire"
)

// AllocBench is the allocation budget of one reference workload. allocs/op
// is a pure function of the code (the run-state pool is an explicit
// freelist, not a GC-cleared sync.Pool), so the figure is reproducible and
// belongs in the canonical block of dip-bench/v1 files — where `dipbench
// -bench-check` can diff it against a fresh measurement and fail on
// regressions.
type AllocBench struct {
	// Workload names the measured configuration.
	Workload string `json:"workload"`
	// Nodes is the cycle size of the workload graph.
	Nodes int `json:"nodes"`
	// Trials is the number of measured runs (after one warmup run).
	Trials int `json:"trials"`
	// AllocsPerOp is the steady-state heap allocations per run.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// allocBenchTrials is enough to amortize any pool-warming remainder while
// keeping each measurement under ~100ms.
const allocBenchTrials = 50

// measureAllocs runs op under testing.AllocsPerRun with a fresh index per
// run. AllocsPerRun performs one untimed warmup call, which also warms
// the run-state pool and the setup caches, so the reported figure is the
// steady state the trial harness and a loaded service actually see.
func measureAllocs(workload string, nodes int, op func(i int64) error) (*AllocBench, error) {
	var i int64
	var runErr error
	allocs := testing.AllocsPerRun(allocBenchTrials, func() {
		if runErr != nil {
			return
		}
		runErr = op(i)
		i++
	})
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", workload, runErr)
	}
	return &AllocBench{Workload: workload, Nodes: nodes, Trials: allocBenchTrials, AllocsPerOp: allocs}, nil
}

// engineBenchNodes matches BenchmarkEngineSequential's graph size.
const engineBenchNodes = 256

// MeasureEngineAllocs replays the engine micro-benchmark workload: a
// 256-node cycle running one Arthur echo round (32-bit challenges) and
// one Merlin echo response on the sequential executor, seed i on run i.
func MeasureEngineAllocs() (*AllocBench, error) {
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
	return measureAllocs("sequential echo round, cycle graph", engineBenchNodes, func(i int64) error {
		_, err := network.Run(spec, g, nil, engineBenchProver{}, network.Options{Seed: i})
		return err
	})
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

// requestBenchNodes matches cmd/dipload's default instance size.
const requestBenchNodes = 64

// MeasureRequestAllocs replays the load generator's reference workload
// through the full request path — dispatch, setup (cached), engine run,
// report assembly: sym-dmam on a 64-vertex cycle with seed
// DeriveSeed(1, i) on run i, exactly what `dipload -protocol sym-dmam -n
// 64` sends. Per-request seeds vary, so protocol construction including
// its prime search is deliberately NOT amortized.
func MeasureRequestAllocs() (*AllocBench, error) {
	edges := graph.Cycle(requestBenchNodes).Edges()
	return measureAllocs("sym-dmam request, cycle graph, fresh seed per run", requestBenchNodes, func(i int64) error {
		_, err := dip.Run(dip.Request{
			Protocol: "sym-dmam",
			N:        requestBenchNodes,
			Edges:    edges,
			Options:  dip.Options{Seed: stats.DeriveSeed(1, i)},
		})
		return err
	})
}

// heavyBenchProtocols is the benchmark's inproc-heavy mix, in the order
// run i takes protocol i mod 3.
var heavyBenchProtocols = [...]string{"sym-dam", "sym-lcp", "sym-rpls"}

// MeasureHeavyAllocs replays the benchmark's inproc-heavy stream through
// the full request path: sym-dam, sym-lcp and sym-rpls round-robin on a
// 64-vertex cycle, seed DeriveSeed(1, i) on run i. A warm-up request of
// each first caches the per-n instances (sym-dam's modulus search is a
// once-per-process cost) and the graph's artifacts, so the figure is what
// a warm server allocates per request; every sym-rpls run still searches
// its own cubic-window prime.
func MeasureHeavyAllocs() (*AllocBench, error) {
	edges := graph.Cycle(requestBenchNodes).Edges()
	op := func(i int64) error {
		_, err := dip.Run(dip.Request{
			Protocol: heavyBenchProtocols[i%int64(len(heavyBenchProtocols))],
			N:        requestBenchNodes,
			Edges:    edges,
			Options:  dip.Options{Seed: stats.DeriveSeed(1, i)},
		})
		return err
	}
	for i := range heavyBenchProtocols {
		if err := op(int64(i)); err != nil {
			return nil, fmt.Errorf("heavy mix warm-up: %w", err)
		}
	}
	// Start from a collected heap, so that the collections inside the
	// measured runs, which empty math/big's pool of temporary nats, fall
	// the same way whatever the process ran before.
	runtime.GC()
	return measureAllocs("sym-dam, sym-lcp, sym-rpls requests round-robin, cycle graph, fresh seed per run", requestBenchNodes, op)
}

// AllocRegressionLimit is the relative allocs/op growth -bench-check
// tolerates before failing: 10%.
const AllocRegressionLimit = 0.10

// CheckAllocs compares a fresh allocs/op measurement against the recorded
// budget named name (the record's JSON key) and returns an error when the
// measurement exceeds the budget by more than AllocRegressionLimit.
// Improvements (fewer allocations) pass; the caller decides whether to
// re-record the budget.
func CheckAllocs(name string, recorded *AllocBench, measured float64) error {
	if recorded == nil {
		return fmt.Errorf("%s: results file has no %s record to check against", name, name)
	}
	if recorded.AllocsPerOp <= 0 {
		return fmt.Errorf("%s: recorded allocs/op %v is not positive", name, recorded.AllocsPerOp)
	}
	limit := recorded.AllocsPerOp * (1 + AllocRegressionLimit)
	if measured > limit {
		return fmt.Errorf("%s: %.1f allocs/op exceeds recorded %.1f by more than %d%% (limit %.1f)",
			name, measured, recorded.AllocsPerOp, int(AllocRegressionLimit*100), limit)
	}
	return nil
}
