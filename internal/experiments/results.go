package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"dip/internal/network"
	"dip/internal/obs"
	"dip/internal/stats"
)

// Schema identifies the machine-readable results format emitted by
// cmd/dipbench -json. Bump the version suffix on any incompatible change
// so downstream tooling can refuse files it does not understand.
const Schema = "dip-bench/v1"

// ResultsFile is the versioned machine-readable counterpart of the
// EXPERIMENTS.md tables: everything in it except Timings is a pure
// function of (seed, quick, trials override), so two runs with equal
// flags produce byte-identical files at any -parallel / GOMAXPROCS
// setting — which is what makes committed BENCH_*.json artifacts
// diffable across PRs.
type ResultsFile struct {
	Schema string `json:"schema"`
	Tool   string `json:"tool"`
	Seed   int64  `json:"seed"`
	Quick  bool   `json:"quick"`
	// TrialsOverride echoes the -trials flag (0 = per-experiment default).
	TrialsOverride int                `json:"trials_override,omitempty"`
	GoMaxProcs     int                `json:"gomaxprocs"`
	Experiments    []ExperimentResult `json:"experiments"`
	// EngineBench, RequestBench and HeavyBench record the deterministic
	// allocs/op of the engine, request-path and heavy-mix reference
	// workloads (see MeasureEngineAllocs, MeasureRequestAllocs and
	// MeasureHeavyAllocs); unlike Timings they are reproducible, so they
	// live in the canonical block and feed the `dipbench -bench-check`
	// regression gate.
	EngineBench  *AllocBench `json:"engine_bench,omitempty"`
	RequestBench *AllocBench `json:"request_bench,omitempty"`
	HeavyBench   *AllocBench `json:"heavy_bench,omitempty"`
	// Timings is execution metadata (wall times, worker count, engine
	// meters). It is inherently non-reproducible, so dipbench omits it
	// unless -json-timings is set, keeping the default artifact canonical.
	Timings *Timings `json:"timings,omitempty"`
}

// ExperimentResult is one experiment's table plus its structured cells.
type ExperimentResult struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
	// Cells holds the structured record of every RunTrials /
	// RunFlagTrials batch the experiment executed, in execution order.
	Cells []Cell `json:"cells,omitempty"`
}

// Cell is the structured result of one trial batch (one table cell's
// worth of Monte Carlo work), identified by its harness salt.
type Cell struct {
	Salt int64 `json:"salt"`
	// Kind is "protocol" for engine-run batches and "flag" for plain
	// boolean Monte Carlo sweeps (no cost accounting).
	Kind      string       `json:"kind"`
	Trials    int          `json:"trials"`
	Successes int          `json:"successes"`
	Estimate  Interval     `json:"estimate"`
	Cost      *CostSummary `json:"cost,omitempty"`
}

// Interval is a rate with its 95% Wilson confidence interval.
type Interval struct {
	Rate float64 `json:"rate"`
	Lo   float64 `json:"lo"`
	Hi   float64 `json:"hi"`
}

// intervalOf converts a stats.Estimate.
func intervalOf(e stats.Estimate) Interval {
	return Interval{Rate: e.Rate, Lo: e.Lo, Hi: e.Hi}
}

// CostSummary is the communication accounting of a cell's sample run,
// including the per-round decomposition of the paper's cost measure.
type CostSummary struct {
	MaxProverBits     int `json:"max_prover_bits"`
	TotalProverBits   int `json:"total_prover_bits"`
	MaxNodeToNodeBits int `json:"max_node_to_node_bits"`
	// MaxNode is the lowest-indexed node attaining MaxProverBits; the
	// per-round breakdown below is taken at this node, so its
	// to_prover+from_prover entries sum exactly to MaxProverBits.
	MaxNode  int            `json:"max_node"`
	PerRound []RoundSummary `json:"per_round"`
}

// RoundSummary is one round of the per-round breakdown at MaxNode.
type RoundSummary struct {
	Kind       string `json:"kind"` // "Arthur" or "Merlin"
	ToProver   int    `json:"to_prover"`
	FromProver int    `json:"from_prover"`
	NodeToNode int    `json:"node_to_node"`
}

// SummarizeCost extracts a CostSummary from a run's cost accounting.
func SummarizeCost(c *network.Cost) *CostSummary {
	v := c.ArgMaxProverNode()
	out := &CostSummary{
		MaxProverBits:     c.MaxProverBits(),
		TotalProverBits:   c.TotalProverBits(),
		MaxNodeToNodeBits: c.MaxNodeToNodeBits(),
		MaxNode:           v,
		PerRound:          make([]RoundSummary, len(c.PerRound)),
	}
	for k := range c.PerRound {
		r := &c.PerRound[k]
		out.PerRound[k] = RoundSummary{
			Kind:       r.Kind.String(),
			ToProver:   r.ToProver[v],
			FromProver: r.FromProver[v],
			NodeToNode: r.NodeToNode[v],
		}
	}
	return out
}

// Timings is non-canonical execution metadata.
type Timings struct {
	Parallel    int                `json:"parallel"`
	GoVersion   string             `json:"go_version"`
	TotalWallMS int64              `json:"total_wall_ms"`
	Experiments []ExperimentTiming `json:"experiments"`
	Engine      obs.Metrics        `json:"engine"`
}

// ExperimentTiming is one experiment's wall time.
type ExperimentTiming struct {
	ID     string `json:"id"`
	WallMS int64  `json:"wall_ms"`
}

// Validate checks the structural invariants of a decoded results file:
// a recognized schema, a trial override the harness can have run,
// positive allocation budgets, sane estimates, and — the metering
// contract — that every cell's per-round prover bits sum exactly to its
// aggregate MaxProverBits.
func (f *ResultsFile) Validate() error {
	if f.Schema != Schema {
		return fmt.Errorf("results: schema %q, want %q", f.Schema, Schema)
	}
	if f.TrialsOverride < 0 {
		return fmt.Errorf("results: trials_override %d is negative", f.TrialsOverride)
	}
	if b := f.EngineBench; b != nil && b.AllocsPerOp <= 0 {
		return fmt.Errorf("results: engine_bench allocs/op %v is not positive", b.AllocsPerOp)
	}
	if b := f.RequestBench; b != nil && b.AllocsPerOp <= 0 {
		return fmt.Errorf("results: request_bench allocs/op %v is not positive", b.AllocsPerOp)
	}
	if b := f.HeavyBench; b != nil && b.AllocsPerOp <= 0 {
		return fmt.Errorf("results: heavy_bench allocs/op %v is not positive", b.AllocsPerOp)
	}
	for _, exp := range f.Experiments {
		if exp.ID == "" {
			return fmt.Errorf("results: experiment with empty ID")
		}
		for ci, cell := range exp.Cells {
			if cell.Successes < 0 || cell.Successes > cell.Trials {
				return fmt.Errorf("results: %s cell %d: %d successes of %d trials",
					exp.ID, ci, cell.Successes, cell.Trials)
			}
			if cell.Estimate.Lo < 0 || cell.Estimate.Hi > 1 || cell.Estimate.Lo > cell.Estimate.Hi {
				return fmt.Errorf("results: %s cell %d: malformed interval [%v, %v]",
					exp.ID, ci, cell.Estimate.Lo, cell.Estimate.Hi)
			}
			if cell.Cost == nil {
				continue
			}
			sum := 0
			for _, r := range cell.Cost.PerRound {
				sum += r.ToProver + r.FromProver
			}
			if sum != cell.Cost.MaxProverBits {
				return fmt.Errorf("results: %s cell %d (salt %d): per-round prover bits sum to %d, aggregate is %d",
					exp.ID, ci, cell.Salt, sum, cell.Cost.MaxProverBits)
			}
		}
	}
	return nil
}

// Encode writes the file as stable, indented JSON with a trailing
// newline.
func (f *ResultsFile) Encode(w io.Writer) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteFile encodes the results to path.
func (f *ResultsFile) WriteFile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Encode(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// DecodeResults parses and validates a results file.
func DecodeResults(r io.Reader) (*ResultsFile, error) {
	var f ResultsFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// ReadResultsFile decodes and validates the results file at path.
func ReadResultsFile(path string) (*ResultsFile, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return DecodeResults(in)
}

// Recorder collects the structured cells of one experiment run. Attach
// one to Config.Recorder and every RunTrials / RunFlagTrials batch
// appends its Cell in execution order (experiments call the harness
// sequentially, so the order is deterministic).
type Recorder struct {
	mu    sync.Mutex
	cells []Cell
}

// record appends one cell.
func (r *Recorder) record(c Cell) {
	r.mu.Lock()
	r.cells = append(r.cells, c)
	r.mu.Unlock()
}

// Cells returns the recorded cells in execution order.
func (r *Recorder) Cells() []Cell {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Cell(nil), r.cells...)
}
