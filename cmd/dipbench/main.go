// Command dipbench regenerates the experiment tables of EXPERIMENTS.md:
// one table per theorem of "Interactive Distributed Proofs" (PODC 2018),
// plus the hash-family, adversary, building-block and ablation studies.
//
// Usage:
//
//	dipbench                  # run every experiment at full size
//	dipbench -experiment E5   # run one experiment
//	dipbench -quick           # reduced sizes (seconds instead of minutes)
//	dipbench -seed 7          # change the reproducibility seed
//	dipbench -trials 500      # override the per-cell trial count
//	dipbench -parallel 2      # cap the trial-harness worker count
//	dipbench -json out.json   # also emit machine-readable results
//	dipbench -bench-check BENCH_seed1.json  # re-measure both allocation budgets
//	dipbench -faults          # run the fault matrix (E12) instead of the tables
//	dipbench -validate x.json [y.json ...]  # check results files against their schemas
//	dipbench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Tables are reproducible for a fixed -seed regardless of -parallel: each
// trial's randomness is derived from (seed, experiment, trial index)
// alone. The -json file is likewise byte-identical across -parallel and
// GOMAXPROCS settings, so committed BENCH_*.json artifacts diff cleanly
// across PRs. It always carries the allocation budgets of the engine and
// request-path reference workloads (engine_bench, request_bench), which
// -bench-check re-measures; -json-timings adds a non-reproducible
// timings block (wall times, worker count, engine meters) for profiling
// sessions. Long runs report live progress (trials per cell, ETA) on
// stderr; silence it with -progress=false.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dip"
	"dip/internal/experiments"
	"dip/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dipbench:", err)
		os.Exit(1)
	}
}

// run parses the command line args (without the program name) and runs
// the mode they select.
func run(args []string) error {
	fs := flag.NewFlagSet("dipbench", flag.ExitOnError)
	var (
		which       = fs.String("experiment", "all", "experiment ID (E1..E12, E14) or 'all'")
		seed        = fs.Int64("seed", 1, "reproducibility seed")
		quick       = fs.Bool("quick", false, "reduced sizes and trial counts")
		trials      = fs.Int("trials", 0, "override the per-cell trial count (0 = experiment default)")
		parallel    = fs.Int("parallel", 0, "trial-harness worker count (0 = GOMAXPROCS)")
		jsonPath    = fs.String("json", "", "write machine-readable results to this path")
		jsonTimings = fs.Bool("json-timings", false, "include the non-reproducible timings block in -json output")
		progress    = fs.Bool("progress", true, "report live per-cell progress on stderr")
		faultsMode  = fs.Bool("faults", false, "run the fault-injection matrix (E12); -json emits dip-fault/v1")
		validate    = fs.String("validate", "", "validate existing results files against their schemas and exit (accepts further paths as positional args)")
		benchCheck  = fs.String("bench-check", "", "re-measure the engine and request-path allocs/op and fail on a >10% rise over this dip-bench file's records")
		cpuprofile  = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memprofile  = fs.String("memprofile", "", "write a heap profile to this path")
	)
	fs.Parse(args)

	if *validate != "" {
		return validateFiles(append([]string{*validate}, fs.Args()...))
	}

	// Only -validate takes positional arguments: anywhere else one is a
	// mistyped flag (a dropped -json, say), which must not pass silently.
	if *benchCheck != "" {
		if fs.NArg() > 0 {
			return fmt.Errorf("-bench-check takes one file, got %d more", fs.NArg())
		}
		return checkBench(*benchCheck)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q: only -validate takes file arguments (results go to -json FILE)", fs.Arg(0))
	}

	if *trials < 0 || *parallel < 0 {
		return fmt.Errorf("-trials %d, -parallel %d: want >= 0 (0 = default)", *trials, *parallel)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	cfg := experiments.Config{Seed: *seed, Quick: *quick, Trials: *trials, Parallel: *parallel}
	if *progress {
		cfg.Progress = obs.NewReporter(os.Stderr)
	}

	if *faultsMode {
		return runFaults(cfg, *jsonPath)
	}

	runners := experiments.All()
	if *which != "all" {
		r, ok := experiments.ByID(*which)
		if !ok {
			return fmt.Errorf("unknown experiment %q (want E1..E12, E14 or all)", *which)
		}
		runners = []experiments.Runner{r}
	}

	results := &experiments.ResultsFile{
		Schema:         experiments.Schema,
		Tool:           "dipbench",
		Seed:           *seed,
		Quick:          *quick,
		TrialsOverride: *trials,
		GoMaxProcs:     runtime.GOMAXPROCS(0),
	}
	var timings experiments.Timings
	totalStart := time.Now()

	for _, r := range runners {
		start := time.Now()
		rec := &experiments.Recorder{}
		cfg.Recorder = rec
		cfg.Progress.SetLabel(r.ID)
		table, err := r.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		elapsed := time.Since(start)
		fmt.Println(table.Format())
		fmt.Printf("(%s finished in %v)\n\n", r.ID, elapsed.Round(time.Millisecond))

		results.Experiments = append(results.Experiments, experiments.ExperimentResult{
			ID:      table.ID,
			Title:   table.Title,
			Columns: table.Columns,
			Rows:    table.Rows,
			Notes:   table.Notes,
			Cells:   rec.Cells(),
		})
		timings.Experiments = append(timings.Experiments, experiments.ExperimentTiming{
			ID:     table.ID,
			WallMS: elapsed.Milliseconds(),
		})
	}

	if *jsonPath != "" {
		var err error
		if results.EngineBench, err = experiments.MeasureEngineAllocs(); err != nil {
			return err
		}
		if results.RequestBench, err = experiments.MeasureRequestAllocs(); err != nil {
			return err
		}
		for _, b := range []*experiments.AllocBench{results.EngineBench, results.RequestBench} {
			fmt.Fprintf(os.Stderr, "alloc bench: %.0f allocs/op (%s, n=%d)\n", b.AllocsPerOp, b.Workload, b.Nodes)
		}
		if *jsonTimings {
			timings.Parallel = *parallel
			timings.GoVersion = runtime.Version()
			timings.TotalWallMS = time.Since(totalStart).Milliseconds()
			timings.Engine = obs.Snapshot()
			results.Timings = &timings
		}
		if err := results.Validate(); err != nil {
			return fmt.Errorf("internal: generated results fail validation: %w", err)
		}
		if err := results.WriteFile(*jsonPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}

// runFaults runs the E12 fault matrix and optionally writes the
// dip-fault/v1 results file.
func runFaults(cfg experiments.Config, jsonPath string) error {
	cfg.Progress.SetLabel("E12")
	start := time.Now()
	file, table, err := experiments.RunFaultMatrix(cfg)
	if err != nil {
		return err
	}
	fmt.Println(table.Format())
	fmt.Printf("(E12 finished in %v)\n", time.Since(start).Round(time.Millisecond))
	if bad := file.GateViolations(); len(bad) > 0 {
		fmt.Printf("WARNING: %d cell(s) fail the 1/3 gate\n", len(bad))
	}
	if jsonPath != "" {
		if err := file.Validate(); err != nil {
			return fmt.Errorf("internal: generated fault results fail validation: %w", err)
		}
		if err := file.WriteFile(jsonPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonPath)
	}
	return nil
}

// checkBench is the allocation-regression gate: it re-measures both
// reference workloads and compares each against its record in the
// dip-bench/v1 file at path, reporting every failure before exiting.
func checkBench(path string) error {
	f, err := experiments.ReadResultsFile(path)
	if err != nil {
		return err
	}
	checks := []struct {
		name     string
		recorded *experiments.AllocBench
		measure  func() (*experiments.AllocBench, error)
	}{
		{"engine_bench", f.EngineBench, experiments.MeasureEngineAllocs},
		{"request_bench", f.RequestBench, experiments.MeasureRequestAllocs},
	}
	failed := 0
	for _, c := range checks {
		measured, err := c.measure()
		if err == nil {
			err = experiments.CheckAllocs(c.name, c.recorded, measured.AllocsPerOp)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "dipbench: %s: %v\n", path, err)
			failed++
			continue
		}
		fmt.Printf("%s: %s OK: %.0f allocs/op measured vs %.0f recorded (limit +%d%%)\n",
			path, c.name, measured.AllocsPerOp, c.recorded.AllocsPerOp, int(experiments.AllocRegressionLimit*100))
	}
	if failed > 0 {
		return fmt.Errorf("%s: %d of %d allocation budget(s) failed the bench check", path, failed, len(checks))
	}
	return nil
}

// validateFiles checks every file and reports each failure with its own
// diagnostic before exiting: a batch invocation (`dipbench -validate
// a.json b.json c.json`) surfaces all broken artifacts in one pass
// instead of stopping at the first.
func validateFiles(paths []string) error {
	failed := 0
	for _, path := range paths {
		if err := validateFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "dipbench: %s: %v\n", path, err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d file(s) failed validation", failed, len(paths))
	}
	return nil
}

// validateFile dispatches on the file's schema field: dip-bench/v1,
// dip-fault/v1, dip-report/v1 and dip-job/v1 files are all accepted.
func validateFile(path string) error {
	schema, err := experiments.SniffSchema(path)
	if err != nil {
		return err
	}
	switch schema {
	case dip.ReportSchema:
		w, err := dip.ReadWireReportFile(path)
		if err != nil {
			return err
		}
		fmt.Printf("%s: valid %s (protocol %s, %d nodes, seed %d, accepted=%v)\n",
			path, w.Schema, w.Protocol, w.Nodes, w.Seed, w.Accepted)
		return nil
	case dip.JobSchema:
		w, err := dip.ReadWireJobFile(path)
		if err != nil {
			return err
		}
		fmt.Printf("%s: valid %s (id %s, state %s, protocol %s, %d attempts)\n",
			path, w.Schema, w.ID, w.State, w.Protocol, w.Attempts)
		return nil
	case experiments.Schema:
		f, err := experiments.ReadResultsFile(path)
		if err != nil {
			return err
		}
		cells := 0
		for _, e := range f.Experiments {
			cells += len(e.Cells)
		}
		fmt.Printf("%s: valid %s results (seed %d, %d experiments, %d cells)\n",
			path, f.Schema, f.Seed, len(f.Experiments), cells)
		return nil
	case experiments.FaultSchema:
		f, err := experiments.ReadFaultResultsFile(path)
		if err != nil {
			return err
		}
		fmt.Printf("%s: valid %s results (seed %d, %d cells, %d gate violations)\n",
			path, f.Schema, f.Seed, len(f.Cells), len(f.GateViolations()))
		return nil
	default:
		return fmt.Errorf("unknown schema %q", schema)
	}
}
