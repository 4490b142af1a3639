// Command bench is the repository benchmark. It builds dipserve and dippeer
// from the checkout, boots one process set per workload, drives each with
// closed-loop and open-loop HTTP traffic from this one generator process,
// checks every answer, and prints every metric BENCHMARK.json names, by
// name and unit. A traced replay through the layers' public calls gives
// the per-layer times. The last line of standard output is one JSON
// object: correct, attempted, failed and the metrics.
//
//	bash bench/run.sh --workload fleet-light --seed 3 --seconds 24 --trace 0
//	bash bench/run.sh -seed 1 -out .bench_build/out   # all four, interleaved
//	bash bench/run.sh -validate .bench_build/out/results.json
//	bash bench/run.sh -compare base/runs.jsonl change/runs.jsonl
//
// bench/README.md documents the workloads, the metrics and their bounds.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Each workload's measured seconds split into this many closed-loop
// windows followed by this many open-loop windows of equal length. The
// open loop sends half the closed loop's rate, and with two windows the
// heavy mixes gave it too few samples for a steady median.
const (
	closedWindows = 5
	openWindows   = 3
	// setups is how many times a run boots each process set for setup_s.
	setups = 9
)

func main() {
	var (
		workloadList = flag.String("workload", "all", "comma-separated workloads, or all; several workloads interleave their windows")
		seed         = flag.Int64("seed", 1, "seed every request is derived from")
		seconds      = flag.Float64("seconds", 40, fmt.Sprintf("measured seconds per workload: %d closed-loop and %d open-loop windows", closedWindows, openWindows))
		traceFlag    = flag.Int("trace", 1, "1 adds the traced replay and reports the per-layer metrics; 0 reports the end-to-end metrics")
		out          = flag.String("out", "", "write results.json and spans.jsonl to this directory, append to its runs.jsonl, and validate")
		validateFile = flag.String("validate", "", "check a results file against BENCHMARK.json and exit")
		compareBase  = flag.String("compare", "", "base results series (results.json or runs.jsonl); change series follow as arguments")
		root         = flag.String("root", ".", "repository checkout to build and to read BENCHMARK.json from")
	)
	flag.Parse()
	runtime.GOMAXPROCS(gomaxprocs)

	spec, err := readSpec(*root)
	if err != nil {
		fatal(err)
	}
	switch {
	case *validateFile != "":
		os.Exit(validateMain(spec, *validateFile))
	case *compareBase != "":
		base, err := readResults(*compareBase)
		if err != nil {
			fatal(err)
		}
		if flag.NArg() == 0 {
			fatal(errors.New("-compare needs at least one change series"))
		}
		for _, path := range flag.Args() {
			change, err := readResults(path)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("== %s against %s\n", path, *compareBase)
			compareSeries(os.Stdout, spec, base, change)
		}
		return
	}

	ws, err := selectWorkloads(*workloadList)
	if err != nil {
		fatal(err)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *traceFlag))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds %v: want a positive length", *seconds))
	}
	window := time.Duration(*seconds / (closedWindows + openWindows) * float64(time.Second))
	cfg := config{
		root: *root, workDir: filepath.Join(*root, ".bench_build"), spec: spec,
		workloads: ws, seed: *seed, trace: *traceFlag == 1,
		warmup: window * 3 / 5, window: window,
		closedWindows: closedWindows, openWindows: openWindows, setups: setups,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	res, spans, err := run(ctx, cfg)
	if err != nil {
		stop()
		fatal(err)
	}
	ok := report(os.Stdout, res)
	if *out != "" {
		if err := writeOutputs(*out, res, spans); err != nil {
			fatal(err)
		}
		for _, p := range validate(spec, res) {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", filepath.Join(*out, "results.json"), p)
			ok = false
		}
	}
	if err := printSummary(os.Stdout, res); err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(1)
}

func selectWorkloads(list string) ([]*workload, error) {
	if list == "all" {
		return workloads, nil
	}
	var out []*workload
	for _, name := range strings.Split(list, ",") {
		w := workloadByName(name)
		if w == nil {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, w)
	}
	return out, nil
}

func validateMain(spec *benchSpec, path string) int {
	runs, err := readResults(path)
	if err != nil {
		fatal(err)
	}
	code := 0
	for i, r := range runs {
		for _, p := range validate(spec, r) {
			fmt.Fprintf(os.Stderr, "%s: run %d: %s\n", path, i+1, p)
			code = 1
		}
	}
	if code == 0 {
		fmt.Printf("%s: %d run(s) valid\n", path, len(runs))
	}
	return code
}

// report prints every metric of every workload by name and unit, and
// returns whether every workload passed the correctness gate.
func report(out io.Writer, res *results) bool {
	ok := true
	for _, wr := range res.Workloads {
		w, smp := wr.Workload, wr.Samples
		fmt.Fprintf(out, "== %s: %s, %s, n=%d %s, %d peers; rate %g/s, L %g ms\n",
			w.Name, w.Placement, strings.Join(w.Protocols, "+"), w.N, w.Graph, w.Peers, w.Rate, w.LimitMS)
		fmt.Fprintf(out, "   %d requests, %d failed, %d rerun in-process; samples: %d closed (p99 ok: %v), %d open, %d setups, %d replays\n",
			wr.Attempted, wr.Failed, smp.Reruns, smp.Closed, smp.P99OK, smp.Open, smp.Setups, smp.Replays)
		for _, group := range []map[string]metricVal{wr.EndToEnd, wr.PerLayer} {
			names := make([]string, 0, len(group))
			for name := range group {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				fmt.Fprintf(out, "   %-28s %14.4f %s\n", name, group[name].Value, group[name].Unit)
			}
		}
		for _, e := range wr.Errors {
			fmt.Fprintf(out, "   error: %s\n", e)
		}
		ok = ok && wr.Correct
	}
	return ok
}

// printSummary writes the last line of output: the end-to-end metrics of a
// run without tracing, the per-layer metrics of a traced run. With several
// workloads, names are prefixed with the workload's.
func printSummary(out io.Writer, res *results) error {
	sum := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricVal `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricVal{}}
	for _, wr := range res.Workloads {
		sum.Correct = sum.Correct && wr.Correct
		sum.Attempted += wr.Attempted
		sum.Failed += wr.Failed
		metrics := wr.EndToEnd
		if res.Provenance.Trace {
			metrics = wr.PerLayer
		}
		for name, m := range metrics {
			if len(res.Workloads) > 1 {
				name = wr.Workload.Name + "." + name
			}
			sum.Metrics[name] = m
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// writeOutputs writes results.json and spans.jsonl into dir and appends
// the results as one line to runs.jsonl, the series -compare reads.
func writeOutputs(dir string, res *results, spans [][]span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results.json"), append(doc, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	runs, err := os.OpenFile(filepath.Join(dir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := runs.Write(append(line, '\n')); err != nil {
		runs.Close()
		return err
	}
	if err := runs.Close(); err != nil {
		return err
	}

	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	type record struct {
		Workload string `json:"workload"`
		span
	}
	for i, wr := range res.Workloads {
		for _, sp := range spans[i] {
			if err := enc.Encode(record{wr.Workload.Name, sp}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
