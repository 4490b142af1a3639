package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// benchSpec is the part of BENCHMARK.json, at the root of the repository,
// that the program reads: the one place that names the metrics, their
// units, directions and regression bounds. The program computes every
// metric it names and reports nothing it does not name.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &spec, nil
}

// metricVal is one reported metric.
type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultsSchema names the results.json document.
const resultsSchema = "dip-benchmark/v1"

// results is the results.json document of one benchmark run.
type results struct {
	Schema     string            `json:"schema"`
	Provenance provenance        `json:"provenance"`
	Workloads  []*workloadResult `json:"workloads"`
}

// provenance is everything needed to tell whether two results are
// comparable.
type provenance struct {
	NProc      int            `json:"nproc"`
	GOMAXPROCS map[string]int `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	GitRev     string         `json:"git_rev"`
	Seed       int64          `json:"seed"`
	Trace      bool           `json:"trace"`
	Started    time.Time      `json:"started"`
	// Window lengths, in seconds, and window counts per workload.
	WarmupS       float64 `json:"warmup_s"`
	WindowS       float64 `json:"window_s"`
	ClosedWindows int     `json:"closed_windows"`
	OpenWindows   int     `json:"open_windows"`
	Setups        int     `json:"setups"`
	Workers       int     `json:"dipserve_workers"`
	Queue         int     `json:"dipserve_queue"`
	Interleaved   bool    `json:"interleaved"`
}

// samples are the counts behind the reported metrics.
type samples struct {
	Closed  int `json:"closed"`
	Open    int `json:"open"`
	Setups  int `json:"setups"`
	Reruns  int `json:"reruns"`
	Replays int `json:"replays"`
	// P99OK is whether at least ten closed-loop samples lie beyond p99.
	P99OK bool `json:"p99_ok"`
}

type workloadResult struct {
	Workload  *workload            `json:"workload"`
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Samples   samples              `json:"samples"`
	EndToEnd  map[string]metricVal `json:"end_to_end"`
	// Unscaled are the end-to-end metrics as timed, before the times are
	// scaled to the reference machine speed.
	Unscaled map[string]metricVal `json:"end_to_end_unscaled"`
	PerLayer map[string]metricVal `json:"per_layer,omitempty"`
	Rounds   []roundStat          `json:"rounds,omitempty"`
	Errors   []string             `json:"errors,omitempty"`
}

// pick gives each metric of list its unit from BENCHMARK.json.
func pick(list []metricSpec, values map[string]float64) (map[string]metricVal, error) {
	out := make(map[string]metricVal, len(list))
	for _, m := range list {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json names metric %q, which the benchmark does not compute", m.Name)
		}
		out[m.Name] = metricVal{Value: v, Unit: m.Unit}
	}
	return out, nil
}

// minCoverage is the share of traced request wall time the layer spans
// must account for; less means time went unmeasured.
const minCoverage = 0.90

// validate checks a results document against BENCHMARK.json: every metric
// present with its unit, enough samples behind each percentile, monotone
// quantiles, trace coverage, and no failed request.
func validate(spec *benchSpec, res *results) []string {
	var bad []string
	badf := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if res.Schema != resultsSchema {
		badf("schema %q, want %q", res.Schema, resultsSchema)
	}
	if len(res.Workloads) == 0 {
		badf("no workloads")
	}
	check := func(w string, list []metricSpec, got map[string]metricVal) {
		for _, m := range list {
			v, ok := got[m.Name]
			switch {
			case !ok:
				badf("%s: metric %s missing", w, m.Name)
			case v.Unit != m.Unit:
				badf("%s: metric %s in %q, want %q", w, m.Name, v.Unit, m.Unit)
			}
		}
	}
	for _, wr := range res.Workloads {
		name := wr.Workload.Name
		check(name, spec.EndToEnd, wr.EndToEnd)
		if res.Provenance.Trace {
			check(name, spec.PerLayer, wr.PerLayer)
			if c := wr.PerLayer["trace.coverage"].Value; c < minCoverage {
				badf("%s: trace.coverage %.3f below %.2f", name, c, minCoverage)
			}
		}
		if !wr.Samples.P99OK {
			badf("%s: latency_p99_ms rests on %d samples, fewer than %d beyond it", name, wr.Samples.Closed, minTail)
		}
		if p50, p99 := wr.EndToEnd["latency_p50_ms"].Value, wr.EndToEnd["latency_p99_ms"].Value; p50 > p99 {
			badf("%s: latency_p50_ms %.4f above latency_p99_ms %.4f", name, p50, p99)
		}
		for n, v := range wr.EndToEnd {
			if !(v.Value > 0) {
				badf("%s: %s is %v; end-to-end metrics are never 0", name, n, v.Value)
			}
		}
		if wr.Failed > 0 || !wr.Correct {
			badf("%s: %d of %d requests failed the correctness gate", name, wr.Failed, wr.Attempted)
		}
	}
	return bad
}

func readResults(path string) ([]*results, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*results
	dec := json.NewDecoder(f)
	for dec.More() {
		var r results
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, &r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no results", path)
	}
	return out, nil
}
