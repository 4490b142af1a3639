package main

import (
	"context"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartiles(xs), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

func TestPercentileSampleRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, ok := percentile(xs, 0.99)
	if v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v (ok %v), want 990 with ten samples beyond", v, ok)
	}
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Error("p99 of 999 samples reported as supported; it has only nine beyond it")
	}
	if v, _ := percentile(xs[:10], 0.5); v != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5", v)
	}
}

// TestWindowMedians pins that throughput and CPU per request are medians
// over windows, not pooled ratios, so one slow window cannot move them.
func TestWindowMedians(t *testing.T) {
	st := &wstate{w: workloads[0], ld: &loader{}, before: &serverMetrics{}, after: &serverMetrics{},
		slowAt: func(time.Time) float64 { return 1 }}
	for _, c := range []struct {
		n       int
		elapsed time.Duration
		cpu     time.Duration
	}{{100, time.Second, 50 * time.Millisecond}, {300, time.Second, 90 * time.Millisecond}, {10, 2 * time.Second, 100 * time.Millisecond}} {
		st.closed = append(st.closed, closedWin{lat: make([]sample, c.n), elapsed: c.elapsed, cpu: c.cpu})
	}
	v, smp := st.values()
	if got := v["throughput_rps"]; got != 100 {
		t.Errorf("throughput_rps = %v, want the median window rate 100", got)
	}
	if got := v["cpu_ms_per_req"]; got != 0.5 {
		t.Errorf("cpu_ms_per_req = %v, want the median window cost 0.5", got)
	}
	if smp.Closed != 410 {
		t.Errorf("closed samples = %d, want 410", smp.Closed)
	}
}

// TestOpenLoopDueTime stalls both clients on the first two requests: the
// requests due meanwhile must be charged the wait, timed from their due
// time, and reported late.
func TestOpenLoopDueTime(t *testing.T) {
	const stall = 80 * time.Millisecond
	var calls atomic.Int32
	fire := func() bool {
		if calls.Add(1) <= clients {
			time.Sleep(stall)
		}
		return true
	}
	r := openLoop(200, 100*time.Millisecond, func() float64 { return 1 }, fire)
	if r.sent != 20 || r.failed != 0 || len(r.lat) != 20 {
		t.Fatalf("sent %d, failed %d, answered %d; want 20, 0, 20", r.sent, r.failed, len(r.lat))
	}
	// The third request was due at 10 ms and could not be sent before the
	// stall ended at 80 ms.
	var charged int
	for _, s := range r.lat {
		if s.ms >= ms(stall)-15 {
			charged++
		}
	}
	if charged < 3 {
		t.Errorf("only %d requests were charged the %v stall; latencies %v", charged, stall, r.lat)
	}
	if late, _ := percentile(r.late, 0.9); late < ms(stall)/2 {
		t.Errorf("p90 lateness %v ms, want at least %v ms", late, ms(stall)/2)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "dipserve.decode", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "inner", Start: 20, End: 30},
		{ID: 4, Parent: 1, Name: "engine.run", Start: 50, End: 90},
		{ID: 5, Parent: 4, Name: "prover.respond", Start: 55, End: 65},
		{ID: 6, Parent: 4, Name: "prover.respond", Start: 70, End: 80},
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{1: 30, 2: 20, 3: 10, 4: 20, 5: 10, 6: 10} {
		if self[id] != want {
			t.Errorf("span %d self time %d, want %d", id, self[id], want)
		}
	}
	micros, coverage := layerMicros(&traceRun{spans: spans, requests: 1})
	if math.Abs(coverage-0.7) > 1e-9 {
		t.Errorf("coverage %v, want 0.7", coverage)
	}
	if got := micros["prover.respond"]; got != 0.02 {
		t.Errorf("prover.respond %v us, want 0.02", got)
	}
	// Overlapping children count once, and only inside the parent.
	if got := covered(0, 10, [][2]int64{{-5, 3}, {2, 6}, {8, 20}}); got != 8 {
		t.Errorf("covered = %d, want 8", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "throughput_rps", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	for _, c := range []struct {
		name         string
		m            metricSpec
		base, change []float64
		want         string
	}{
		{"faster", lower, steady, shift(steady, -20), "improved"},
		{"higher throughput", higher, steady, shift(steady, 20), "improved"},
		{"too few pairs", lower, steady[:5], shift(steady[:5], -20), "unchanged"},
		{"slower", lower, steady, shift(steady, 15), "regressed"},
		{"within bound", lower, steady, shift(steady, 5), "unchanged"},
		{"noisy base", lower, []float64{70, 130, 80, 120, 90, 110, 75, 125, 100, 100}, steady, "unresolved"},
	} {
		if got, _ := verdict(c.m, c.base, c.change); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestQuick runs all four workloads end to end with one short window per
// phase, the traced replay and the correctness gate, and validates the
// results. Percentiles of such short windows rest on too few samples, so
// that is the one validation finding it tolerates.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("boots eight processes and runs for about 20 s")
	}
	spec, err := readSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{root: "..", workDir: t.TempDir(), spec: spec, workloads: workloads, seed: 7,
		trace: true, warmup: 300 * time.Millisecond, window: time.Second,
		closedWindows: 1, openWindows: 1, setups: 1}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, spans, err := run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, wr := range res.Workloads {
		if wr.Failed != 0 || !wr.Correct || wr.Samples.Reruns == 0 {
			t.Errorf("%s: %d of %d failed, correct %v, %d reruns, errors %v",
				wr.Workload.Name, wr.Failed, wr.Attempted, wr.Correct, wr.Samples.Reruns, wr.Errors)
		}
		if len(spans[i]) == 0 || len(wr.Rounds) == 0 {
			t.Errorf("%s: %d spans, %d round records", wr.Workload.Name, len(spans[i]), len(wr.Rounds))
		}
		fleet := wr.PerLayer["transport.begin_us"].Value > 0
		if fleet != wr.Workload.fleet() {
			t.Errorf("%s: transport spans recorded = %v, fleet placement = %v", wr.Workload.Name, fleet, wr.Workload.fleet())
		}
	}
	for _, p := range validate(spec, res) {
		if !strings.Contains(p, "latency_p99_ms rests on") {
			t.Error(p)
		}
	}
}
