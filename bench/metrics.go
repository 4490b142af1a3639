package main

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dip/internal/obs"
)

// tracedSpans are the layer spans of the traced run. Each reports its
// summed self time per request as the metric <name>_us, except the engine
// run, whose self time (the run wall minus node callbacks, prover and
// transport: the delivery funnel plus scheduling) is engine.self_us.
var tracedSpans = []string{
	"dipserve.decode", "dipserve.encode",
	"setup.graph", "setup.protocol",
	"prover.respond",
	"engine.challenge", "engine.digest", "engine.decide", "engine.run",
	"transport.begin", "transport.recv_challenge", "transport.send_response",
	"transport.recv_forward", "transport.send_exchange", "transport.recv_decision", "transport.end",
}

func spanMetric(name string) string {
	if name == "engine.run" {
		return "engine.self_us"
	}
	return name + "_us"
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// loadMetrics computes the metrics of the HTTP phases. With scaled, each
// latency is divided by the machine's slowness when it was answered, each
// completion counts its slowness toward throughput, and setup time is
// divided by the slowness during the boots (see calibrate.go).
func (st *wstate) loadMetrics(scaled bool) (map[string]float64, samples) {
	slowAt := func(time.Time) float64 { return 1 }
	setupSlow := 1.0
	if scaled {
		slowAt, setupSlow = st.slowAt, st.setupSlow
	}
	v := map[string]float64{}
	var smp samples

	var lat, tput, cpu []float64
	for _, c := range st.closed {
		var work float64 // completions in reference-speed units
		for _, s := range c.lat {
			k := slowAt(s.at)
			lat = append(lat, s.ms/k)
			work += k
		}
		tput = append(tput, work/c.elapsed.Seconds())
		cpu = append(cpu, ratio(ms(c.cpu), work))
	}
	smp.Closed = len(lat)
	v["throughput_rps"] = median(tput)
	v["latency_p50_ms"] = median(lat)
	v["latency_p99_ms"], smp.P99OK = percentile(lat, 0.99)
	v["cpu_ms_per_req"] = median(cpu)
	v["server_rss_mb"] = float64(st.rss) / (1 << 20)
	v["setup_s"] = median(st.setups) / setupSlow
	smp.Setups = len(st.setups)

	var olat, late []float64
	var sent, missed int
	for _, o := range st.open {
		for _, s := range o.lat {
			l := s.ms / slowAt(s.at)
			olat = append(olat, l)
			if l > st.w.LimitMS {
				missed++
			}
		}
		late = append(late, o.late...)
		sent += o.sent
		missed += o.failed
	}
	smp.Open = sent
	v["open_p50_ms"] = median(olat)
	v["slo_miss_frac"] = ratio(float64(missed), float64(sent))
	v["gen.late_p99_ms"], _ = percentile(late, 0.99)
	return v, smp
}

// values computes every metric the benchmark knows for one workload,
// times scaled to the reference machine speed.
func (st *wstate) values() (map[string]float64, samples) {
	v, smp := st.loadMetrics(true)
	v["error_frac"] = ratio(float64(st.ld.failed.Load()), float64(st.attempted()))
	v["gen.retries_503"] = float64(st.ld.retries.Load())
	smp.Reruns = st.reruns

	var lat, slows []float64
	for _, c := range st.closed {
		for _, s := range c.lat {
			lat = append(lat, s.ms)
			slows = append(slows, st.slowAt(s.at))
		}
	}
	v["gen.slowdown"] = mean(slows)
	st.scraped(v, mean(lat), mean(slows))

	if st.trace != nil {
		smp.Replays = st.trace.requests
		micros, coverage := layerMicros(st.trace)
		for _, name := range tracedSpans {
			v[spanMetric(name)] = micros[name] / st.traceSlow
		}
		v["trace.coverage"] = coverage
		v["trace.overhead"] = st.trace.overhead
	}
	return v, smp
}

func (st *wstate) attempted() int64 { return st.ld.attempted.Load() + int64(len(st.setups)) }

// scraped adds the per-layer metrics computed from the difference of
// dipserve's /metrics counters across the closed-loop phase; times are
// divided by the phase's median slowness.
func (st *wstate) scraped(v map[string]float64, clientMeanMS, slow float64) {
	b, a := st.before, st.after

	prev := map[string]obs.ProtocolMetricsRecord{}
	for _, p := range b.Service.Protocols {
		prev[p.Protocol] = p
	}
	var workerMS, runs float64
	for _, p := range a.Service.Protocols {
		q := prev[p.Protocol]
		workerMS += p.LatencyMeanMS*float64(p.Requests) - q.LatencyMeanMS*float64(q.Requests)
		runs += float64(p.Requests - q.Requests)
	}
	v["dipserve.worker_ms"] = ratio(workerMS, runs) / slow
	v["dipserve.overhead_ms"] = clientMeanMS/slow - v["dipserve.worker_ms"]
	rejected := float64(a.Service.Rejected - b.Service.Rejected)
	v["dipserve.rejected_frac"] = ratio(rejected, float64(a.Service.Requests-b.Service.Requests)+rejected)

	caches := map[string]obs.CacheMetricsRecord{}
	for _, c := range b.Caches {
		caches[c.Name] = c
	}
	for _, name := range []string{"graphs", "protocols", "artifacts", "scripts"} {
		var hits, misses float64
		for _, c := range a.Caches {
			if c.Name == name {
				hits, misses = float64(c.Hits-caches[name].Hits), float64(c.Misses-caches[name].Misses)
			}
		}
		v["setup."+name+"_hit"] = ratio(hits, hits+misses)
	}

	engineRuns := float64(a.Engine.EngineRuns - b.Engine.EngineRuns)
	v["engine.run_ms"] = ratio(float64(a.Engine.EngineWallMS-b.Engine.EngineWallMS), engineRuns) / slow
	v["engine.deliveries_per_run"] = ratio(float64(a.Engine.Deliveries-b.Engine.Deliveries), engineRuns)
	v["engine.bits_per_run"] = ratio(float64(a.Engine.DeliveredBits-b.Engine.DeliveredBits), engineRuns)
	poolHits := float64(a.StatePool.Hits - b.StatePool.Hits)
	v["engine.state_pool_hit"] = ratio(poolHits, poolHits+float64(a.StatePool.Misses-b.StatePool.Misses))

	var frames, bytes, failed float64
	if a.Fleet != nil && b.Fleet != nil && len(a.Fleet.Peers) == len(b.Fleet.Peers) {
		for i, p := range a.Fleet.Peers {
			q := b.Fleet.Peers[i]
			frames += float64(p.FramesSent + p.FramesReceived - q.FramesSent - q.FramesReceived)
			bytes += float64(p.BytesSent + p.BytesReceived - q.BytesSent - q.BytesReceived)
			failed += float64(p.SessionsFailed - q.SessionsFailed)
		}
	}
	v["peer.frames_per_run"] = ratio(frames, engineRuns)
	v["peer.bytes_per_run"] = ratio(bytes, engineRuns)
	v["peer.sessions_failed"] = failed
}

// result assembles the workload's entry of results.json.
func (st *wstate) result(spec *benchSpec) (*workloadResult, error) {
	values, smp := st.values()
	wr := &workloadResult{Workload: st.w, Attempted: st.attempted(), Failed: st.ld.failed.Load(),
		Samples: smp, Errors: st.errs}
	raw, _ := st.loadMetrics(false)
	var err error
	if wr.EndToEnd, err = pick(spec.EndToEnd, values); err != nil {
		return nil, err
	}
	if wr.Unscaled, err = pick(spec.EndToEnd, raw); err != nil {
		return nil, err
	}
	if st.trace != nil {
		if wr.PerLayer, err = pick(spec.PerLayer, values); err != nil {
			return nil, err
		}
		wr.Rounds = st.trace.rounds
	}
	wr.Correct = wr.Failed == 0 && len(wr.Errors) == 0 && (st.trace == nil || values["trace.coverage"] >= minCoverage)
	return wr, nil
}

func provenanceOf(cfg config, started time.Time) provenance {
	rev := "unknown"
	// Only the checkout's own repository counts; a checkout that is not one
	// reports unknown rather than some enclosing repository's commit.
	gitDir := filepath.Join(cfg.root, ".git")
	if out, err := exec.Command("git", "--git-dir", gitDir, "rev-parse", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	return provenance{
		NProc: runtime.NumCPU(),
		GOMAXPROCS: map[string]int{"generator": runtime.GOMAXPROCS(0),
			"dipserve": gomaxprocs, "dippeer": gomaxprocs},
		GoVersion:     runtime.Version(),
		GitRev:        rev,
		Seed:          cfg.seed,
		Trace:         cfg.trace,
		Started:       started.UTC(),
		WarmupS:       cfg.warmup.Seconds(),
		WindowS:       cfg.window.Seconds(),
		ClosedWindows: cfg.closedWindows,
		OpenWindows:   cfg.openWindows,
		Setups:        cfg.setups,
		Workers:       workers,
		Queue:         queueDepth,
		Interleaved:   len(cfg.workloads) > 1,
	}
}
