package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"dip"
	"dip/internal/jobs"
	"dip/internal/network"
	"dip/internal/obs"
)

// config are the serving knobs; parseConfig in main.go fills it.
type config struct {
	// addr is the listen address (":8123", "127.0.0.1:0", ...).
	addr string
	// workers caps the bodies running at once (a /v1/run request or a
	// whole /v1/batch each) — the service's concurrency ceiling. Each
	// running body checks engine state out of the shared pool, so the
	// pool is sized to at least this.
	workers int
	// queue caps the bodies admitted but still waiting for one of the
	// workers run slots. A body that finds workers+queue bodies admitted
	// is answered 503 at once.
	queue int
	// timeout bounds each run (request deadline); 0 disables.
	timeout time.Duration
	// maxBody caps the request body, guarding the decoder.
	maxBody int64
	// drain bounds graceful shutdown.
	drain time.Duration
	// addrFile, when set, receives the actual listen address once bound
	// (supports port 0 in tests and smoke runs).
	addrFile string
	// rateLimit is the per-client admission budget in requests per second
	// (batch items count individually); 0 disables rate limiting.
	rateLimit float64
	// rateBurst is the token-bucket capacity per client; 0 derives a
	// default from rateLimit.
	rateBurst int
	// peers, when non-empty, lists dippeer addresses (host:port, comma
	// separated): every run — synchronous, batch, and async jobs — places
	// its verifier nodes on that standing fleet instead of in-process.
	peers string
	// jobs are the async tier knobs (POST /v1/jobs); see jobsConfig.
	jobs jobsConfig
}

func defaultConfig() config {
	return config{
		addr:    ":8123",
		workers: runtime.GOMAXPROCS(0),
		queue:   64,
		timeout: 10 * time.Second,
		maxBody: 8 << 20,
		drain:   15 * time.Second,
		jobs:    defaultJobsConfig(),
	}
}

// server is the dipserve service. Every admitted body runs on its own
// handler goroutine through runFunc, behind two counting semaphores:
// places holds a token per body admitted, waiting or running
// (workers+queue of them), and slots a token per body running (workers
// of them).
type server struct {
	cfg    config
	meters *obs.ServiceMeters
	places chan struct{}
	slots  chan struct{}
	// limiter is the per-client admission rate limiter; nil when
	// cfg.rateLimit is 0.
	limiter *limiter
	// async is the durable job tier behind POST /v1/jobs — its job table
	// and worker pool are independent of the two semaphores above.
	async *jobsTier
	// runFunc is dip.RunContext in production (or a fleet-backed closure
	// under -peers); tests inject stubs to pin queue/timeout behavior
	// without real protocol runs.
	runFunc func(context.Context, dip.Request) (dip.Report, error)
	// fleet is the standing dippeer fleet behind -peers; nil when runs
	// execute in-process. All three serving tiers route through runFunc,
	// so pointing runFunc at the fleet redirects run, batch, and jobs.
	fleet    *dip.Fleet
	draining atomic.Bool
	started  time.Time
}

// useFleet points every serving tier at a standing peer fleet: runFunc
// becomes Fleet.Run (the jobs tier reads runFunc at call time, so it
// follows), /metrics gains the per-peer gauges, and /readyz reports
// fleet reachability.
func (s *server) useFleet(f *dip.Fleet) {
	s.fleet = f
	s.runFunc = func(ctx context.Context, req dip.Request) (dip.Report, error) {
		rep, err := f.Run(ctx, req)
		if err != nil {
			return dip.Report{}, err
		}
		return *rep, nil
	}
}

func newServer(cfg config) (*server, error) {
	s := &server{
		cfg:     cfg,
		meters:  &obs.ServiceMeters{},
		places:  make(chan struct{}, cfg.workers+cfg.queue),
		slots:   make(chan struct{}, cfg.workers),
		runFunc: dip.RunContext,
		started: time.Now(),
	}
	if cfg.rateLimit > 0 {
		s.limiter = newLimiter(cfg.rateLimit, cfg.rateBurst)
	}
	jc := cfg.jobs
	if jc.attemptTimeout == 0 {
		// A job attempt defaults to the same deadline a synchronous run
		// gets: the async tier changes when work runs, not how long it may.
		jc.attemptTimeout = cfg.timeout
	}
	// The run closure reads s.runFunc at call time, so tests that inject
	// a stub after construction steer the job tier too.
	async, err := newJobsTier(jc, s.started.UnixNano(), func(ctx context.Context, req dip.Request) (dip.Report, error) {
		return s.runFunc(ctx, req)
	})
	if err != nil {
		return nil, err
	}
	s.async = async
	return s, nil
}

// start sizes the engine-state pool and starts the job tier's workers.
func (s *server) start() {
	// Size the shared engine-state pool to the engine concurrency — the
	// running bodies plus the job workers, which run through the same pool
	// at the same time — so a fully loaded service recycles state instead
	// of allocating; keep the default floor so harness runs in the same
	// process stay pooled.
	if n := s.cfg.workers + s.cfg.jobs.workers; n > 32 {
		network.SetStatePoolCapacity(n)
	}
	s.async.pool.Start()
}

// stop marks the server draining, so every later body is answered 503,
// and retires the job tier: its workers finish their current attempt,
// backoff waits requeue their job, and closing the job table seals the
// journal for the next boot. A body still running (http.Server.Shutdown
// timed out around it) finishes on its own handler goroutine.
func (s *server) stop() {
	s.draining.Store(true)
	s.async.stop()
}

// admitAndRun is the one run path of /v1/run and /v1/batch. It admits
// one body of reqs (a /v1/run request is a body of one), waits for a run
// slot, and runs the items in order on the calling handler goroutine
// under one deadline, metering each item like a plain request. Admission
// is per body, so a batch holds one place and one slot for its whole
// duration: a client trades fairness in line for setup amortization.
// When the body is refused, or its client leaves before it runs,
// admitAndRun answers w itself and reports false.
func (s *server) admitAndRun(w http.ResponseWriter, r *http.Request, reqs []dip.Request) ([]batchResult, bool) {
	if s.draining.Load() {
		s.refuse(w, "server draining", len(reqs))
		return nil, false
	}
	select {
	case s.places <- struct{}{}:
	default:
		// Backpressure: a full line answers immediately instead of
		// stacking goroutines. Clients retry after the hint.
		s.refuse(w, "admission queue full", len(reqs))
		return nil, false
	}
	defer func() { <-s.places }()
	s.meters.Requests.Add(int64(len(reqs)))

	ctx := r.Context()
	s.meters.QueueDepth.Add(1)
	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	case <-ctx.Done():
	}
	s.meters.QueueDepth.Add(-1)
	// The client may be gone (handler timeout, dropped connection): give
	// the place back now instead of running what nobody will read.
	if err := ctx.Err(); err != nil {
		status, phase := mapRunError(err)
		writeJSON(w, status, errorBody{Error: err.Error(), Phase: phase})
		return nil, false
	}
	s.meters.InFlight.Add(1)
	defer s.meters.InFlight.Add(-1)

	if s.cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.timeout)
		defer cancel()
	}
	out := make([]batchResult, len(reqs))
	for i := range reqs {
		pm := s.meters.Protocol(reqs[i].Protocol)
		pm.Requests.Add(1)
		start := time.Now()
		if err := ctx.Err(); err != nil {
			out[i].Err = err
		} else {
			out[i].Report, out[i].Err = s.safeRun(ctx, reqs[i])
		}
		pm.Latency.Observe(time.Since(start))
		if out[i].Err != nil {
			pm.Errors.Add(1)
			s.meters.Failures.Add(1)
		}
	}
	return out, true
}

// refuse answers 503 with a Retry-After hint and meters the body's units
// requests as rejected: Rejected moves in request units, like Requests,
// for rejected/(requests+rejected) to mean anything.
func (s *server) refuse(w http.ResponseWriter, msg string, units int) {
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: msg})
	s.meters.Rejected.Add(int64(units))
}

// safeRun shields the handler from a panicking run: the engine recovers
// prover/node panics itself, but the boundary must also survive bugs in
// code outside that net (and injected run funcs in tests). The panic
// surfaces as a plain error, which the status taxonomy maps to 500.
func (s *server) safeRun(ctx context.Context, req dip.Request) (rep dip.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("run panicked: %v", p)
		}
	}()
	return s.runFunc(ctx, req)
}

// batchResult is one item's outcome in a body: exactly one of Report
// (Err == nil) or Err is meaningful.
type batchResult struct {
	Report dip.Report
	Err    error
}

// handler builds the service mux.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("/v1/jobs", s.handleJobs)
	mux.HandleFunc("/v1/jobs/", s.handleJobStatus)
	mux.HandleFunc("/v1/protocols", s.handleProtocols)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("/readyz", s.handleReadyz)
	return mux
}

// readyBody is the /readyz answer: not just a status word but the
// load picture an orchestrator or smoke gate wants in one probe — the
// bodies waiting for a run slot, the async backlog and its in-flight
// count, and whether the server is draining.
type readyBody struct {
	Status       string `json:"status"`
	QueueDepth   int64  `json:"queue_depth"`
	JobBacklog   int    `json:"job_backlog"`
	JobsInFlight int    `json:"jobs_in_flight"`
	Draining     bool   `json:"draining"`
	// Fleet reports peer reachability under -peers: the probe redials
	// lost connections, so a restarted peer turns reachable again here.
	Fleet *fleetReady `json:"fleet,omitempty"`
}

// fleetReady is the /readyz fleet block. The service stays ready while
// at least one peer is reachable (runs placed on dead peers fail with
// structured 502s, the rest keep serving); with every peer unreachable
// no run can succeed, so readiness goes 503.
type fleetReady struct {
	Peers       int      `json:"peers"`
	Unreachable []string `json:"unreachable,omitempty"`
}

func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	body := readyBody{
		Status:       "ready",
		QueueDepth:   s.meters.QueueDepth.Value(),
		JobBacklog:   s.async.table.Depth(),
		JobsInFlight: s.async.table.InFlight(),
		Draining:     s.draining.Load(),
	}
	if body.Draining {
		body.Status = "draining"
		writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	if s.fleet != nil {
		_ = s.fleet.Ready() // redial lost peers; reachability read off Stats below
		st := s.fleet.Stats()
		fr := &fleetReady{Peers: len(st.Peers)}
		for _, ps := range st.Peers {
			if !ps.Connected {
				fr.Unreachable = append(fr.Unreachable, ps.Addr)
			}
		}
		body.Fleet = fr
		if len(fr.Unreachable) == fr.Peers {
			body.Status = "fleet-unreachable"
			writeJSON(w, http.StatusServiceUnavailable, body)
			return
		}
	}
	writeJSON(w, http.StatusOK, body)
}

// errorBody is the JSON error response of every non-2xx answer.
type errorBody struct {
	Error    string `json:"error"`
	Phase    string `json:"phase,omitempty"`
	Protocol string `json:"protocol,omitempty"`
}

// decodePost is the preamble of the three POST handlers. Another method
// is answered 405 with notPost; cost rate-limit tokens are spent before
// the body is read (a batch passes 0 and spends one per item once its
// length is known); and the capped body is strictly decoded into v, a
// failure answered 413 or 400 as "decoding <what>". It reports whether
// the handler goes on.
func (s *server) decodePost(w http.ResponseWriter, r *http.Request, notPost string, cost int, what string, v any) bool {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: notPost})
		return false
	}
	if cost > 0 && !s.allowClient(w, r, cost) {
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, decodeStatus(err), errorBody{Error: fmt.Sprintf("decoding %s: %v", what, err)})
		return false
	}
	return true
}

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req dip.Request
	if !s.decodePost(w, r, "POST only", 1, "request", &req) {
		return
	}
	res, ok := s.admitAndRun(w, r, []dip.Request{req})
	if !ok {
		return
	}
	if err := res[0].Err; err != nil {
		status, phase := mapRunError(err)
		writeJSON(w, status, errorBody{Error: err.Error(), Phase: phase, Protocol: req.Protocol})
		return
	}
	// Encode to a buffer first: one write sets Content-Length and puts the
	// whole response in a single segment, which matters at load-test rates.
	var buf bytes.Buffer
	if err := dip.WireReportFrom(res[0].Report, req.Options.Seed).Encode(&buf); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error(), Protocol: req.Protocol})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// batchBody is the /v1/batch request envelope.
type batchBody struct {
	Requests []dip.Request `json:"requests"`
}

// maxBatchItems bounds one batch body: a batch holds a run slot for its
// whole duration, so the bound keeps a single client from turning one
// bounded slot into one unbounded run.
const maxBatchItems = 256

// handleBatch admits a whole batch as one body and answers with a JSON
// array, one element per request in order: a dip-report/v1 document on
// success, an error object (same shape as /v1/run errors) on failure.
// Items share a run slot and the process-wide setup caches, so a batch
// of requests on one instance amortizes graph validation, protocol
// construction and per-graph artifacts across its items.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var body batchBody
	if !s.decodePost(w, r, "POST only", 0, "batch", &body) {
		return
	}
	if len(body.Requests) == 0 {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "batch has no requests"})
		return
	}
	if len(body.Requests) > maxBatchItems {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("batch of %d requests exceeds limit %d", len(body.Requests), maxBatchItems)})
		return
	}
	// A batch spends one rate-limit token per item: admission control is
	// per body, but quota accounting is per request, like every other
	// meter on this path.
	if !s.allowClient(w, r, len(body.Requests)) {
		return
	}
	results, ok := s.admitAndRun(w, r, body.Requests)
	if !ok {
		return
	}
	// Assemble the array by hand from per-item Encode output so each
	// element is byte-identical to the corresponding /v1/run body.
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, res := range results {
		if i > 0 {
			buf.WriteString(",\n")
		}
		if res.Err != nil {
			_, phase := mapRunError(res.Err)
			elem, err := json.MarshalIndent(errorBody{Error: res.Err.Error(), Phase: phase, Protocol: body.Requests[i].Protocol}, "", "  ")
			if err != nil {
				writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
				return
			}
			buf.Write(elem)
			continue
		}
		var elem bytes.Buffer
		if err := dip.WireReportFrom(res.Report, body.Requests[i].Options.Seed).Encode(&elem); err != nil {
			writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error(), Protocol: body.Requests[i].Protocol})
			return
		}
		buf.Write(bytes.TrimRight(elem.Bytes(), "\n"))
	}
	buf.WriteString("\n]\n")
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}

// allowClient enforces the per-client rate limit, spending cost tokens
// (one per request carried by the body). On refusal it answers 429 with
// a Retry-After hint and meters the turned-away requests.
func (s *server) allowClient(w http.ResponseWriter, r *http.Request, cost int) bool {
	if s.limiter == nil {
		return true
	}
	ok, retryAfter := s.limiter.allow(clientKey(r), cost)
	if ok {
		return true
	}
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfter)))
	writeJSON(w, http.StatusTooManyRequests, errorBody{Error: "rate limit exceeded"})
	s.meters.RateLimited.Add(int64(cost))
	return false
}

// decodeStatus distinguishes the two ways a request body fails to
// decode: a body the byte cap cut off is 413 (the client must shrink
// it, not fix it), anything else is a plain 400.
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// mapRunError translates a run failure into an HTTP status. The taxonomy:
// engine phases carry the distinction between a bad instance (setup), an
// exhausted deadline, and a genuine protocol-level failure; request
// validation surfaces as dip.RequestError (the client's fault, 400); and
// anything unclassified is an internal failure, 500 — never blamed on
// the client, because an unrecognized error is by definition one the
// request did not cause in any way the service can name.
func mapRunError(err error) (status int, phase string) {
	var rerr *network.RunError
	if errors.As(err, &rerr) {
		switch rerr.Phase {
		case network.PhaseSetup:
			return http.StatusBadRequest, string(rerr.Phase)
		case network.PhaseDeadline, network.PhaseCanceled:
			return http.StatusGatewayTimeout, string(rerr.Phase)
		default:
			return http.StatusBadGateway, string(rerr.Phase)
		}
	}
	var reqErr *dip.RequestError
	if errors.As(err, &reqErr) {
		return http.StatusBadRequest, "request"
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return http.StatusGatewayTimeout, "deadline"
	}
	return http.StatusInternalServerError, "internal"
}

func (s *server) handleProtocols(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Protocols []dip.ProtocolInfo `json:"protocols"`
	}{dip.Protocols()})
}

// metricsPayload composes the service-level meters with the process-global
// engine meters and the engine state-pool statistics. Composition happens
// here because obs cannot import network (the engine publishes into obs).
type metricsPayload struct {
	Service   obs.ServiceMetrics       `json:"service"`
	Engine    obs.Metrics              `json:"engine"`
	StatePool network.PoolStats        `json:"state_pool"`
	Caches    []obs.CacheMetricsRecord `json:"caches"`
	Jobs      jobs.MetricsSnapshot     `json:"jobs"`
	Workers   int                      `json:"workers"`
	QueueCap  int                      `json:"queue_capacity"`
	UptimeMS  int64                    `json:"uptime_ms"`
	// Fleet holds the standing peer fleet's per-peer gauges (sessions
	// open/completed/failed, frames, bytes) under -peers; absent otherwise.
	Fleet *dip.FleetStats `json:"fleet,omitempty"`
	// Runtime exposes the process vitals chaos tooling gates on: a
	// goroutine count that keeps rising across a load session is a leak,
	// and so is monotone heap growth at steady request rates.
	Runtime runtimeMetrics `json:"runtime"`
}

type runtimeMetrics struct {
	Goroutines     int    `json:"goroutines"`
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var fleet *dip.FleetStats
	if s.fleet != nil {
		st := s.fleet.Stats()
		fleet = &st
	}
	writeJSON(w, http.StatusOK, metricsPayload{
		Fleet:     fleet,
		Service:   s.meters.SnapshotService(),
		Engine:    obs.Snapshot(),
		StatePool: network.StatePoolStats(),
		Caches:    obs.SnapshotCaches(),
		Jobs:      s.async.metrics.Snapshot(s.async.table, s.async.cfg.workers),
		Workers:   s.cfg.workers,
		QueueCap:  s.cfg.queue,
		UptimeMS:  time.Since(s.started).Milliseconds(),
		Runtime: runtimeMetrics{
			Goroutines:     runtime.NumGoroutine(),
			HeapAllocBytes: ms.HeapAlloc,
		},
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
