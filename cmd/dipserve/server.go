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
	"sync"
	"sync/atomic"
	"time"

	"dip"
	"dip/internal/jobs"
	"dip/internal/network"
	"dip/internal/obs"
)

// config are the serving knobs; flags in main.go fill it.
type config struct {
	// addr is the listen address (":8123", "127.0.0.1:0", ...).
	addr string
	// workers is the number of run workers — the service's concurrency
	// ceiling. Each worker checks engine state out of the shared pool, so
	// the pool is sized to at least this.
	workers int
	// queue is the admission queue depth: requests admitted but not yet
	// picked up by a worker. A full queue answers 503 immediately.
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

// job is one admitted unit of work traveling from handler to worker —
// a single run request, or a whole batch (batch non-nil). The handler
// blocks on done; the worker fulfills exactly once. A batch occupies one
// queue slot and one worker for its whole duration: admission control is
// per body, so a client trades queue fairness for setup amortization.
type job struct {
	ctx  context.Context
	req  dip.Request
	rep  dip.Report
	err  error
	done chan struct{}

	batch   []dip.Request
	results []dip.BatchResult
}

// server is the dipserve service: a bounded admission queue in front of a
// fixed worker pool, every worker running requests through dip.RunContext
// on the shared pooled engine.
type server struct {
	cfg    config
	meters *obs.ServiceMeters
	jobs   chan *job
	// quit tells the workers to finish the queue and exit; stopped is
	// closed once stop() has retired them and failed any straggler job.
	// The jobs channel itself is NEVER closed: a handler may race its
	// draining check against stop() (httpSrv.Shutdown can time out with
	// handlers still between admission and enqueue), and a send on a
	// closed channel would panic the process during its last breath.
	quit    chan struct{}
	stopped chan struct{}
	// limiter is the per-client admission rate limiter; nil when
	// cfg.rateLimit is 0.
	limiter *limiter
	// async is the durable job tier behind POST /v1/jobs — its queue,
	// store, and worker pool are independent of the synchronous
	// admission queue above.
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
	wg       sync.WaitGroup
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
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.queue < 1 {
		cfg.queue = 1
	}
	s := &server{
		cfg:     cfg,
		meters:  &obs.ServiceMeters{},
		jobs:    make(chan *job, cfg.queue),
		quit:    make(chan struct{}),
		stopped: make(chan struct{}),
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

// start launches the worker pool. stop drains it: the admission queue is
// closed and every queued job still runs before workers exit.
func (s *server) start() {
	// Size the shared engine-state pool to the engine concurrency — the
	// request workers plus the job workers, which run through the same pool
	// at the same time — so a fully loaded service recycles state instead
	// of allocating; keep the default floor so harness runs in the same
	// process stay pooled.
	if n := s.cfg.workers + max(s.cfg.jobs.workers, 0); n > 32 {
		network.SetStatePoolCapacity(n)
	}
	for i := 0; i < s.cfg.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.async.pool.Start()
}

// stop retires the worker pool: every job queued before (or racing
// with) the stop signal still runs or is failed, and every handler
// blocked on a job is released. Safe against concurrent admission —
// see the field comment on quit/stopped.
func (s *server) stop() {
	close(s.quit)
	s.wg.Wait()
	// Fail any job that slipped into the queue after the workers took
	// their final drain pass; its handler is released via j.done.
	for {
		select {
		case j := <-s.jobs:
			s.meters.QueueDepth.Add(-1)
			j.err = errServerStopped
			close(j.done)
		default:
			// Handlers that enqueue after this point find stopped
			// closed and answer 503 without waiting on j.done.
			close(s.stopped)
			// Retire the job tier last: its workers finish their current
			// attempt, backoff waits nack their job back, and closing the
			// queue seals the journal for the next boot.
			s.async.stop()
			return
		}
	}
}

// errServerStopped marks a job the worker pool never ran because the
// service shut down around it.
var errServerStopped = errors.New("server stopped before the request ran")

func (s *server) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.jobs:
			s.meters.QueueDepth.Add(-1)
			s.runJob(j)
		case <-s.quit:
			// Finish what is already queued, then exit. New jobs may
			// still race in behind this drain; stop() sweeps those.
			for {
				select {
				case j := <-s.jobs:
					s.meters.QueueDepth.Add(-1)
					s.runJob(j)
				default:
					return
				}
			}
		}
	}
}

func (s *server) runJob(j *job) {
	defer close(j.done)
	// The client may be gone (handler timeout, dropped connection); don't
	// burn a worker on a run nobody will read.
	if err := j.ctx.Err(); err != nil {
		j.err = err
		return
	}
	s.meters.InFlight.Add(1)
	defer s.meters.InFlight.Add(-1)

	ctx := j.ctx
	if s.cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.timeout)
		defer cancel()
	}
	if j.batch != nil {
		j.results = s.runBatch(ctx, j.batch)
		return
	}
	pm := s.meters.Protocol(j.req.Protocol)
	pm.Requests.Add(1)
	start := time.Now()
	j.rep, j.err = s.safeRun(ctx, j.req)
	pm.Latency.Observe(time.Since(start))
	if j.err != nil {
		pm.Errors.Add(1)
		s.meters.Failures.Add(1)
	}
}

// safeRun shields the worker from a panicking run: the engine recovers
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

// runBatch runs every item of a batch job sequentially on this worker,
// metering each item like a plain request (one deadline covers the whole
// batch, matching the admission unit).
func (s *server) runBatch(ctx context.Context, reqs []dip.Request) []dip.BatchResult {
	out := make([]dip.BatchResult, len(reqs))
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
	return out
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
// synchronous admission queue's depth, the async backlog and its
// in-flight count, and whether the server is draining.
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
		JobBacklog:   s.async.queue.Depth(),
		JobsInFlight: s.async.queue.InFlight(),
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

func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	if !s.allowClient(w, r, 1) {
		return
	}
	var req dip.Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, decodeStatus(err), errorBody{Error: fmt.Sprintf("decoding request: %v", err)})
		return
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server draining"})
		s.meters.Rejected.Add(1)
		return
	}

	j := &job{ctx: r.Context(), req: req, done: make(chan struct{})}
	select {
	case s.jobs <- j:
		s.meters.QueueDepth.Add(1)
		s.meters.Requests.Add(1)
	default:
		// Backpressure: a full queue answers immediately instead of
		// stacking goroutines. Clients retry after the hint.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "admission queue full"})
		s.meters.Rejected.Add(1)
		return
	}

	if !s.awaitJob(j) {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: errServerStopped.Error()})
		return
	}
	if j.err != nil {
		status, phase := mapRunError(j.err)
		writeJSON(w, status, errorBody{Error: j.err.Error(), Phase: phase, Protocol: req.Protocol})
		return
	}
	// Encode to a buffer first: one write sets Content-Length and puts the
	// whole response in a single segment, which matters at load-test rates.
	var buf bytes.Buffer
	if err := dip.WireReportFrom(j.rep, req.Options.Seed).Encode(&buf); err != nil {
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

// maxBatchItems bounds one batch body: a batch occupies a worker for its
// whole duration, so the bound keeps a single client from turning the
// bounded worker pool into one unbounded run.
const maxBatchItems = 256

// handleBatch admits a whole batch as one queue unit and answers with a
// JSON array, one element per request in order: a dip-report/v1 document
// on success, an error object (same shape as /v1/run errors) on failure.
// Items share a worker and the process-wide setup caches, so a batch of
// requests on one instance amortizes graph validation, protocol
// construction and per-graph artifacts across its items.
func (s *server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
		return
	}
	var body batchBody
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&body); err != nil {
		writeJSON(w, decodeStatus(err), errorBody{Error: fmt.Sprintf("decoding batch: %v", err)})
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
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "server draining"})
		s.meters.Rejected.Add(int64(len(body.Requests)))
		return
	}

	j := &job{ctx: r.Context(), batch: body.Requests, done: make(chan struct{})}
	select {
	case s.jobs <- j:
		s.meters.QueueDepth.Add(1)
		s.meters.Requests.Add(int64(len(body.Requests)))
	default:
		// Rejected counts requests, not bodies: a turned-away batch of k
		// items is k rejections, mirroring the Requests.Add above (the
		// admission and rejection counters must stay in the same unit
		// for rejected/(requests+rejected) to mean anything).
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "admission queue full"})
		s.meters.Rejected.Add(int64(len(body.Requests)))
		return
	}

	if !s.awaitJob(j) {
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: errServerStopped.Error()})
		return
	}
	if j.err != nil { // pre-run failure (client gone before a worker started)
		status, phase := mapRunError(j.err)
		writeJSON(w, status, errorBody{Error: j.err.Error(), Phase: phase})
		return
	}
	// Assemble the array by hand from per-item Encode output so each
	// element is byte-identical to the corresponding /v1/run body.
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, res := range j.results {
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

// awaitJob blocks until the job is fulfilled. The false return is the
// shutdown edge case: the handler enqueued after the workers' final
// drain pass AND after stop()'s straggler sweep, so nobody will ever
// close j.done — possible only when httpSrv.Shutdown timed out with
// this handler still in flight. Any job fulfilled or swept during
// stop() has its done closed before stopped closes, so the re-check is
// race-free.
func (s *server) awaitJob(j *job) bool {
	select {
	case <-j.done:
		return true
	case <-s.stopped:
		select {
		case <-j.done:
			return true
		default:
			return false
		}
	}
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
	if errors.Is(err, errServerStopped) {
		// stop() failed the job while it was still queued: the same
		// answer as admission after stop.
		return http.StatusServiceUnavailable, "stopped"
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
		Jobs:      s.async.metrics.Snapshot(s.async.queue, s.async.store, s.async.cfg.workers, s.async.durable),
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
