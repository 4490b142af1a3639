// The async job tier: POST /v1/jobs accepts the same dip.Request body
// as /v1/run but answers immediately with a job id; a worker pool
// drains the backlog through the same pooled engine, and GET
// /v1/jobs/{id} serves status and, once done, the identical
// dip-report/v1 document the synchronous path would have returned —
// wrapped in a dip-job/v1 envelope. With -journal the job table keeps a
// journal: a SIGKILL'd server replays its backlog on restart, jobs
// settled before the crash keep their results, and an Idempotency-Key
// header dedups client resubmissions across the whole lifecycle.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"dip"
	"dip/internal/jobs"
)

// jobsConfig are the job-tier knobs; flags in main.go fill them.
type jobsConfig struct {
	// workers drain the job table; 0 is ingest-only (accept and journal
	// now, process on a later boot with workers — the crash smoke uses
	// this to build a deterministic backlog).
	workers int
	// journal is the job table's journal file; empty keeps the table in
	// memory only (jobs do not survive a restart, results still
	// TTL-evict).
	journal string
	// backlog bounds pending jobs; a full backlog answers 503.
	backlog int
	// attempts bounds retries per job before it parks as poison.
	attempts int
	// attemptTimeout bounds one run attempt; 0 inherits cfg.timeout.
	attemptTimeout time.Duration
	// backoffBase seeds the exponential retry delay.
	backoffBase time.Duration
	// resultTTL/resultCap bound the retained results.
	resultTTL time.Duration
	resultCap int
}

func defaultJobsConfig() jobsConfig {
	return jobsConfig{
		workers:     2,
		backlog:     jobs.DefaultBacklogBound,
		attempts:    jobs.DefaultMaxAttempts,
		backoffBase: jobs.DefaultBaseBackoff,
		resultTTL:   jobs.DefaultResultTTL,
		resultCap:   jobs.DefaultResultCap,
	}
}

// jobsTier owns the job table, worker pool and metrics of the async
// path.
type jobsTier struct {
	table   *jobs.Table
	pool    *jobs.Pool
	metrics jobs.Metrics
	cfg     jobsConfig
	// bootNS + seq mint job ids unique across restarts: the boot stamp
	// distinguishes two processes, the sequence two jobs in one.
	bootNS int64
	seq    atomic.Int64
}

// newJobsTier builds (and for a journal, replays) the tier. run is the
// seeded engine entry (dip.RunContext in production; tests inject).
func newJobsTier(cfg jobsConfig, seed int64, run func(context.Context, dip.Request) (dip.Report, error)) (*jobsTier, error) {
	t := &jobsTier{
		cfg:    cfg,
		bootNS: time.Now().UnixNano(),
	}
	tc := jobs.Config{Backlog: cfg.backlog, TTL: cfg.resultTTL, Cap: cfg.resultCap, Meta: payloadProtocol}
	if cfg.journal == "" {
		t.table = jobs.NewTable(tc)
	} else {
		table, err := jobs.OpenTable(cfg.journal, tc)
		if err != nil {
			return nil, err
		}
		t.table = table
	}
	stats := t.table.Replayed()
	t.metrics.Replayed.Add(int64(stats.Pending))
	t.metrics.ReplayedSettled.Add(int64(stats.Settled))

	t.pool = jobs.NewPool(t.table, jobs.PoolConfig{
		Workers:        cfg.workers,
		Run:            jobRunFunc(run),
		Retryable:      jobRetryable,
		MaxAttempts:    cfg.attempts,
		AttemptTimeout: cfg.attemptTimeout,
		BaseBackoff:    cfg.backoffBase,
		Seed:           seed,
		Metrics:        &t.metrics,
	})
	return t, nil
}

// payloadProtocol peeks the protocol name out of a stored payload.
func payloadProtocol(payload json.RawMessage) string {
	var head struct {
		Protocol string `json:"protocol"`
	}
	_ = json.Unmarshal(payload, &head)
	return head.Protocol
}

// mintID returns a job id unique across restarts.
func (t *jobsTier) mintID() string {
	return fmt.Sprintf("j-%x-%06d", t.bootNS, t.seq.Add(1))
}

// stop drains the tier: workers finish their current attempt (backoff
// waits are cut and the job requeued), then the table closes — for a
// journal that is the fsync that seals the backlog for the next boot.
func (t *jobsTier) stop() {
	t.pool.Stop()
	_ = t.table.Close()
}

// jobRunFunc adapts the engine entry to the pool's payload-in,
// payload-out shape: decode the stored dip.Request, run it, encode the
// dip-report/v1 answer. The encoding is the same WireReportFrom path
// /v1/run uses, so a job's report is byte-identical to the synchronous
// answer for the same request, with or without a journal.
func jobRunFunc(run func(context.Context, dip.Request) (dip.Report, error)) jobs.RunFunc {
	return func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
		var req dip.Request
		dec := json.NewDecoder(bytes.NewReader(payload))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			// A payload that no longer decodes is the submission's
			// fault forever: permanent, never retried.
			return nil, &dip.RequestError{Err: fmt.Errorf("decoding job payload: %w", err)}
		}
		rep, err := run(ctx, req)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := dip.WireReportFrom(rep, req.Options.Seed).Encode(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
}

// jobRetryable classifies attempt failures with the same taxonomy the
// synchronous path maps to HTTP statuses: 400-class failures (request
// validation, setup) are the payload's fault and will fail identically
// forever — permanent. Everything else (timeouts, mid-run faults,
// contained panics, internal errors) might be load or a transient bug:
// retry, bounded by the attempt budget and the poison lane.
func jobRetryable(err error) bool {
	status, _ := mapRunError(err)
	return status != http.StatusBadRequest
}

// handleJobs is POST /v1/jobs: admit a request into the async tier.
func (s *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	var req dip.Request
	if !s.decodePost(w, r, "POST only (poll GET /v1/jobs/{id})", 1, "request", &req) {
		return
	}
	if s.draining.Load() {
		s.refuse(w, "server draining", 1)
		return
	}

	t := s.async
	payload, err := json.Marshal(req)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	job := jobs.Job{ID: t.mintID(), Key: r.Header.Get("Idempotency-Key"), Payload: payload}
	rec, dup, err := t.table.Submit(job, req.Protocol)
	switch {
	case errors.Is(err, jobs.ErrBacklogFull):
		s.refuse(w, "job backlog full", 1)
	case errors.Is(err, jobs.ErrClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: "job queue closed"})
		s.meters.Rejected.Add(1)
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	case dup:
		// The key already names a job (queued, running or settled):
		// answer its current state and never mint a second run. This is
		// what makes client retry storms safe.
		t.metrics.IdemHits.Add(1)
		s.writeJob(w, http.StatusOK, rec)
	default:
		t.metrics.Enqueued.Add(1)
		s.meters.Requests.Add(1)
		s.writeJob(w, http.StatusAccepted, rec)
	}
}

// handleJobStatus is GET /v1/jobs/{id}: the polling endpoint.
func (s *server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, errorBody{Error: "GET only"})
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "want /v1/jobs/{id}"})
		return
	}
	rec, ok := s.async.table.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("job %s unknown (never submitted, or its result expired)", id)})
		return
	}
	s.writeJob(w, http.StatusOK, rec)
}

// writeJob answers with the dip-job/v1 envelope for rec.
func (s *server) writeJob(w http.ResponseWriter, status int, rec jobs.Record) {
	env, err := wireJobFromRecord(rec)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, status, env)
}

// wireJobFromRecord shapes a table record into its dip-job/v1 document.
func wireJobFromRecord(rec jobs.Record) (*dip.WireJob, error) {
	env := &dip.WireJob{
		Schema:         dip.JobSchema,
		ID:             rec.ID,
		State:          string(rec.State),
		Protocol:       rec.Meta,
		IdempotencyKey: rec.Key,
		Attempts:       rec.Attempts,
		EnqueuedUnixMS: rec.EnqueuedMS,
		SettledUnixMS:  rec.SettledMS,
	}
	if rec.State == jobs.StateDone {
		var rep dip.WireReport
		if err := json.Unmarshal(rec.Output, &rep); err != nil {
			return nil, fmt.Errorf("job %s stored an undecodable report: %w", rec.ID, err)
		}
		env.Report = &rep
	} else {
		env.Error = rec.Error
	}
	return env, nil
}
