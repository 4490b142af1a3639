package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"dip/internal/stats"
)

// RunFunc executes one job attempt: payload in, output out. The service
// decodes a dip.Request from the payload, runs it on the pooled engine,
// and encodes the dip-report/v1 answer. The pool contains panics, so a
// RunFunc may fault without taking a worker down.
type RunFunc func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error)

// PoolConfig shapes a worker pool.
type PoolConfig struct {
	// Workers is the number of concurrent drain goroutines. Zero is a
	// valid, useful configuration: ingest-only — jobs are accepted and
	// journaled now, processed by a later boot with workers.
	Workers int
	// Run executes one attempt.
	Run RunFunc
	// Retryable classifies attempt errors: true means try again (up to
	// MaxAttempts), false means the failure is permanent (e.g. a
	// malformed request — no retry will fix the client's payload). Nil
	// retries everything.
	Retryable func(error) bool
	// MaxAttempts bounds attempts per job; past it the job parks in the
	// poison lane. Minimum 1; 0 picks the default.
	MaxAttempts int
	// AttemptTimeout bounds one attempt; 0 means no per-attempt bound.
	AttemptTimeout time.Duration
	// BaseBackoff/MaxBackoff shape the exponential retry delay:
	// base<<(attempt-1), capped at max, plus deterministic jitter in
	// [0, delay/2). Zeros pick defaults.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Seed keys the jitter stream so a pool's retry schedule is
	// reproducible.
	Seed int64
	// Metrics, when set, is updated by the pool.
	Metrics *Metrics
}

// Defaults for PoolConfig zero values.
const (
	DefaultMaxAttempts = 4
	DefaultBaseBackoff = 50 * time.Millisecond
	DefaultMaxBackoff  = 5 * time.Second
)

// Pool drains a table through RunFunc with bounded retries, recording
// each attempt, requeue and settle in the table. Stop is drain-shaped:
// in-flight attempts finish, backoff waits are cut short and the
// waiting job is requeued (with a journal it then survives to the next
// boot).
type Pool struct {
	cfg  PoolConfig
	t    *Table
	ctx  context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup
}

// NewPool builds a pool over t. Call Start to begin draining.
func NewPool(t *Table, cfg PoolConfig) *Pool {
	if cfg.Workers < 0 {
		cfg.Workers = 0
	}
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = DefaultBaseBackoff
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	if cfg.Retryable == nil {
		cfg.Retryable = func(error) bool { return true }
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Pool{cfg: cfg, t: t, ctx: ctx, stop: cancel}
}

// Start launches the workers.
func (p *Pool) Start() {
	for i := 0; i < p.cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
}

// Stop drains the pool: running attempts finish (their per-attempt
// timeout still applies), backoff sleeps abort and requeue their job,
// and every worker exits before Stop returns. The table itself stays
// open — close it after Stop so every settle is journaled.
func (p *Pool) Stop() {
	p.stop()
	p.wg.Wait()
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		j, err := p.t.Dequeue(p.ctx)
		if err != nil {
			return // pool stopping or table closed
		}
		p.process(j)
	}
}

// process runs one job to a settle or a requeue. The retry loop stays
// on this worker: between attempts it sleeps the backoff, and if the
// pool stops mid-sleep the job is requeued (and, durably, replays next
// boot) instead of losing its place.
func (p *Pool) process(j *Job) {
	m := p.cfg.Metrics
	if m != nil {
		m.InFlight.Add(1)
		defer m.InFlight.Add(-1)
	}
	for attempt := 1; ; attempt++ {
		p.t.Attempt(j.ID, attempt)
		out, err := p.attempt(j)
		if err == nil {
			p.settle(j, Result{OK: true, Output: out, Attempts: attempt})
			if m != nil {
				m.Completed.Add(1)
			}
			return
		}
		if !p.cfg.Retryable(err) {
			p.settle(j, Result{Error: err.Error(), Attempts: attempt})
			if m != nil {
				m.Failed.Add(1)
			}
			return
		}
		if attempt >= p.cfg.MaxAttempts {
			// Poison lane: the job keeps failing retryably; park it with
			// its last error instead of burning workers forever.
			p.settle(j, Result{Error: err.Error(), Parked: true, Attempts: attempt})
			if m != nil {
				m.Parked.Add(1)
			}
			return
		}
		if m != nil {
			m.Retries.Add(1)
		}
		delay := retryDelay(p.cfg.Seed, j.ID, attempt, p.cfg.BaseBackoff, p.cfg.MaxBackoff)
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-p.ctx.Done():
			t.Stop()
			// Draining mid-backoff: give the job back. It re-runs from
			// attempt 1 later — attempts are not persisted, which errs
			// toward retrying, never toward losing work.
			_ = p.t.Requeue(j.ID) // it is in flight on this worker
			return
		}
	}
}

// attempt executes one bounded, panic-contained run.
func (p *Pool) attempt(j *Job) (out json.RawMessage, err error) {
	ctx := p.ctx
	if p.cfg.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.cfg.AttemptTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			if m := p.cfg.Metrics; m != nil {
				m.Panics.Add(1)
			}
			err = fmt.Errorf("jobs: attempt panicked: %v", r)
		}
	}()
	return p.cfg.Run(ctx, j.Payload)
}

// settle records the job's result; a settle the journal refused still
// answers pollers, and the job re-runs on the next boot.
func (p *Pool) settle(j *Job, res Result) {
	if err := p.t.Settle(j.ID, res); err != nil && p.cfg.Metrics != nil {
		p.cfg.Metrics.AckErrors.Add(1)
	}
}

// retryDelay is the backoff schedule: base<<(attempt-1) capped at max,
// plus a deterministic jitter in [0, delay/2) keyed by (seed, job,
// attempt) — two pools with the same seed retry on the same schedule,
// and two jobs in one pool never thundering-herd the same instant.
func retryDelay(seed int64, jobID string, attempt int, base, max time.Duration) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	h := fnv.New64a()
	h.Write([]byte(jobID))
	mixed := stats.DeriveSeed(seed, int64(h.Sum64())^int64(attempt))
	if half := int64(d / 2); half > 0 {
		jitter := mixed % half
		if jitter < 0 {
			jitter += half
		}
		d += time.Duration(jitter)
	}
	return d
}
