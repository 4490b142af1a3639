// Package jobs is the durable async job tier: one job table that holds
// the pending backlog, the jobs in flight and the retained results
// under one mutex, an optional append-only journal that makes the
// backlog survive SIGKILL, and a worker pool that drains the table with
// bounded retries and a poison lane. cmd/dipserve wires it behind POST
// /v1/jobs for proofs too heavy for the synchronous 503-when-full
// admission queue: workers may crash, and with a journal the whole
// process may be SIGKILL'd — on restart the journal replays the backlog
// exactly where it stood.
//
// The payload is opaque bytes end to end: the table never interprets
// it, so the tier has no dependency on the protocol engine and can
// carry any unit of work.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"slices"
	"sync"
	"time"
)

// Job is one unit of work. The caller mints IDs (the service derives
// them from a boot stamp and a sequence number, so they stay unique
// across restarts); the table refuses an ID only while it holds it.
type Job struct {
	// ID identifies the job everywhere: table, journal, API.
	ID string `json:"id"`
	// Key is the client's idempotency key, empty when none was given.
	// The journal persists it so dedup survives a restart.
	Key string `json:"key,omitempty"`
	// Payload is the opaque work description (a dip.Request document at
	// the service).
	Payload json.RawMessage `json:"payload"`
}

// Result is the terminal outcome of a job, recorded by Settle.
type Result struct {
	// OK reports success; Output then holds the job's product (a
	// dip-report/v1 document at the service).
	OK     bool            `json:"ok"`
	Output json.RawMessage `json:"output,omitempty"`
	// Error is the failure description when !OK.
	Error string `json:"error,omitempty"`
	// Parked marks a poison job: every attempt failed retryably until
	// the attempt budget ran out, so the job was parked rather than
	// retried forever. Parked implies !OK.
	Parked bool `json:"parked,omitempty"`
	// Attempts is how many run attempts the job consumed.
	Attempts int `json:"attempts,omitempty"`
}

// State is a job's lifecycle position.
type State string

const (
	// StateQueued: submitted, waiting in the backlog.
	StateQueued State = "queued"
	// StateRunning: dequeued by a worker, which is attempting it
	// (including backoff waits between attempts).
	StateRunning State = "running"
	// StateDone: finished successfully; Output holds the product.
	StateDone State = "done"
	// StateFailed: finished with a permanent (non-retryable) error.
	StateFailed State = "failed"
	// StateParked: poison — every attempt failed retryably until the
	// budget ran out; parked jobs are not retried again.
	StateParked State = "parked"
)

// Terminal reports whether s is a finished state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateParked
}

// Record is everything the table knows about one job, returned by copy.
type Record struct {
	ID  string
	Key string
	// Meta is a caller-chosen annotation carried through the lifecycle
	// (the service stores the protocol name for status answers).
	Meta     string
	State    State
	Attempts int
	// Output is the job's product when State is StateDone.
	Output json.RawMessage
	// Error describes the failure for StateFailed/StateParked.
	Error      string
	EnqueuedMS int64
	SettledMS  int64
}

// settle records res, reached at atMS, as the job's terminal state.
func (r *Record) settle(res Result, atMS int64) {
	r.Attempts = res.Attempts
	r.SettledMS = atMS
	switch {
	case res.OK:
		r.State, r.Output = StateDone, res.Output
	case res.Parked:
		r.State, r.Error = StateParked, res.Error
	default:
		r.State, r.Error = StateFailed, res.Error
	}
}

// result is the Result a settled record was settled with.
func (r *Record) result() Result {
	return Result{OK: r.State == StateDone, Output: r.Output, Error: r.Error, Parked: r.State == StateParked, Attempts: r.Attempts}
}

var (
	// ErrClosed is returned by table operations after Close.
	ErrClosed = errors.New("jobs: queue closed")
	// ErrBacklogFull refuses a submission that would grow the pending
	// backlog past its bound.
	ErrBacklogFull = errors.New("jobs: backlog full")
	// ErrDuplicateID refuses a submission whose ID the table holds.
	ErrDuplicateID = errors.New("jobs: duplicate job id")
	// ErrUnknownJob is returned by Settle/Requeue for an ID not in flight.
	ErrUnknownJob = errors.New("jobs: unknown or not in-flight job id")
)

// Defaults for Config zero values: a backlog large enough for any
// realistic sweep and small enough that a submission storm cannot grow
// process memory without bound; results live an hour, and at most 64k
// records are held (the oldest results evicted beyond that).
const (
	DefaultBacklogBound = 65536
	DefaultResultTTL    = time.Hour
	DefaultResultCap    = 65536
)

// Config bounds a table. Zero values pick the defaults.
type Config struct {
	// Backlog caps the pending jobs a submission may join; a journal's
	// replayed backlog is admitted whole, however long.
	Backlog int
	// TTL is how long a result stays after its settle. Cap bounds the
	// records held: past it the oldest results go first. Pending and
	// in-flight jobs are never evicted.
	TTL time.Duration
	Cap int
	// Meta labels the record of each job replayed from a journal, as
	// Submit's meta labels a new one.
	Meta func(payload json.RawMessage) string
	// now is the clock: time.Now unless a test injects one.
	now func() time.Time
}

// entry is one job the table holds: its record and its payload.
type entry struct {
	rec     Record
	payload json.RawMessage
}

func (e *entry) job() Job { return Job{ID: e.rec.ID, Key: e.rec.Key, Payload: e.payload} }

// Table holds every job the tier knows, under one mutex: the pending
// FIFO, the in-flight jobs in dequeue order, and the retained results
// in settle order, indexed by id and by idempotency key. A job is in
// exactly one of the three lists and in the id index until its result
// is evicted; eviction pops from the head of the settle order, so no
// structure grows with the number of jobs ever submitted. With a
// journal (OpenTable) every submission and settle is appended before it
// takes effect.
type Table struct {
	mu       sync.Mutex
	cond     *sync.Cond // signalled when pending grows or the table closes
	cfg      Config
	pending  []*entry
	inflight []*entry
	settled  []*entry
	byID     map[string]*entry
	byKey    map[string]*entry
	evicted  int64
	closed   bool
	j        *journal // nil for an in-memory table
	replay   ReplayStats
}

// NewTable builds an in-memory table: nothing survives the process.
func NewTable(cfg Config) *Table {
	if cfg.Backlog <= 0 {
		cfg.Backlog = DefaultBacklogBound
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultResultTTL
	}
	if cfg.Cap <= 0 {
		cfg.Cap = DefaultResultCap
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	t := &Table{cfg: cfg, byID: make(map[string]*entry), byKey: make(map[string]*entry)}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Submit admits job, labelled meta, in one critical section. When its
// key already names a job (queued, running or settled), that job's
// record comes back with dup true and nothing is minted: one key, one
// job, however many submissions. Otherwise the job is refused
// (ErrClosed, ErrDuplicateID, ErrBacklogFull, or the journal's append
// error) with nothing to undo, or appended to the journal and queued.
func (t *Table) Submit(job Job, meta string) (rec Record, dup bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked()
	if e := t.byKey[job.Key]; e != nil {
		return e.rec, true, nil
	}
	switch {
	case t.closed:
		return Record{}, false, ErrClosed
	case t.byID[job.ID] != nil:
		return Record{}, false, ErrDuplicateID
	case len(t.pending) >= t.cfg.Backlog:
		return Record{}, false, ErrBacklogFull
	}
	e := &entry{
		rec:     Record{ID: job.ID, Key: job.Key, Meta: meta, State: StateQueued, EnqueuedMS: t.cfg.now().UnixMilli()},
		payload: job.Payload,
	}
	if t.j != nil {
		if err := t.j.append(e.enqRecord()); err != nil {
			return Record{}, false, err
		}
	}
	t.indexLocked(e)
	t.pending = append(t.pending, e)
	t.cond.Signal()
	t.compactLocked()
	return e.rec, false, nil
}

func (t *Table) indexLocked(e *entry) {
	t.byID[e.rec.ID] = e
	if e.rec.Key != "" {
		t.byKey[e.rec.Key] = e
	}
}

// Dequeue blocks for the next pending job until ctx is done (returning
// ctx.Err()) or the table closes (returning ErrClosed). The job is then
// in flight, running, until Settle or Requeue; the journal records
// neither dequeue nor requeue, so a job in flight when the process dies
// replays as pending.
func (t *Table) Dequeue(ctx context.Context) (*Job, error) {
	// cond.Wait cannot watch ctx, so a helper goroutine pokes the cond
	// when the context ends; the loop re-checks ctx on every wakeup.
	stop := context.AfterFunc(ctx, func() {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	})
	defer stop()

	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if t.closed {
			return nil, ErrClosed
		}
		if len(t.pending) > 0 {
			e := t.pending[0]
			t.pending[0] = nil
			t.pending = t.pending[1:]
			e.rec.State = StateRunning
			t.inflight = append(t.inflight, e)
			j := e.job()
			return &j, nil
		}
		t.cond.Wait()
	}
}

// Attempt records that attempt n of in-flight job id has begun.
func (t *Table) Attempt(id string, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if e := t.byID[id]; e != nil && e.rec.State == StateRunning {
		e.rec.Attempts = n
	}
}

// Requeue returns in-flight job id to the front of the backlog: it was
// admitted before everything pending, so it keeps its place in line.
func (t *Table) Requeue(id string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, err := t.takeInFlightLocked(id)
	if err != nil {
		return err
	}
	e.rec.State = StateQueued
	t.pending = slices.Insert(t.pending, 0, e)
	t.cond.Signal()
	return nil
}

// Settle records in-flight job id's terminal result. The settle record
// is appended before the result is visible to Get: one call journals
// and settles. If the append fails, the result is still recorded (a
// poller gets its answer) and the error returned; the journal then
// holds the job unsettled, so the next boot re-runs it, to the same
// bytes.
func (t *Table) Settle(id string, res Result) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, err := t.takeInFlightLocked(id)
	if err != nil {
		return err
	}
	e.rec.settle(res, t.cfg.now().UnixMilli())
	if t.j != nil {
		err = t.j.append(e.settleRecord())
	} else {
		e.payload = nil // only a journal rewrite reads a result's payload
	}
	t.settled = append(t.settled, e)
	t.sweepLocked()
	t.compactLocked()
	return err
}

// takeInFlightLocked takes in-flight job id off the in-flight list.
func (t *Table) takeInFlightLocked(id string) (*entry, error) {
	e := t.byID[id]
	if e == nil || e.rec.State != StateRunning {
		return nil, ErrUnknownJob
	}
	i := slices.Index(t.inflight, e)
	t.inflight = slices.Delete(t.inflight, i, i+1)
	return e, nil
}

// Get returns the record for id.
func (t *Table) Get(id string) (Record, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked()
	e := t.byID[id]
	if e == nil {
		return Record{}, false
	}
	return e.rec, true
}

// sweepLocked evicts from the head of the settle order: results older
// than the TTL, then the oldest results while the table holds more than
// Cap records. Settle order is the order of SettledMS unless the wall
// clock steps back, and then a result outlives its TTL until those
// settled before it expire. An evicted result takes its id and key with
// it.
func (t *Table) sweepLocked() {
	cutoff := t.cfg.now().Add(-t.cfg.TTL).UnixMilli()
	for len(t.settled) > 0 {
		e := t.settled[0]
		if e.rec.SettledMS >= cutoff && len(t.byID) <= t.cfg.Cap {
			return
		}
		t.settled[0] = nil
		t.settled = t.settled[1:]
		delete(t.byID, e.rec.ID)
		if t.byKey[e.rec.Key] == e {
			delete(t.byKey, e.rec.Key)
		}
		t.evicted++
	}
}

// Depth is the pending backlog, excluding jobs in flight.
func (t *Table) Depth() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.pending)
}

// InFlight is the number of dequeued, unsettled jobs.
func (t *Table) InFlight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.inflight)
}

// Len is the number of records held: pending, in flight and retained.
func (t *Table) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.byID)
}

// Evicted counts the results evicted (TTL or cap) over the table's life.
func (t *Table) Evicted() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// Durable reports whether the table keeps a journal.
func (t *Table) Durable() bool { return t.j != nil }

// Replayed returns what OpenTable recovered from the journal (zeros for
// an in-memory table).
func (t *Table) Replayed() ReplayStats { return t.replay }

// Close stops admissions and dequeues and, with a journal, flushes,
// fsyncs and closes it. A job still in flight may be settled afterwards;
// its result is recorded, but with a journal the settle returns
// ErrClosed and the job replays pending on the next open.
func (t *Table) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	t.cond.Broadcast()
	if t.j == nil {
		return nil
	}
	return t.j.close()
}
