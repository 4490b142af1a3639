package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"dip/internal/faults"
)

// fastPool builds a pool with millisecond backoffs so retry tests run in
// test time, not wall time.
func fastPool(tab *Table, workers int, run RunFunc, retryable func(error) bool, maxAttempts int, m *Metrics) *Pool {
	return NewPool(tab, PoolConfig{
		Workers:     workers,
		Run:         run,
		Retryable:   retryable,
		MaxAttempts: maxAttempts,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		Seed:        1,
		Metrics:     m,
	})
}

// waitFor polls cond until true or the deadline, failing the test on
// expiry.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPoolDrains: a pool of workers runs every submitted job to done.
func TestPoolDrains(t *testing.T) {
	tab := NewTable(Config{})
	var m Metrics
	run := func(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
		return json.RawMessage(`{"echo":` + string(payload) + `}`), nil
	}
	p := fastPool(tab, 3, run, nil, 3, &m)
	p.Start()
	const n = 40
	for i := 0; i < n; i++ {
		submit(t, tab, mkJob(i))
	}
	waitFor(t, "all jobs done", func() bool { return m.Completed.Value() == n })
	p.Stop()
	if tab.Depth() != 0 || tab.InFlight() != 0 {
		t.Fatalf("table not drained: depth %d inflight %d", tab.Depth(), tab.InFlight())
	}
	for i := 0; i < n; i++ {
		r, ok := tab.Get(fmt.Sprintf("j-%04d", i))
		if !ok || r.State != StateDone {
			t.Fatalf("job %d: %+v ok=%v", i, r, ok)
		}
		if want := fmt.Sprintf(`{"echo":{"i":%d}}`, i); string(r.Output) != want {
			t.Fatalf("job %d output %s, want %s", i, r.Output, want)
		}
	}
}

// TestPoolRetriesThenSucceeds: retryable failures back off and retry;
// the job completes once the fault clears, and the retry counter shows
// the attempts.
func TestPoolRetriesThenSucceeds(t *testing.T) {
	tab := NewTable(Config{})
	var m Metrics
	var calls atomic.Int64
	run := func(_ context.Context, _ json.RawMessage) (json.RawMessage, error) {
		if calls.Add(1) <= 2 {
			return nil, errors.New("transient")
		}
		return json.RawMessage(`"ok"`), nil
	}
	p := fastPool(tab, 1, run, nil, 5, &m)
	p.Start()
	defer p.Stop()
	submit(t, tab, mkJob(0))
	waitFor(t, "retried job to complete", func() bool { return m.Completed.Value() == 1 })
	if got := m.Retries.Value(); got != 2 {
		t.Fatalf("retries = %d, want 2", got)
	}
	r, _ := tab.Get("j-0000")
	if r.State != StateDone || r.Attempts != 3 {
		t.Fatalf("record: %+v, want done after 3 attempts", r)
	}
}

// TestPoolPermanentFailureNoRetry: a non-retryable error settles failed
// on the first attempt.
func TestPoolPermanentFailureNoRetry(t *testing.T) {
	tab := NewTable(Config{})
	var m Metrics
	var calls atomic.Int64
	permanent := errors.New("bad request")
	run := func(_ context.Context, _ json.RawMessage) (json.RawMessage, error) {
		calls.Add(1)
		return nil, permanent
	}
	p := fastPool(tab, 1, run, func(err error) bool { return !errors.Is(err, permanent) }, 5, &m)
	p.Start()
	defer p.Stop()
	submit(t, tab, mkJob(0))
	waitFor(t, "permanent failure to settle", func() bool { return m.Failed.Value() == 1 })
	if calls.Load() != 1 {
		t.Fatalf("permanent failure retried: %d calls", calls.Load())
	}
	r, _ := tab.Get("j-0000")
	if r.State != StateFailed || r.Error != "bad request" {
		t.Fatalf("record: %+v", r)
	}
}

// TestPoolParksPoison: a job that fails retryably forever parks after
// MaxAttempts instead of spinning.
func TestPoolParksPoison(t *testing.T) {
	tab := NewTable(Config{})
	var m Metrics
	var calls atomic.Int64
	run := func(_ context.Context, _ json.RawMessage) (json.RawMessage, error) {
		calls.Add(1)
		return nil, errors.New("always transient")
	}
	p := fastPool(tab, 1, run, nil, 3, &m)
	p.Start()
	defer p.Stop()
	submit(t, tab, mkJob(0))
	waitFor(t, "poison job to park", func() bool { return m.Parked.Value() == 1 })
	if calls.Load() != 3 {
		t.Fatalf("parked after %d attempts, want 3", calls.Load())
	}
	r, _ := tab.Get("j-0000")
	if r.State != StateParked || r.Attempts != 3 {
		t.Fatalf("record: %+v", r)
	}
	if tab.Depth() != 0 || tab.InFlight() != 0 {
		t.Fatal("parked job still occupies the table")
	}
}

// TestPoolContainsPanics: a worker-kill (panic mid-attempt) is contained
// and counted; retries converge once the chaos budget is spent.
func TestPoolContainsPanics(t *testing.T) {
	tab := NewTable(Config{})
	var m Metrics
	inner := func(_ context.Context, _ json.RawMessage) (json.RawMessage, error) {
		return json.RawMessage(`"survived"`), nil
	}
	run := faults.WorkerKill(7, 2, inner)
	p := fastPool(tab, 2, RunFunc(run), nil, 5, &m)
	p.Start()
	defer p.Stop()
	for i := 0; i < 4; i++ {
		submit(t, tab, mkJob(i))
	}
	waitFor(t, "all jobs to survive worker kills", func() bool { return m.Completed.Value() == 4 })
	if m.Panics.Value() != 2 {
		t.Fatalf("panics contained = %d, want 2", m.Panics.Value())
	}
	if m.Parked.Value() != 0 || m.Failed.Value() != 0 {
		t.Fatalf("kills parked/failed jobs: parked %d failed %d", m.Parked.Value(), m.Failed.Value())
	}
}

// TestPoolAttemptTimeout: a stuck attempt is cut by the per-attempt
// deadline and the context actually reaches the run.
func TestPoolAttemptTimeout(t *testing.T) {
	tab := NewTable(Config{})
	var m Metrics
	run := func(ctx context.Context, _ json.RawMessage) (json.RawMessage, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	p := NewPool(tab, PoolConfig{
		Workers:        1,
		Run:            run,
		MaxAttempts:    2,
		AttemptTimeout: 5 * time.Millisecond,
		BaseBackoff:    time.Millisecond,
		MaxBackoff:     2 * time.Millisecond,
		Metrics:        &m,
	})
	p.Start()
	defer p.Stop()
	submit(t, tab, mkJob(0))
	waitFor(t, "stuck job to park", func() bool { return m.Parked.Value() == 1 })
}

// TestPoolStopNacksBackoffWait: stopping mid-backoff requeues the job
// instead of losing it — the drain contract the journal's replay
// depends on.
func TestPoolStopNacksBackoffWait(t *testing.T) {
	tab := NewTable(Config{})
	var m Metrics
	attempted := make(chan struct{}, 1)
	run := func(_ context.Context, _ json.RawMessage) (json.RawMessage, error) {
		select {
		case attempted <- struct{}{}:
		default:
		}
		return nil, errors.New("transient")
	}
	p := NewPool(tab, PoolConfig{
		Workers:     1,
		Run:         run,
		MaxAttempts: 5,
		BaseBackoff: 10 * time.Second, // park the worker in a long backoff
		MaxBackoff:  10 * time.Second,
		Metrics:     &m,
	})
	p.Start()
	submit(t, tab, mkJob(0))
	<-attempted
	// The worker is now sleeping its 10s backoff; Stop must cut it
	// short and requeue the job promptly.
	done := make(chan struct{})
	go func() { p.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("Stop blocked on a backoff sleep")
	}
	if tab.Depth() != 1 {
		t.Fatalf("job lost during drain: depth %d, want 1", tab.Depth())
	}
	if r, _ := tab.Get("j-0000"); r.State != StateQueued {
		t.Fatalf("requeued job state %q, want queued", r.State)
	}
}

// TestPoolZeroWorkersIngestOnly: a pool with no workers accepts but
// never runs — the ingest-only mode the crash smoke uses to build a
// deterministic backlog.
func TestPoolZeroWorkersIngestOnly(t *testing.T) {
	tab := NewTable(Config{})
	var m Metrics
	p := fastPool(tab, 0, func(_ context.Context, _ json.RawMessage) (json.RawMessage, error) {
		t.Error("ingest-only pool ran a job")
		return nil, nil
	}, nil, 3, &m)
	p.Start()
	for i := 0; i < 5; i++ {
		submit(t, tab, mkJob(i))
	}
	time.Sleep(20 * time.Millisecond)
	p.Stop()
	if tab.Depth() != 5 {
		t.Fatalf("ingest-only depth = %d, want 5", tab.Depth())
	}
}

// TestPoolCrashReplayConvergence is the tier-level crash drill: run a
// journaled pool, kill the process mid-backlog (simulated by stopping
// the pool and reopening the journal without closing the table), and
// require the second boot to complete every job exactly once.
func TestPoolCrashReplayConvergence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	const n = 30

	// Boot 1: slow runs, so Stop() lands mid-backlog.
	tab1, err := OpenTable(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var m1 Metrics
	decode := func(payload json.RawMessage) int {
		var v struct {
			I int `json:"i"`
		}
		json.Unmarshal(payload, &v)
		return v.I
	}
	run1 := func(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
		time.Sleep(3 * time.Millisecond)
		return json.RawMessage(fmt.Sprintf(`{"done":%d}`, decode(payload))), nil
	}
	p1 := fastPool(tab1, 2, run1, nil, 3, &m1)
	p1.Start()
	for i := 0; i < n; i++ {
		j := mkJob(i)
		j.Key = fmt.Sprintf("key-%d", i)
		submit(t, tab1, j)
	}
	time.Sleep(25 * time.Millisecond) // let some jobs finish
	p1.Stop()
	// No tab1.Close(): SIGKILL. Every append has been written to the
	// OS, so the journal is as durable as promised.

	// Boot 2: replay and finish everything.
	tab2, err := OpenTable(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	stats := tab2.Replayed()
	if stats.Pending+stats.Settled != n {
		t.Fatalf("replay lost jobs: %d pending + %d settled != %d", stats.Pending, stats.Settled, n)
	}
	if stats.Pending == 0 {
		t.Fatal("crash drill finished everything before the kill; backlog empty")
	}
	settled := make(map[int]bool)
	for i := 0; i < n; i++ {
		if r, _ := tab2.Get(fmt.Sprintf("j-%04d", i)); r.State == StateDone {
			settled[i] = true
		}
	}
	var m2 Metrics
	var reran atomic.Int64
	run2 := func(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
		// A settled job must never re-run; an unsettled-but-executed one
		// may (at-least-once).
		i := decode(payload)
		if settled[i] {
			reran.Add(1)
		}
		return json.RawMessage(fmt.Sprintf(`{"done":%d}`, i)), nil
	}
	p2 := fastPool(tab2, 4, run2, nil, 3, &m2)
	p2.Start()
	waitFor(t, "replayed backlog to finish", func() bool {
		return m2.Completed.Value() == int64(stats.Pending)
	})
	p2.Stop()
	if err := tab2.Close(); err != nil {
		t.Fatal(err)
	}
	if reran.Load() != 0 {
		t.Fatalf("%d settled jobs re-ran after replay", reran.Load())
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("j-%04d", i)
		r, ok := tab2.Get(id)
		if !ok || r.State != StateDone || r.Key != fmt.Sprintf("key-%d", i) {
			t.Fatalf("job %s after convergence: %+v (held %v)", id, r, ok)
		}
	}
}
