package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func mkJob(i int) Job {
	return Job{
		ID:      fmt.Sprintf("j-%04d", i),
		Payload: json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)),
	}
}

// testClock drives a table's injectable clock.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// newTestTable builds an in-memory table on a test clock.
func newTestTable(cfg Config) (*Table, *testClock) {
	c := &testClock{t: time.Unix(1700000000, 0)}
	cfg.now = c.now
	return NewTable(cfg), c
}

// submit admits j, failing the test on a refusal or a dedup.
func submit(t *testing.T, tab *Table, j Job) Record {
	t.Helper()
	rec, dup, err := tab.Submit(j, "t")
	if err != nil || dup {
		t.Fatalf("submit %s: dup=%v err=%v", j.ID, dup, err)
	}
	return rec
}

// run dequeues the next job and settles it with res.
func run(t *testing.T, tab *Table, res Result) string {
	t.Helper()
	j, err := tab.Dequeue(context.Background())
	if err != nil {
		t.Fatalf("dequeue: %v", err)
	}
	if err := tab.Settle(j.ID, res); err != nil {
		t.Fatalf("settle %s: %v", j.ID, err)
	}
	return j.ID
}

// TestMemQueueFIFO: jobs come out in submission order, and settling
// them empties the in-flight set.
func TestMemQueueFIFO(t *testing.T) {
	tab := NewTable(Config{})
	for i := 0; i < 5; i++ {
		submit(t, tab, mkJob(i))
	}
	if d := tab.Depth(); d != 5 {
		t.Fatalf("depth = %d, want 5", d)
	}
	for i := 0; i < 5; i++ {
		if id, want := run(t, tab, Result{OK: true}), fmt.Sprintf("j-%04d", i); id != want {
			t.Fatalf("dequeue %d = %s, want %s (FIFO violated)", i, id, want)
		}
	}
	if tab.Depth() != 0 || tab.InFlight() != 0 {
		t.Fatalf("table not drained: depth %d, inflight %d", tab.Depth(), tab.InFlight())
	}
}

// TestMemQueueDuplicateID: an ID is refused while the table holds it —
// pending or retained as a result — and free again once its result is
// evicted.
func TestMemQueueDuplicateID(t *testing.T) {
	tab, clock := newTestTable(Config{TTL: time.Minute})
	submit(t, tab, mkJob(1))
	if _, _, err := tab.Submit(mkJob(1), "t"); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate submit: %v, want ErrDuplicateID", err)
	}
	run(t, tab, Result{OK: true})
	if _, _, err := tab.Submit(mkJob(1), "t"); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("resubmit of a retained result: %v, want ErrDuplicateID", err)
	}
	clock.advance(2 * time.Minute)
	submit(t, tab, mkJob(1))
}

// TestMemQueueBound: the backlog bound refuses the overflow submission
// and admits again once a dequeue frees a place.
func TestMemQueueBound(t *testing.T) {
	tab := NewTable(Config{Backlog: 2})
	submit(t, tab, mkJob(0))
	submit(t, tab, mkJob(1))
	if _, _, err := tab.Submit(mkJob(2), "t"); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("over-bound submit: %v, want ErrBacklogFull", err)
	}
	if _, ok := tab.Get("j-0002"); ok {
		t.Fatal("a refused submission left a record")
	}
	if _, err := tab.Dequeue(context.Background()); err != nil {
		t.Fatal(err)
	}
	submit(t, tab, mkJob(2))
}

// TestMemQueueNackFront: a requeued job goes to the front of the line,
// keeping its admission-order place.
func TestMemQueueNackFront(t *testing.T) {
	tab := NewTable(Config{})
	submit(t, tab, mkJob(0))
	submit(t, tab, mkJob(1))
	ctx := context.Background()
	j, _ := tab.Dequeue(ctx)
	if err := tab.Requeue(j.ID); err != nil {
		t.Fatalf("requeue: %v", err)
	}
	if r, _ := tab.Get(j.ID); r.State != StateQueued || tab.InFlight() != 0 {
		t.Fatalf("requeued job: state %q, %d in flight", r.State, tab.InFlight())
	}
	again, _ := tab.Dequeue(ctx)
	if again.ID != j.ID {
		t.Fatalf("after requeue dequeued %s, want %s back first", again.ID, j.ID)
	}
}

// TestMemQueueDequeueBlocks: an empty table blocks Dequeue until a
// submission arrives, and honors context cancellation and Close.
func TestMemQueueDequeueBlocks(t *testing.T) {
	tab := NewTable(Config{})
	got := make(chan *Job, 1)
	go func() {
		j, err := tab.Dequeue(context.Background())
		if err != nil {
			t.Errorf("dequeue: %v", err)
		}
		got <- j
	}()
	time.Sleep(20 * time.Millisecond)
	submit(t, tab, mkJob(7))
	select {
	case j := <-got:
		if j.ID != "j-0007" {
			t.Fatalf("dequeued %s", j.ID)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked dequeue never woke for the submission")
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := tab.Dequeue(ctx)
		errCh <- err
	}()
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled dequeue: %v", err)
	}

	go func() {
		_, err := tab.Dequeue(context.Background())
		errCh <- err
	}()
	tab.Close()
	if err := <-errCh; !errors.Is(err, ErrClosed) {
		t.Fatalf("dequeue on closed table: %v", err)
	}
	if _, _, err := tab.Submit(mkJob(9), "t"); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit on closed table: %v", err)
	}
}

// TestQueueAckUnknown: settling or requeueing a job that is not in
// flight — unknown, still pending, or already settled — is an error.
func TestQueueAckUnknown(t *testing.T) {
	tab := NewTable(Config{})
	if err := tab.Settle("nope", Result{OK: true}); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("settle unknown: %v", err)
	}
	if err := tab.Requeue("nope"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("requeue unknown: %v", err)
	}
	submit(t, tab, mkJob(0))
	if err := tab.Settle("j-0000", Result{OK: true}); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("settle of a pending job: %v", err)
	}
	run(t, tab, Result{OK: true})
	if err := tab.Requeue("j-0000"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("requeue of a settled job: %v", err)
	}
}

// TestStoreLifecycle: queued -> running -> done, with the output held.
func TestStoreLifecycle(t *testing.T) {
	tab, _ := newTestTable(Config{})
	rec, dup, err := tab.Submit(Job{ID: "a"}, "sym-dmam")
	if err != nil || dup || rec.State != StateQueued || rec.Meta != "sym-dmam" {
		t.Fatalf("submit: %+v dup=%v err=%v", rec, dup, err)
	}
	if _, err := tab.Dequeue(context.Background()); err != nil {
		t.Fatal(err)
	}
	tab.Attempt("a", 1)
	if r, _ := tab.Get("a"); r.State != StateRunning || r.Attempts != 1 {
		t.Fatalf("running: %+v", r)
	}
	if err := tab.Settle("a", Result{OK: true, Output: json.RawMessage(`{"ok":1}`), Attempts: 2}); err != nil {
		t.Fatal(err)
	}
	r, ok := tab.Get("a")
	if !ok || r.State != StateDone || string(r.Output) != `{"ok":1}` || r.Attempts != 2 {
		t.Fatalf("done: %+v ok=%v", r, ok)
	}
	// A second settle must not overwrite the terminal record.
	if err := tab.Settle("a", Result{Error: "late", Attempts: 3}); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("second settle: %v", err)
	}
	if r, _ := tab.Get("a"); r.State != StateDone {
		t.Fatalf("terminal record overwritten: %+v", r)
	}
}

// TestStoreIdempotency: the same key returns the same record without
// minting a new job; distinct keys are independent.
func TestStoreIdempotency(t *testing.T) {
	tab, _ := newTestTable(Config{})
	first := submit(t, tab, Job{ID: "a", Key: "key-1"})
	again, dup, err := tab.Submit(Job{ID: "b", Key: "key-1"}, "t")
	if err != nil || !dup || again.ID != first.ID {
		t.Fatalf("dup submit: got %+v dup=%v err=%v, want original %s", again, dup, err, first.ID)
	}
	if _, ok := tab.Get("b"); ok {
		t.Fatal("dup submission minted a record")
	}
	// Dedup holds through the whole lifecycle, including terminal.
	run(t, tab, Result{OK: true, Output: json.RawMessage(`1`), Attempts: 1})
	done, dup, _ := tab.Submit(Job{ID: "c", Key: "key-1"}, "t")
	if !dup || done.ID != "a" || done.State != StateDone {
		t.Fatalf("dup after settle: %+v dup=%v", done, dup)
	}
	if _, dup, _ := tab.Submit(Job{ID: "d", Key: "key-2"}, "t"); dup {
		t.Fatal("distinct key reported dup")
	}
}

// TestStoreTTL: results expire after the TTL; live jobs never.
func TestStoreTTL(t *testing.T) {
	tab, clock := newTestTable(Config{TTL: time.Minute})
	submit(t, tab, Job{ID: "done", Key: "k1"})
	run(t, tab, Result{OK: true, Attempts: 1})
	submit(t, tab, Job{ID: "live", Key: "k2"})
	if _, err := tab.Dequeue(context.Background()); err != nil {
		t.Fatal(err)
	}

	clock.advance(2 * time.Minute)
	if _, ok := tab.Get("done"); ok {
		t.Fatal("result survived past TTL")
	}
	if _, ok := tab.Get("live"); !ok {
		t.Fatal("live job evicted by TTL")
	}
	// The expired record's idempotency key is released with it.
	if _, dup, _ := tab.Submit(Job{ID: "done2", Key: "k1"}, "t"); dup {
		t.Fatal("evicted record still deduping its key")
	}
	if tab.Evicted() == 0 {
		t.Fatal("eviction not counted")
	}
}

// TestStoreCapEvictsOldestTerminal: over cap, the oldest-settled
// results go first and live jobs are never touched.
func TestStoreCapEvictsOldestTerminal(t *testing.T) {
	tab, clock := newTestTable(Config{Cap: 4})
	for i := 0; i < 4; i++ {
		submit(t, tab, Job{ID: fmt.Sprintf("t%d", i)})
		run(t, tab, Result{OK: true, Attempts: 1})
		clock.advance(time.Second)
	}
	submit(t, tab, Job{ID: "live"})
	if tab.Len() != 5 {
		t.Fatalf("len = %d before sweep trigger", tab.Len())
	}
	// Next submission sweeps: cap 4, so the oldest result (t0) goes.
	submit(t, tab, Job{ID: "x"})
	if _, ok := tab.Get("t0"); ok {
		t.Fatal("oldest result survived cap eviction")
	}
	if _, ok := tab.Get("t3"); !ok {
		t.Fatal("newest result evicted before older ones")
	}
	if _, ok := tab.Get("live"); !ok {
		t.Fatal("live job evicted to satisfy cap")
	}
}

// TestTableBounds drives a table through 4 × cap submit-and-settle
// cycles, the first half evicting by cap and the second by TTL, with two
// jobs in flight throughout: the records held never exceed cap +
// backlog + in flight, the id and key indexes hold exactly the listed
// jobs, and an evicted result's id and key are free again.
func TestTableBounds(t *testing.T) {
	const capacity, backlog = 8, 2
	tab, clock := newTestTable(Config{Backlog: backlog, TTL: 5 * time.Second, Cap: capacity})
	check := func(step int) {
		t.Helper()
		if n, limit := tab.Len(), capacity+backlog+tab.InFlight(); n > limit {
			t.Fatalf("step %d: %d records, bound %d", step, n, limit)
		}
		tab.mu.Lock()
		defer tab.mu.Unlock()
		if listed := len(tab.pending) + len(tab.inflight) + len(tab.settled); len(tab.byID) != listed {
			t.Fatalf("step %d: %d ids for %d listed jobs", step, len(tab.byID), listed)
		}
		for k, e := range tab.byKey {
			if tab.byID[e.rec.ID] != e || e.rec.Key != k {
				t.Fatalf("step %d: key %q outlived its record %s", step, k, e.rec.ID)
			}
		}
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		submit(t, tab, Job{ID: fmt.Sprintf("live-%d", i)})
		if _, err := tab.Dequeue(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*capacity; i++ {
		submit(t, tab, Job{ID: fmt.Sprintf("j-%d", i), Key: fmt.Sprintf("k-%d", i)})
		check(i)
		run(t, tab, Result{OK: true, Attempts: 1})
		check(i)
		if i >= 2*capacity {
			clock.advance(time.Second)
		}
	}
	// At the last settle the results of the last six seconds are held.
	if got, least := tab.Evicted(), int64(4*capacity-6); got < least {
		t.Fatalf("evicted %d results, want at least %d", got, least)
	}
	if _, dup, err := tab.Submit(Job{ID: "j-0", Key: "k-0"}, "t"); err != nil || dup {
		t.Fatalf("evicted id or key still held: dup=%v err=%v", dup, err)
	}
}

// BenchmarkJobStatus polls one record of a table holding 1,000, 10,000
// and 60,000 results: eviction pops from the head of the settle order,
// so a poll costs the same at any size.
func BenchmarkJobStatus(b *testing.B) {
	for _, n := range []int{1000, 10000, 60000} {
		b.Run(fmt.Sprintf("results=%d", n), func(b *testing.B) {
			tab := NewTable(Config{})
			ctx := context.Background()
			out := json.RawMessage(`{"schema":"dip-report/v1"}`)
			for i := 0; i < n; i++ {
				if _, _, err := tab.Submit(Job{ID: fmt.Sprintf("j-%06d", i), Key: fmt.Sprintf("k-%d", i)}, "t"); err != nil {
					b.Fatal(err)
				}
				j, err := tab.Dequeue(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if err := tab.Settle(j.ID, Result{OK: true, Output: out, Attempts: 1}); err != nil {
					b.Fatal(err)
				}
			}
			id := fmt.Sprintf("j-%06d", n/2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := tab.Get(id); !ok {
					b.Fatal("record evicted")
				}
			}
		})
	}
}
