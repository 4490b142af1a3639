package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dip/internal/faults"
)

// openTestTable opens the journal at path on clock c (nil keeps the
// wall clock) with default bounds and cfg's overrides.
func openTestTable(t *testing.T, path string, c *testClock, cfg Config) *Table {
	t.Helper()
	if c != nil {
		cfg.now = c.now
	}
	tab, err := OpenTable(path, cfg)
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	return tab
}

// TestFileQueueReplay is the crash-replay contract: submit a backlog,
// settle part of it, drop the table without closing (SIGKILL), reopen —
// the unsettled jobs replay pending in order, the settled ones come back
// as results, and nothing runs twice.
func TestFileQueueReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	tab := openTestTable(t, path, nil, Config{})
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		submit(t, tab, mkJob(i))
	}
	// Settle the first two, leave one in flight (dequeued, never
	// settled), and three pending.
	for i := 0; i < 2; i++ {
		j, _ := tab.Dequeue(ctx)
		out := json.RawMessage(fmt.Sprintf(`{"ran":%q}`, j.ID))
		if err := tab.Settle(j.ID, Result{OK: true, Output: out, Attempts: 1}); err != nil {
			t.Fatalf("settle: %v", err)
		}
	}
	if _, err := tab.Dequeue(ctx); err != nil {
		t.Fatal(err)
	}
	// No Close: the process dies here.

	tab2 := openTestTable(t, path, nil, Config{})
	stats := tab2.Replayed()
	if stats.Pending != 4 {
		t.Fatalf("replayed pending = %d, want 4 (3 queued + 1 in-flight at crash)", stats.Pending)
	}
	if stats.Settled != 2 || stats.TruncatedBytes != 0 {
		t.Fatalf("replay stats %+v, want 2 settled from a clean journal", stats)
	}
	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("j-%04d", i)
		if r, ok := tab2.Get(id); !ok || r.State != StateDone || !strings.Contains(string(r.Output), id) {
			t.Fatalf("settled %s lost its result: %+v", id, r)
		}
	}
	// Pending order: the in-flight job (j-0002) was submitted before
	// j-0003..5, so it replays first.
	for i := 2; i < 6; i++ {
		if id, want := run(t, tab2, Result{OK: true, Attempts: 1}), fmt.Sprintf("j-%04d", i); id != want {
			t.Fatalf("replayed dequeue = %s, want %s", id, want)
		}
	}
	// Settled IDs stay refused after replay while their results are
	// held: a client retrying a completed job cannot re-run it.
	if _, _, err := tab2.Submit(mkJob(0), "t"); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("resubmit of settled job after replay: %v, want ErrDuplicateID", err)
	}
	if err := tab2.Close(); err != nil {
		t.Fatal(err)
	}

	// A third open finds everything settled: nothing pending.
	tab3 := openTestTable(t, path, nil, Config{})
	if st := tab3.Replayed(); st.Pending != 0 || st.Settled != 6 {
		t.Fatalf("third open: %+v, want 0 pending / 6 settled", st)
	}
	tab3.Close()
}

// TestFileQueueTornTail: a SIGKILL mid-write leaves a partial record;
// replay recovers the prefix and reports the cut.
func TestFileQueueTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	tab := openTestTable(t, path, nil, Config{})
	for i := 0; i < 3; i++ {
		submit(t, tab, mkJob(i))
	}
	if err := tab.Close(); err != nil {
		t.Fatal(err)
	}
	if err := faults.TruncateJournalTail(path, 7); err != nil {
		t.Fatalf("truncating: %v", err)
	}

	tab2 := openTestTable(t, path, nil, Config{})
	stats := tab2.Replayed()
	if stats.Pending != 2 {
		t.Fatalf("pending after torn tail = %d, want 2 (the torn enq is lost)", stats.Pending)
	}
	if stats.TruncatedBytes == 0 {
		t.Fatal("torn tail not reported")
	}
	// The lost job's client never saw a 202: resubmission must be
	// accepted, not refused as a duplicate.
	submit(t, tab2, mkJob(2))
	tab2.Close()
}

// TestFileQueueGarbledTail: garbage bytes at the tail (torn write that
// left data) stop replay without error and are compacted away.
func TestFileQueueGarbledTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	tab := openTestTable(t, path, nil, Config{})
	for i := 0; i < 4; i++ {
		submit(t, tab, mkJob(i))
	}
	tab.Close()
	if err := faults.GarbleJournalTail(path, 42, 11); err != nil {
		t.Fatal(err)
	}
	tab2 := openTestTable(t, path, nil, Config{})
	stats := tab2.Replayed()
	if stats.Pending != 3 {
		t.Fatalf("pending after garbled tail = %d, want 3", stats.Pending)
	}
	if stats.TruncatedBytes == 0 {
		t.Fatal("garbled tail not reported as truncated")
	}
	tab2.Close()
	// Compaction rewrote the file: a fresh open sees a clean journal.
	tab3 := openTestTable(t, path, nil, Config{})
	if st := tab3.Replayed(); st.TruncatedBytes != 0 {
		t.Fatalf("compacted journal still torn: %+v", st)
	}
	tab3.Close()
}

// TestFileQueueCompactionExpiry: results older than the TTL are dropped
// at open; younger ones survive.
func TestFileQueueCompactionExpiry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	clock := &testClock{t: time.Unix(1700000000, 0)}
	cfg := Config{TTL: time.Hour}
	tab := openTestTable(t, path, clock, cfg)
	for i := 0; i < 2; i++ {
		submit(t, tab, mkJob(i))
		run(t, tab, Result{OK: true, Attempts: 1})
	}
	tab.Close()

	tab2 := openTestTable(t, path, clock, cfg)
	if st := tab2.Replayed(); st.Settled != 2 || st.Expired != 0 {
		t.Fatalf("fresh settles: %+v, want 2 settled, 0 expired", st)
	}
	tab2.Close()

	clock.advance(48 * time.Hour)
	tab3 := openTestTable(t, path, clock, cfg)
	if st := tab3.Replayed(); st.Settled != 0 || st.Expired != 2 || tab3.Len() != 0 {
		t.Fatalf("aged settles: %+v with %d records, want all expired", st, tab3.Len())
	}
	tab3.Close()
}

// TestFileQueueReplayOverBound: a replayed backlog larger than the
// bound is never dropped — the bound gates new submissions only.
func TestFileQueueReplayOverBound(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	tab := openTestTable(t, path, nil, Config{Backlog: 8})
	for i := 0; i < 8; i++ {
		submit(t, tab, mkJob(i))
	}
	tab.Close()

	tab2 := openTestTable(t, path, nil, Config{Backlog: 4})
	if st := tab2.Replayed(); st.Pending != 8 || tab2.Depth() != 8 {
		t.Fatalf("replay dropped jobs to honor the bound: %+v, depth %d, want 8", st, tab2.Depth())
	}
	if _, _, err := tab2.Submit(mkJob(100), "t"); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("new submission over bound: %v, want ErrBacklogFull", err)
	}
	tab2.Close()
}

// TestFileQueueJournalBounded: the journal compacts at open — after a
// large settled history expires, the file shrinks instead of growing
// with lifetime throughput.
func TestFileQueueJournalBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	clock := &testClock{t: time.Unix(1700000000, 0)}
	cfg := Config{TTL: time.Hour}
	tab := openTestTable(t, path, clock, cfg)
	for i := 0; i < 200; i++ {
		submit(t, tab, mkJob(i))
		run(t, tab, Result{OK: true, Output: json.RawMessage(`{"x":1}`), Attempts: 1})
	}
	tab.Close()
	grown, _ := os.Stat(path)

	clock.advance(48 * time.Hour)
	openTestTable(t, path, clock, cfg).Close()
	compacted, _ := os.Stat(path)
	if compacted.Size() >= grown.Size() {
		t.Fatalf("journal did not compact: %d -> %d bytes", grown.Size(), compacted.Size())
	}
	if compacted.Size() != 0 {
		t.Fatalf("fully-expired journal should be empty, is %d bytes", compacted.Size())
	}
}

// TestStoreAdopt: replayed results keep their terminal state, stamps
// and idempotency mapping.
func TestStoreAdopt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	clock := &testClock{t: time.Unix(1700000000, 0)}
	tab := openTestTable(t, path, clock, Config{})
	submit(t, tab, Job{ID: "r1", Key: "k", Payload: json.RawMessage(`{"protocol":"p"}`)})
	clock.advance(time.Second)
	run(t, tab, Result{OK: true, Output: json.RawMessage(`2`), Attempts: 3})
	want, _ := tab.Get("r1")

	clock.advance(time.Minute)
	meta := func(payload json.RawMessage) string { return "meta:" + string(payload) }
	tab2 := openTestTable(t, path, clock, Config{Meta: meta})
	r, ok := tab2.Get("r1")
	want.Meta = meta(json.RawMessage(`{"protocol":"p"}`))
	if !ok || r.State != StateDone || r.SettledMS != want.SettledMS ||
		string(r.Output) != "2" || r.Attempts != 3 || r.Meta != want.Meta {
		t.Fatalf("replayed %+v ok=%v, want %+v", r, ok, want)
	}
	if got, dup, _ := tab2.Submit(Job{ID: "new", Key: "k"}, "t"); !dup || got.ID != "r1" {
		t.Fatalf("replayed key not deduping: %+v dup=%v", got, dup)
	}
	tab2.Close()
}

// TestReplayResubmittedID: an id whose result expired may be submitted
// again, and a journal still holding its first life replays the second.
func TestReplayResubmittedID(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	clock := &testClock{t: time.Unix(1700000000, 0)}
	cfg := Config{TTL: time.Minute}
	tab := openTestTable(t, path, clock, cfg)
	submit(t, tab, mkJob(1))
	run(t, tab, Result{OK: true, Attempts: 1})
	clock.advance(2 * time.Minute)
	submit(t, tab, mkJob(1))
	// No Close: the process dies with the second life pending.

	tab2 := openTestTable(t, path, clock, cfg)
	if st := tab2.Replayed(); st.Pending != 1 || st.Settled != 0 {
		t.Fatalf("replay stats %+v, want the second life pending", st)
	}
	if r, _ := tab2.Get("j-0001"); r.State != StateQueued {
		t.Fatalf("replayed %+v, want queued", r)
	}
	tab2.Close()
}

// fixtureProtocol peeks the protocol name out of a fixture payload, as
// the service labels its records.
func fixtureProtocol(payload json.RawMessage) string {
	var head struct {
		Protocol string `json:"protocol"`
	}
	_ = json.Unmarshal(payload, &head)
	return head.Protocol
}

// TestReplayPriorJournal replays testdata/v1.journal, written by the
// file-backed queue the table replaced: five jobs submitted, four
// dequeued, three of them settled done, failed and parked out of
// submission order (one under an idempotency key), one more submitted,
// and a last enq torn by the kill. The table must recover what that
// queue's replay recovered: the same stats, the pending jobs in the
// same order, and the same records: each result with its settle stamp
// and no enqueue stamp, each pending job stamped with the open.
func TestReplayPriorJournal(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v1.journal"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	const base = 1760000000000 // the fixture's clock, in ms
	const open = base + 60_000
	clock := &testClock{t: time.UnixMilli(open)}
	tab := openTestTable(t, path, clock, Config{TTL: time.Hour, Meta: fixtureProtocol})
	if got, want := tab.Replayed(), (ReplayStats{Pending: 3, Settled: 3, TruncatedBytes: 159}); got != want {
		t.Fatalf("replay stats %+v, want %+v", got, want)
	}
	report := `{"schema":"dip-report/v1","protocol":"sym-dmam","accepted":true}`
	for _, want := range []Record{
		{ID: "j-fixture-000001", Meta: "sym-dmam", State: StateDone, Attempts: 2, Output: json.RawMessage(report), SettledMS: base + 8000},
		{ID: "j-fixture-000002", Key: "fixture-key", Meta: "sym-dam", State: StateFailed, Attempts: 1, Error: "setup: bad instance", SettledMS: base + 6000},
		{ID: "j-fixture-000003", Meta: "sym-dmam", State: StateParked, Attempts: 4, Error: "transient wobble", SettledMS: base + 7000},
		{ID: "j-fixture-000004", Meta: "sym-lcp", State: StateQueued, EnqueuedMS: open},
		{ID: "j-fixture-000005", Meta: "sym-dmam", State: StateQueued, EnqueuedMS: open},
		{ID: "j-fixture-000006", Meta: "sym-dmam", State: StateQueued, EnqueuedMS: open},
	} {
		got, ok := tab.Get(want.ID)
		if !ok || fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
			t.Errorf("replayed %s:\n got %+v\nwant %+v", want.ID, got, want)
		}
	}
	if _, ok := tab.Get("j-fixture-000007"); ok {
		t.Error("the torn enq replayed")
	}
	if rec, dup, _ := tab.Submit(Job{ID: "j-new", Key: "fixture-key"}, "t"); !dup || rec.ID != "j-fixture-000002" {
		t.Errorf("fixture key resolved to %s (dup %v), want j-fixture-000002", rec.ID, dup)
	}
	for i := 4; i <= 6; i++ {
		if id, want := run(t, tab, Result{OK: true, Attempts: 1}), fmt.Sprintf("j-fixture-%06d", i); id != want {
			t.Fatalf("pending order: dequeued %s, want %s", id, want)
		}
	}
	tab.Close()

	// Past the TTL the three results expire at open, as they did there.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	clock.advance(48 * time.Hour)
	aged := openTestTable(t, path, clock, Config{TTL: time.Hour})
	if got, want := aged.Replayed(), (ReplayStats{Pending: 3, Expired: 3, TruncatedBytes: 159}); got != want {
		t.Fatalf("aged replay stats %+v, want %+v", got, want)
	}
	aged.Close()
}

// TestJournalBoundedWhileServing: 5,000 submit-and-settle cycles under
// a one-minute TTL keep the journal under a fixed size with no reopen,
// because the table rewrites it to its live state as it serves; a kill
// after the last cycle replays the same records, and a stale .compact
// file from a kill mid-rewrite does not break the open.
func TestJournalBoundedWhileServing(t *testing.T) {
	const cycles = 5000
	path := filepath.Join(t.TempDir(), "journal")
	clock := &testClock{t: time.Unix(1700000000, 0)}
	cfg := Config{TTL: time.Minute, Meta: func(json.RawMessage) string { return "t" }}
	tab := openTestTable(t, path, clock, cfg)
	out := json.RawMessage(`{"schema":"dip-report/v1","accepted":true}`)
	line, _ := encodeRecord(journalRecord{V: journalVersion, Op: "settle", AtMS: clock.now().UnixMilli(), ID: "j-0000", Result: &Result{OK: true, Output: out, Attempts: 1}})
	// The cycles append 10,000 records. The live state is ~2 × 60 of them
	// (one result a second for a minute), below the floor, so the file
	// never holds more than one live state and the floor's worth of
	// appends after it.
	limit := int64(2*rewriteFloor) * int64(len(line)+16)
	for i := 0; i < cycles; i++ {
		submit(t, tab, Job{ID: fmt.Sprintf("j-%04d", i), Key: fmt.Sprintf("k-%d", i)})
		run(t, tab, Result{OK: true, Output: out, Attempts: 1})
		clock.advance(time.Second)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() > limit {
			t.Fatalf("cycle %d: journal is %d bytes, bound %d", i, info.Size(), limit)
		}
	}
	// A backlog and a job in flight at the kill.
	for i := cycles; i < cycles+3; i++ {
		submit(t, tab, mkJob(i))
	}
	inflight, err := tab.Dequeue(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tab.mu.Lock()
	var want []Record
	for _, list := range [][]*entry{tab.settled, tab.inflight, tab.pending} {
		for _, e := range list {
			r := e.rec
			if r.State.Terminal() {
				r.EnqueuedMS = 0
			} else {
				// An in-flight job replays pending, queued at the open.
				r.State, r.EnqueuedMS = StateQueued, clock.now().UnixMilli()
			}
			want = append(want, r)
		}
	}
	tab.mu.Unlock()

	if err := os.WriteFile(path+".compact", []byte(`{"v":1,"op":"enq","at_ms":1,"job":{"id":"stale"`), 0o644); err != nil {
		t.Fatal(err)
	}
	tab2 := openTestTable(t, path, clock, cfg)
	if st := tab2.Replayed(); st.Pending != 3 || st.Settled != len(want)-3 || st.TruncatedBytes != 0 {
		t.Fatalf("replay after kill: %+v, want 3 pending and %d settled", st, len(want)-3)
	}
	if n := tab2.Len(); n != len(want) {
		t.Fatalf("replayed %d records, want %d", n, len(want))
	}
	for _, w := range want {
		if got, ok := tab2.Get(w.ID); !ok || fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", w) {
			t.Fatalf("replayed %s:\n got %+v\nwant %+v", w.ID, got, w)
		}
	}
	if j, _ := tab2.Dequeue(context.Background()); j.ID != inflight.ID {
		t.Fatalf("first replayed job %s, want the one in flight at the kill (%s)", j.ID, inflight.ID)
	}
	if _, err := os.Stat(path + ".compact"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale .compact survived the open: %v", err)
	}
	tab2.Close()
}
