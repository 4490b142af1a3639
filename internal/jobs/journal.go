package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
)

// The journal is an append-only file of two record kinds:
//
//	{"v":1,"op":"enq","at_ms":...,"job":{"id":...,"key":...,"payload":...}}
//	{"v":1,"op":"settle","at_ms":...,"id":...,"result":{...}}
//
// one JSON document per line. Submit appends an enq record, Settle a
// settle record; Dequeue and Requeue touch nothing — an in-flight job is
// simply one whose enq has no settle yet, so a crash anywhere between
// dequeue and settle replays the job as pending on the next open. That
// is the whole recovery story: replay is a single forward pass that
// sorts enq records into settled (the result is retained) and pending
// (re-queued in original order).
//
// Torn tails are expected: a SIGKILL can land mid-write, leaving a final
// partial line. Replay stops at the first undecodable record and
// reports the cut: the journal loses at most the record being written
// at the instant of death, which for an enq means the client never got
// its 202 and resubmits (its idempotency key dedups), and for a settle
// means the job re-runs (deterministic, so the effect is identical).
//
// The file is rewritten to the table's live state at open, and while
// serving once the records appended since the last rewrite outnumber
// both the live records and rewriteFloor, so its size is bounded by
// the backlog plus the retained results, not by lifetime throughput.

// journalVersion is the record format version.
const journalVersion = 1

// rewriteFloor is how many records a rewrite while serving waits for at
// least, so a small table is not rewritten on every append.
const rewriteFloor = 1024

// journalRecord is one line of the journal file.
type journalRecord struct {
	V    int    `json:"v"`
	Op   string `json:"op"`
	AtMS int64  `json:"at_ms"`
	// enq fields
	Job *Job `json:"job,omitempty"`
	// settle fields
	ID     string  `json:"id,omitempty"`
	Result *Result `json:"result,omitempty"`
}

func (e *entry) enqRecord() journalRecord {
	j := e.job()
	return journalRecord{V: journalVersion, Op: "enq", AtMS: e.rec.EnqueuedMS, Job: &j}
}

func (e *entry) settleRecord() journalRecord {
	res := e.rec.result()
	return journalRecord{V: journalVersion, Op: "settle", AtMS: e.rec.SettledMS, ID: e.rec.ID, Result: &res}
}

// ReplayStats describes what OpenTable recovered from an existing
// journal.
type ReplayStats struct {
	// Pending is how many unsettled jobs were re-queued.
	Pending int
	// Settled is how many results were recovered within the TTL.
	Settled int
	// Expired is how many results were dropped as older than the TTL.
	Expired int
	// TruncatedBytes is how many bytes of torn tail were cut; 0 on a
	// clean journal.
	TruncatedBytes int64
}

// journal is a table's open journal file.
type journal struct {
	path string
	f    *os.File // opened for appends; nil once closed
	// appended counts the records appended since the last rewrite.
	appended int
}

// OpenTable opens (or creates) the journal at path, replays it into a
// new table — pending jobs queued in their original order, results
// within the TTL retained in settle order — and rewrites the file to
// that live state. A replayed backlog longer than cfg.Backlog is kept
// whole: the bound gates new submissions, not recovery.
func OpenTable(path string, cfg Config) (*Table, error) {
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("jobs: reading journal: %w", err)
	}
	t := NewTable(cfg)
	if err := t.replayJournal(data); err != nil {
		return nil, err
	}
	t.j = &journal{path: path}
	if err := t.j.rewrite(t.eachLiveLocked); err != nil {
		return nil, err
	}
	return t, nil
}

// replayJournal rebuilds the table's lists from a journal's bytes.
func (t *Table) replayJournal(data []byte) error {
	byID := make(map[string]*entry)
	var order []*entry // enq order
	good := 0          // byte offset past the last decoded record
	for good < len(data) {
		nl := bytes.IndexByte(data[good:], '\n')
		if nl < 0 {
			break // no terminator: torn tail
		}
		var rec journalRecord
		if err := json.Unmarshal(data[good:good+nl+1], &rec); err != nil {
			break // undecodable record: torn or corrupt tail
		}
		switch rec.Op {
		case "enq":
			if rec.Job == nil || rec.Job.ID == "" {
				return fmt.Errorf("jobs: journal enq record without a job at offset %d", good)
			}
			// A second enq of an unsettled id is a duplicate; one of a
			// settled id (resubmitted after its result expired) starts
			// the id's next life.
			if prior := byID[rec.Job.ID]; prior == nil || prior.rec.State.Terminal() {
				e := &entry{rec: Record{ID: rec.Job.ID, Key: rec.Job.Key, State: StateQueued}, payload: rec.Job.Payload}
				byID[e.rec.ID] = e
				order = append(order, e)
			}
		case "settle":
			e := byID[rec.ID]
			if e == nil {
				return fmt.Errorf("jobs: journal settles unknown job %q at offset %d", rec.ID, good)
			}
			if rec.Result != nil && !e.rec.State.Terminal() {
				e.rec.settle(*rec.Result, rec.AtMS)
			}
		default:
			return fmt.Errorf("jobs: journal record with unknown op %q at offset %d", rec.Op, good)
		}
		good += nl + 1
	}
	t.replay.TruncatedBytes = int64(len(data) - good)

	// A replayed job is queued again now, and a replayed result keeps
	// only its settle stamp.
	now := t.cfg.now()
	cutoff := now.Add(-t.cfg.TTL).UnixMilli()
	for _, e := range order {
		switch {
		case byID[e.rec.ID] != e:
			continue // superseded by a later life of its id
		case !e.rec.State.Terminal():
			e.rec.EnqueuedMS = now.UnixMilli()
			t.pending = append(t.pending, e)
			t.replay.Pending++
		case e.rec.SettledMS < cutoff:
			t.replay.Expired++
			continue
		default:
			t.settled = append(t.settled, e)
			t.replay.Settled++
		}
		if t.cfg.Meta != nil {
			e.rec.Meta = t.cfg.Meta(e.payload)
		}
		t.indexLocked(e)
	}
	sort.SliceStable(t.settled, func(a, b int) bool { return t.settled[a].rec.SettledMS < t.settled[b].rec.SettledMS })
	t.sweepLocked()
	return nil
}

// eachLiveLocked emits the records of the table's live state, the ones
// replay rebuilds it from: each retained result as its enq and settle
// records in settle order, then each in-flight and pending job as its
// enq record in admission order.
func (t *Table) eachLiveLocked(emit func(journalRecord) error) error {
	for _, e := range t.settled {
		if err := emit(e.enqRecord()); err != nil {
			return err
		}
		if err := emit(e.settleRecord()); err != nil {
			return err
		}
	}
	for _, list := range [][]*entry{t.inflight, t.pending} {
		for _, e := range list {
			if err := emit(e.enqRecord()); err != nil {
				return err
			}
		}
	}
	return nil
}

// compactLocked rewrites the journal once the records appended since
// the last rewrite outnumber both the live ones and rewriteFloor. A
// rewrite that fails leaves the old journal in place, and the next try
// waits for as many appends again.
func (t *Table) compactLocked() {
	live := len(t.pending) + len(t.inflight) + 2*len(t.settled)
	if t.j == nil || t.closed || t.j.appended <= max(live, rewriteFloor) {
		return
	}
	_ = t.j.rewrite(t.eachLiveLocked)
}

// append writes one record to the OS. The write (not fsync) is the
// durability point we promise: the backlog survives process death;
// surviving whole-machine power loss would need fsync per record, which
// the serving path does not pay.
func (j *journal) append(rec journalRecord) error {
	if j.f == nil {
		return ErrClosed
	}
	line, err := encodeRecord(rec)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("jobs: appending journal record: %w", err)
	}
	j.appended++
	return nil
}

// encodeRecord is rec's journal line.
func encodeRecord(rec journalRecord) ([]byte, error) {
	data, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("jobs: encoding journal record: %w", err)
	}
	return append(data, '\n'), nil
}

// rewrite replaces the journal with the records live emits: they go to
// path.compact, which is fsynced and renamed over path, so a crash at
// any point leaves one whole journal (a stale .compact is truncated by
// the next rewrite). The temporary file is opened for appends, so after
// the rename it is the journal's append handle.
func (j *journal) rewrite(live func(emit func(journalRecord) error) error) error {
	j.appended = 0
	tmp := j.path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jobs: rewriting journal: %w", err)
	}
	w := bufio.NewWriter(f)
	err = live(func(rec journalRecord) error {
		line, err := encodeRecord(rec)
		if err == nil {
			_, err = w.Write(line)
		}
		return err
	})
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, j.path)
	}
	if err != nil {
		f.Close()
		return fmt.Errorf("jobs: rewriting journal: %w", err)
	}
	if j.f != nil {
		// The rewrite holds every record appended through it, and the
		// file it names is gone: there is nothing to flush.
		j.f.Close()
	}
	j.f = f
	return nil
}

// close fsyncs and closes the journal.
func (j *journal) close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
