package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dip"
	"dip/internal/faults"
)

// submitJob POSTs body to /v1/jobs (with an Idempotency-Key when key is
// non-empty) and returns the status and decoded envelope.
func submitJob(t *testing.T, base, body, key string) (int, *dip.WireJob) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	w, err := dip.DecodeWireJob(resp.Body)
	if err != nil {
		t.Fatalf("submission answered an invalid dip-job/v1 document: %v", err)
	}
	return resp.StatusCode, w
}

// pollJob GETs /v1/jobs/{id} until the job reaches a terminal state.
func pollJob(t *testing.T, base, id string) *dip.WireJob {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("GET /v1/jobs/%s: %v", id, err)
		}
		w, err := dip.DecodeWireJob(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("poll answered an invalid dip-job/v1 document: %v", err)
		}
		switch w.State {
		case dip.JobStateDone, dip.JobStateFailed, dip.JobStateParked:
			return w
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never settled", id)
	return nil
}

// TestJobLifecycle: a real protocol run through the async tier — submit,
// poll, and the finished envelope embeds a valid report.
func TestJobLifecycle(t *testing.T) {
	_, ts := startTestServer(t, config{}, nil)
	status, w := submitJob(t, ts.URL, cycleRequest(8, 5), "")
	if status != http.StatusAccepted {
		t.Fatalf("submission status %d", status)
	}
	if w.ID == "" || w.State != dip.JobStateQueued || w.Protocol != "sym-dmam" {
		t.Fatalf("submission envelope: %+v", w)
	}
	done := pollJob(t, ts.URL, w.ID)
	if done.State != dip.JobStateDone {
		t.Fatalf("state %s (error %q)", done.State, done.Error)
	}
	if done.Attempts != 1 {
		t.Fatalf("clean run took %d attempts", done.Attempts)
	}
	r := done.Report
	if r.Protocol != "sym-dmam" || r.Nodes != 8 || r.Seed != 5 || !r.Accepted {
		t.Fatalf("embedded report: %+v", r)
	}
}

// TestJobStatusErrors: unknown ids answer 404, bad paths 400, and wrong
// methods 405 on both endpoints.
func TestJobStatusErrors(t *testing.T) {
	_, ts := startTestServer(t, config{}, nil)
	for _, tc := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/v1/jobs/j-nope", http.StatusNotFound},
		{http.MethodGet, "/v1/jobs/", http.StatusBadRequest},
		{http.MethodGet, "/v1/jobs/a/b", http.StatusBadRequest},
		{http.MethodGet, "/v1/jobs", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/jobs/j-1", http.StatusMethodNotAllowed},
	} {
		req, _ := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestJobMatchesSyncReport is the equivalence acceptance check: for the
// same seeded request, the synchronous /v1/run body and the async
// tier's embedded report are byte-identical — on an in-memory table AND
// a journaled one.
func TestJobMatchesSyncReport(t *testing.T) {
	body := cycleRequest(10, 42)

	syncBytes := func(ts *httptest.Server) []byte {
		resp := postRun(t, ts.URL, body)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			t.Fatalf("sync run: %d: %s", resp.StatusCode, b)
		}
		b, _ := io.ReadAll(resp.Body)
		return b
	}
	asyncBytes := func(ts *httptest.Server) []byte {
		_, w := submitJob(t, ts.URL, body, "")
		done := pollJob(t, ts.URL, w.ID)
		if done.State != dip.JobStateDone {
			t.Fatalf("job settled %s: %s", done.State, done.Error)
		}
		var buf bytes.Buffer
		if err := done.Report.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	_, mem := startTestServer(t, config{}, nil)
	journal := filepath.Join(t.TempDir(), "jobs.journal")
	cfg := config{}
	cfg.jobs = defaultJobsConfig()
	cfg.jobs.journal = journal
	_, file := startTestServer(t, cfg, nil)

	want := syncBytes(mem)
	for name, ts := range map[string]*httptest.Server{"mem": mem, "file": file} {
		if got := asyncBytes(ts); !bytes.Equal(got, want) {
			t.Errorf("%s backend report differs from the synchronous answer:\n%s\nvs\n%s", name, got, want)
		}
	}
}

// TestJobIdempotencyStorm: k concurrent submissions with one key yield
// one job — exactly one 202, the rest 200, all carrying the same id —
// and a resubmission after settlement returns the finished envelope.
func TestJobIdempotencyStorm(t *testing.T) {
	block := make(chan struct{})
	_, ts := startTestServer(t, config{}, func(ctx context.Context, req dip.Request) (dip.Report, error) {
		<-block
		dec := make([]bool, req.N)
		for i := range dec {
			dec[i] = true
		}
		return dip.Report{Protocol: req.Protocol, Accepted: true, Decisions: dec}, nil
	})
	body := []byte(cycleRequest(6, 1))
	res := faults.DupSubmitStorm(ts.URL, "storm-key", body, 8)
	if res.Transport != 0 {
		t.Fatalf("%d transport failures", res.Transport)
	}
	if len(res.IDs) != 1 {
		t.Fatalf("storm minted %d distinct jobs: %v", len(res.IDs), res.IDs)
	}
	if res.Statuses[http.StatusAccepted] != 1 || res.Statuses[http.StatusOK] != 7 {
		t.Fatalf("statuses: %v", res.Statuses)
	}
	var id string
	for k := range res.IDs {
		id = k
	}
	close(block)
	done := pollJob(t, ts.URL, id)
	if done.State != dip.JobStateDone {
		t.Fatalf("state %s", done.State)
	}
	// Late duplicate: the key still resolves to the settled job.
	status, w := submitJob(t, ts.URL, string(body), "storm-key")
	if status != http.StatusOK || w.ID != id || w.State != dip.JobStateDone {
		t.Fatalf("late duplicate: status %d, envelope %+v", status, w)
	}
}

// TestJobIdempotencyFullBacklog: a key stormed at a full backlog never
// answers with a job that does not exist. With the one worker held by a
// blocked run and the one backlog place taken, 32 concurrent
// submissions of a new key each get a 503 or name a job that polls 200,
// and the key mints at most one id; once the run is released, the same
// storm mints exactly one job, which completes.
func TestJobIdempotencyFullBacklog(t *testing.T) {
	cfg := config{}
	cfg.jobs = defaultJobsConfig()
	cfg.jobs.workers = 1
	cfg.jobs.backlog = 1
	block := make(chan struct{})
	s, ts := startTestServer(t, cfg, func(ctx context.Context, req dip.Request) (dip.Report, error) {
		<-block
		dec := make([]bool, req.N)
		for i := range dec {
			dec[i] = true
		}
		return dip.Report{Protocol: req.Protocol, Accepted: true, Decisions: dec}, nil
	})
	// A failing check must not leave the worker blocked: the server's
	// cleanup waits for it.
	release := sync.OnceFunc(func() { close(block) })
	t.Cleanup(release)
	body := []byte(cycleRequest(6, 1))
	var held []string
	for i := 0; i < 2; i++ {
		status, w := submitJob(t, ts.URL, string(body), "")
		if status != http.StatusAccepted {
			t.Fatalf("submission %d: status %d", i, status)
		}
		held = append(held, w.ID)
		if i == 0 {
			waitFor(t, func() bool { return s.async.table.InFlight() == 1 })
		}
	}

	storm := func() faults.DupStormResult {
		t.Helper()
		res := faults.DupSubmitStorm(ts.URL, "full-key", body, 32)
		if res.Transport != 0 {
			t.Fatalf("%d transport failures", res.Transport)
		}
		for id := range res.IDs {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("the storm was answered with job %s, which polls %d", id, resp.StatusCode)
			}
		}
		return res
	}
	res := storm()
	if len(res.IDs) > 1 {
		t.Fatalf("one key minted %d jobs: %v", len(res.IDs), res.IDs)
	}
	for status, n := range res.Statuses {
		if status != http.StatusServiceUnavailable && status != http.StatusOK && status != http.StatusAccepted {
			t.Fatalf("%d answers with status %d: %v", n, status, res.Statuses)
		}
	}

	release()
	for _, id := range held {
		if done := pollJob(t, ts.URL, id); done.State != dip.JobStateDone {
			t.Fatalf("held job %s: state %s", id, done.State)
		}
	}
	res = storm()
	if len(res.IDs) != 1 || res.Statuses[http.StatusAccepted] != 1 || res.Statuses[http.StatusOK] != 31 {
		t.Fatalf("storm after release: ids %v, statuses %v", res.IDs, res.Statuses)
	}
	for id := range res.IDs {
		if done := pollJob(t, ts.URL, id); done.State != dip.JobStateDone {
			t.Fatalf("stormed job %s: state %s", id, done.State)
		}
	}
}

// TestJobFailureTaxonomy: a 400-class failure settles as failed on the
// first attempt; a retryable failure burns the attempt budget and parks.
func TestJobFailureTaxonomy(t *testing.T) {
	cfg := config{}
	cfg.jobs = defaultJobsConfig()
	cfg.jobs.attempts = 2
	cfg.jobs.backoffBase = time.Millisecond
	s, ts := startTestServer(t, cfg, func(ctx context.Context, req dip.Request) (dip.Report, error) {
		if req.Options.Seed == 400 {
			return dip.Report{}, &dip.RequestError{Err: errors.New("bad instance")}
		}
		return dip.Report{}, errors.New("transient wobble")
	})

	_, w := submitJob(t, ts.URL, cycleRequest(4, 400), "")
	failed := pollJob(t, ts.URL, w.ID)
	if failed.State != dip.JobStateFailed || failed.Attempts != 1 {
		t.Fatalf("permanent failure: %+v", failed)
	}
	if !strings.Contains(failed.Error, "bad instance") {
		t.Fatalf("error %q", failed.Error)
	}

	_, w = submitJob(t, ts.URL, cycleRequest(4, 1), "")
	parked := pollJob(t, ts.URL, w.ID)
	if parked.State != dip.JobStateParked || parked.Attempts != 2 {
		t.Fatalf("poison job: %+v", parked)
	}
	if got := s.async.metrics.Retries.Value(); got != 1 {
		t.Fatalf("retries %d, want 1", got)
	}
}

// TestJobDisconnectedGraphFails: a disconnected network graph is the
// request's fault, so through the real run path its job settles failed
// on the first attempt instead of retrying a mid-run error until it
// parks.
func TestJobDisconnectedGraphFails(t *testing.T) {
	cfg := config{}
	cfg.jobs = defaultJobsConfig()
	cfg.jobs.attempts = 3
	cfg.jobs.backoffBase = time.Millisecond
	s, ts := startTestServer(t, cfg, nil)
	_, w := submitJob(t, ts.URL, `{"protocol":"sym-dam","n":8,"edges":[[0,1],[2,3]]}`, "")
	failed := pollJob(t, ts.URL, w.ID)
	if failed.State != dip.JobStateFailed || failed.Attempts != 1 {
		t.Fatalf("disconnected graph: %+v", failed)
	}
	if !strings.Contains(failed.Error, "not connected") {
		t.Fatalf("error %q", failed.Error)
	}
	if got := s.async.metrics.Retries.Value(); got != 0 {
		t.Fatalf("retries %d, want 0", got)
	}
}

// TestJobBacklogFull: with no workers draining, submissions beyond the
// bound answer 503 with a Retry-After hint, and a rejected submission
// does not burn its idempotency key.
func TestJobBacklogFull(t *testing.T) {
	cfg := config{}
	cfg.jobs = defaultJobsConfig()
	cfg.jobs.workers = 0
	cfg.jobs.backlog = 2
	_, ts := startTestServer(t, cfg, nil)
	body := cycleRequest(4, 1)
	for i := 0; i < 2; i++ {
		if status, _ := submitJob(t, ts.URL, body, ""); status != http.StatusAccepted {
			t.Fatalf("submission %d: status %d", i, status)
		}
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
	req.Header.Set("Idempotency-Key", "spill")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("overflow answer has no Retry-After hint")
	}
	// The refused admission must not have burnt its idempotency key: a
	// retry with the same key hits the full backlog again (503), not a
	// ghost record pretending the job was queued.
	if status, w := submitJob(t, ts.URL, body, "spill"); status != http.StatusServiceUnavailable {
		t.Fatalf("key retry after refusal: status %d, envelope %+v", status, w)
	}
}

// TestJobDrain: a draining server refuses new submissions but keeps
// answering status polls — a client must be able to collect results
// during shutdown.
func TestJobDrain(t *testing.T) {
	s, ts := startTestServer(t, config{}, nil)
	_, w := submitJob(t, ts.URL, cycleRequest(6, 3), "")
	done := pollJob(t, ts.URL, w.ID)
	s.draining.Store(true)
	if status, _ := submitJob(t, ts.URL, cycleRequest(6, 4), ""); status != http.StatusServiceUnavailable {
		t.Fatalf("draining submission: status %d", status)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + done.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining poll: status %d", resp.StatusCode)
	}
}

// TestReadyzBody: the readiness answer carries the queue picture, and
// flips to draining with a 503.
func TestReadyzBody(t *testing.T) {
	cfg := config{}
	cfg.jobs = defaultJobsConfig()
	cfg.jobs.workers = 0 // hold submissions in the backlog
	s, ts := startTestServer(t, cfg, nil)
	for i := 0; i < 3; i++ {
		submitJob(t, ts.URL, cycleRequest(4, int64(i)), "")
	}
	var body readyBody
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if body.Status != "ready" || body.JobBacklog != 3 || body.Draining {
		t.Fatalf("ready body: %+v", body)
	}
	s.draining.Store(true)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if body.Status != "draining" || !body.Draining || body.JobBacklog != 3 {
		t.Fatalf("draining body: %+v", body)
	}
}

// TestJobJournalRestart: an ingest-only server journals a backlog, stops,
// and a successor with workers replays and finishes every job — the
// HTTP-level face of the crash-replay guarantee. Settled results and the
// idempotency index survive the restart too.
func TestJobJournalRestart(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.journal")

	boot := func(workers int) (*server, *httptest.Server) {
		cfg := defaultConfig()
		cfg.jobs.journal = journal
		cfg.jobs.workers = workers
		s, err := newServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.start()
		return s, httptest.NewServer(s.handler())
	}

	// Boot 1: ingest-only. Everything submitted is pending at "crash".
	s1, ts1 := boot(0)
	ids := make([]string, 0, 3)
	for i := 0; i < 3; i++ {
		status, w := submitJob(t, ts1.URL, cycleRequest(6, int64(i+1)), "")
		if status != http.StatusAccepted {
			t.Fatalf("submission %d: status %d", i, status)
		}
		ids = append(ids, w.ID)
	}
	ts1.Close()
	s1.stop()

	// Boot 2: replay and drain.
	s2, ts2 := boot(2)
	defer func() { ts2.Close(); s2.stop() }()
	stats, durable := s2.async.table.Replayed(), s2.async.table.Durable()
	if !durable || stats.Pending != 3 {
		t.Fatalf("replay stats: %+v (durable %v)", stats, durable)
	}
	for i, id := range ids {
		done := pollJob(t, ts2.URL, id)
		if done.State != dip.JobStateDone {
			t.Fatalf("job %s: state %s (%s)", id, done.State, done.Error)
		}
		if done.Report.Seed != int64(i+1) {
			t.Fatalf("job %s answered seed %d", id, done.Report.Seed)
		}
	}
	if got := s2.async.metrics.Replayed.Value(); got != 3 {
		t.Fatalf("replayed counter %d", got)
	}
}
