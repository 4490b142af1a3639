// Jobs mode: dipload drives the async tier instead of /v1/run. Submit
// enqueues the seeded request stream through POST /v1/jobs (each with a
// deterministic Idempotency-Key, so a re-run of the same submission is
// deduplicated, not doubled) and records the minted ids in a manifest;
// poll reads the manifest back, waits for every job to settle, and
// verifies each finished envelope — valid dip-job/v1 document, state
// done, embedded report matching the seed and protocol the id was
// submitted with. Split modes exist for crash drills: submit against an
// ingest-only server, SIGKILL it, restart with workers, then poll —
// every id in the manifest must still complete exactly once.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dip"
	"dip/internal/stats"
)

// manifestEntry records one submitted job and what its report must say.
type manifestEntry struct {
	ID       string
	Seed     int64
	Protocol string
}

func runJobs(o options) error {
	switch o.jobsMode {
	case "submit", "poll", "full":
	default:
		return fmt.Errorf("unknown -jobs mode %q (want submit, poll, or full)", o.jobsMode)
	}
	if o.jobsMode != "full" && o.jobsFile == "" {
		return fmt.Errorf("-jobs %s needs -jobs-file to carry the id manifest", o.jobsMode)
	}
	if err := waitReady(o.url, o.wait); err != nil {
		return err
	}

	var entries []manifestEntry
	if o.jobsMode == "poll" {
		var err error
		if entries, err = readManifest(o.jobsFile); err != nil {
			return err
		}
	} else {
		var err error
		if entries, err = submitJobs(o); err != nil {
			return err
		}
		if o.jobsFile != "" {
			if err := writeManifest(o.jobsFile, entries); err != nil {
				return err
			}
			fmt.Printf("dipload: jobs: wrote %d ids to %s\n", len(entries), o.jobsFile)
		}
		if o.jobsMode == "submit" {
			return nil
		}
	}
	return pollJobs(o, entries)
}

// submitJobs enqueues the request stream from o.clients concurrent
// submitters, retrying 503s (full backlog, drain) on the shared backoff
// schedule. Request i carries seed DeriveSeed(o.seed, i) and the
// idempotency key "dipload-<seed>-<i>".
func submitJobs(o options) ([]manifestEntry, error) {
	reqs := requestStream(o)
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		b, err := json.Marshal(reqs[i])
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}

	client := &http.Client{Timeout: 30 * time.Second}
	entries := make([]manifestEntry, o.requests)
	var next atomic.Int64
	var deduped, failed atomic.Int64
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < o.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(o.requests) {
					return
				}
				id, dup, err := submitOne(client, o, int(i), bodies[i])
				if err != nil {
					failed.Add(1)
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("request %d: %w", i, err)
					}
					mu.Unlock()
					continue
				}
				if dup {
					deduped.Add(1)
				}
				entries[i] = manifestEntry{
					ID:       id,
					Seed:     reqs[i].Options.Seed,
					Protocol: reqs[i].Protocol,
				}
			}
		}()
	}
	wg.Wait()
	fmt.Printf("dipload: jobs: submitted %d (%d deduplicated, %d failed, c=%d, seed %d)\n",
		o.requests, deduped.Load(), failed.Load(), o.clients, o.seed)
	if firstErr != nil {
		return nil, firstErr
	}
	return entries, nil
}

// submitOne POSTs one job, retrying 503s; dup reports an idempotency hit
// (the service answered 200 with a previously minted job).
func submitOne(client *http.Client, o options, i int, body []byte) (id string, dup bool, err error) {
	key := fmt.Sprintf("dipload-%d-%d", o.seed, i)
	seed := stats.DeriveSeed(o.seed, int64(i))
	const maxAttempts = 50
	for attempt := 0; attempt < maxAttempts; attempt++ {
		req, err := http.NewRequest(http.MethodPost, o.url+"/v1/jobs", strings.NewReader(string(body)))
		if err != nil {
			return "", false, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", key)
		resp, err := client.Do(req)
		if err != nil {
			return "", false, err
		}
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			env, derr := dip.DecodeWireJob(resp.Body)
			drain(resp)
			if derr != nil {
				return "", false, fmt.Errorf("submission answer: %w", derr)
			}
			return env.ID, resp.StatusCode == http.StatusOK, nil
		case http.StatusServiceUnavailable:
			hint := retryAfterHint(resp)
			drain(resp)
			time.Sleep(retryDelay(seed, attempt, hint))
		default:
			drain(resp)
			return "", false, fmt.Errorf("submission answered %d", resp.StatusCode)
		}
	}
	return "", false, fmt.Errorf("retry budget exhausted submitting job %d", i)
}

// pollJobs waits for every manifest id to settle and verifies the
// results: all done, each embedded report valid and matching its entry.
func pollJobs(o options, entries []manifestEntry) error {
	client := &http.Client{Timeout: 30 * time.Second}
	deadline := time.Now().Add(o.pollWait)
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, len(entries))
	var completed, attempts atomic.Int64
	for w := 0; w < o.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(entries)) {
					return
				}
				env, err := awaitJob(client, o.url, entries[i].ID, deadline)
				if err != nil {
					errs[i] = err
					continue
				}
				if err := checkJob(env, entries[i]); err != nil {
					errs[i] = err
					continue
				}
				completed.Add(1)
				attempts.Add(int64(env.Attempts))
			}
		}()
	}
	wg.Wait()

	bad := 0
	for i, err := range errs {
		if err != nil {
			bad++
			if bad <= 5 {
				fmt.Fprintf(os.Stderr, "dipload: jobs: %s: %v\n", entries[i].ID, err)
			}
		}
	}
	fmt.Printf("dipload: jobs: %d/%d completed and verified (%d attempts total)\n",
		completed.Load(), len(entries), attempts.Load())
	if bad > 0 {
		return fmt.Errorf("%d of %d jobs failed verification", bad, len(entries))
	}
	return nil
}

// awaitJob polls one id until it settles or the shared deadline expires.
func awaitJob(client *http.Client, base, id string, deadline time.Time) (*dip.WireJob, error) {
	for {
		resp, err := client.Get(base + "/v1/jobs/" + id)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			drain(resp)
			return nil, fmt.Errorf("status poll answered %d", resp.StatusCode)
		}
		env, derr := dip.DecodeWireJob(resp.Body)
		drain(resp)
		if derr != nil {
			return nil, derr
		}
		switch env.State {
		case dip.JobStateDone, dip.JobStateFailed, dip.JobStateParked:
			return env, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("still %s at the poll deadline", env.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// checkJob verifies one settled envelope against its manifest entry.
// DecodeWireJob already validated the document's structure; this checks
// the content — the job finished, and its report answers the request the
// manifest says was submitted.
func checkJob(env *dip.WireJob, want manifestEntry) error {
	if env.State != dip.JobStateDone {
		return fmt.Errorf("settled %s: %s", env.State, env.Error)
	}
	return checkReport(env.Report, want.Protocol, want.Seed)
}

// The manifest is one line per job: "<id> <seed> <protocol>".

func writeManifest(path string, entries []manifestEntry) error {
	var b strings.Builder
	for _, e := range entries {
		fmt.Fprintf(&b, "%s %d %s\n", e.ID, e.Seed, e.Protocol)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func readManifest(path string) ([]manifestEntry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var entries []manifestEntry
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s: malformed manifest line %q", path, line)
		}
		seed, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad seed in line %q: %w", path, line, err)
		}
		entries = append(entries, manifestEntry{ID: fields[0], Seed: seed, Protocol: fields[2]})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("%s: empty manifest", path)
	}
	return entries, nil
}
