package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dip"
	"dip/internal/faults"
	"dip/internal/network"
	"dip/internal/peer"
)

// startTestServer wires a server with cfg (zero fields defaulted) into an
// httptest listener and tears everything down with the test.
func startTestServer(t *testing.T, cfg config, runFunc func(context.Context, dip.Request) (dip.Report, error)) (*server, *httptest.Server) {
	t.Helper()
	def := defaultConfig()
	if cfg.workers == 0 {
		cfg.workers = 2
	}
	if cfg.queue == 0 {
		cfg.queue = def.queue
	}
	if cfg.timeout == 0 {
		cfg.timeout = def.timeout
	}
	if cfg.maxBody == 0 {
		cfg.maxBody = def.maxBody
	}
	if cfg.jobs == (jobsConfig{}) {
		cfg.jobs = def.jobs
	}
	s, err := newServer(cfg)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	if runFunc != nil {
		s.runFunc = runFunc
	}
	s.start()
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		s.stop()
	})
	return s, ts
}

func postRun(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	return resp
}

func cycleRequest(n int, seed int64) string {
	edges := make([][2]int, n)
	for i := 0; i < n; i++ {
		edges[i] = [2]int{i, (i + 1) % n}
	}
	req := dip.Request{Protocol: "sym-dmam", N: n, Edges: edges, Options: dip.Options{Seed: seed}}
	b, _ := json.Marshal(req)
	return string(b)
}

// TestRunEndpoint: a real protocol run end to end — request in,
// dip-report/v1 out.
func TestRunEndpoint(t *testing.T) {
	_, ts := startTestServer(t, config{}, nil)
	resp := postRun(t, ts.URL, cycleRequest(8, 5))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	w, err := dip.DecodeWireReport(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if w.Protocol != "sym-dmam" || w.Nodes != 8 || w.Seed != 5 || !w.Accepted {
		t.Fatalf("report: %+v", w)
	}
	if len(w.PerRound) != 3 {
		t.Fatalf("per-round entries: %d", len(w.PerRound))
	}
}

// TestRunEndpointDeterministic: the service answers a repeated request
// byte-identically — the engine's seed discipline survives the pool.
func TestRunEndpointDeterministic(t *testing.T) {
	_, ts := startTestServer(t, config{}, nil)
	read := func() string {
		resp := postRun(t, ts.URL, cycleRequest(10, 42))
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if a, b := read(), read(); a != b {
		t.Fatalf("two identical requests answered differently:\n%s\nvs\n%s", a, b)
	}
}

// TestRunEndpointBadRequests: malformed body, unknown field, unknown
// protocol, invalid instance, wrong method.
func TestRunEndpointBadRequests(t *testing.T) {
	_, ts := startTestServer(t, config{}, nil)
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{"protocol": `, http.StatusBadRequest},
		{"unknown field", `{"protocol": "sym-dmam", "n": 4, "edges": [[0,1]], "frobnicate": 1}`, http.StatusBadRequest},
		{"unknown protocol", `{"protocol": "sym-quantum", "n": 4, "edges": [[0,1]]}`, http.StatusBadRequest},
		{"edge out of range", `{"protocol": "sym-dmam", "n": 4, "edges": [[0,9]]}`, http.StatusBadRequest},
		{"unused field", `{"protocol": "sym-dmam", "n": 4, "edges": [[0,1],[1,2],[2,3],[3,0]], "marks": [0,0,1,1]}`, http.StatusBadRequest},
		{"negative timeout", `{"protocol": "sym-dmam", "n": 4, "edges": [[0,1],[1,2],[2,3],[3,0]], "options": {"timeout_ns": -5}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postRun(t, ts.URL, tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, b)
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
				t.Fatalf("error body: %v / %+v", err, eb)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/run: %d", resp.StatusCode)
	}
}

// TestQueueFull: with one worker wedged and the queue occupied, the next
// request is refused immediately — well inside the 5ms admission bound —
// with 503 and a Retry-After hint.
func TestQueueFull(t *testing.T) {
	release := make(chan struct{})
	blocked := make(chan struct{}, 8)
	runFunc := func(ctx context.Context, req dip.Request) (dip.Report, error) {
		blocked <- struct{}{}
		<-release
		return dip.Report{Protocol: req.Protocol}, nil
	}
	s, ts := startTestServer(t, config{workers: 1, queue: 1, timeout: time.Minute}, runFunc)
	defer close(release)

	// First request occupies the worker; second fills the queue.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postRun(t, ts.URL, cycleRequest(4, 1))
			resp.Body.Close()
		}()
	}
	<-blocked // worker holds job 1
	waitFor(t, func() bool { return s.meters.QueueDepth.Value() == 1 })

	start := time.Now()
	resp := postRun(t, ts.URL, cycleRequest(4, 2))
	elapsed := time.Since(start)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// The admission decision itself is a select-default; the 5ms bound
	// leaves room for HTTP round-trip overhead. Race instrumentation slows
	// everything severalfold, so the bound is scaled there.
	bound := 5 * time.Millisecond
	if raceEnabled {
		bound = 50 * time.Millisecond
	}
	if elapsed > bound {
		t.Fatalf("queue-full rejection took %v, want < %v", elapsed, bound)
	}
	if s.meters.Rejected.Value() == 0 {
		t.Fatal("rejection not metered")
	}
	release <- struct{}{}
	release <- struct{}{}
	wg.Wait()
}

// TestAdmissionBound drives the synchronous tier to its bound: with
// workers 3 and queue 2, four /v1/run bodies and one two-item /v1/batch
// (one place, one slot) fill the line, at most three runs are in flight
// at any time, two bodies wait, the next body of each kind is refused at
// once and metered in request units, and once released every admitted
// body answers 200 with both gauges back at 0.
func TestAdmissionBound(t *testing.T) {
	release := make(chan struct{})
	free := sync.OnceFunc(func() { close(release) })
	defer free() // on a failure too, so the cleanup's ts.Close does not wait on a blocked run
	var running, peak atomic.Int64
	runFunc := func(ctx context.Context, req dip.Request) (dip.Report, error) {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		defer running.Add(-1)
		<-release
		return dip.Report{Protocol: req.Protocol}, nil
	}
	s, ts := startTestServer(t, config{workers: 3, queue: 2, timeout: time.Minute}, runFunc)

	batch := func(k int) string {
		items := make([]string, k)
		for i := range items {
			items[i] = cycleRequest(4, int64(100+i))
		}
		return `{"requests": [` + strings.Join(items, ",") + `]}`
	}
	post := func(path, body string) (*http.Response, error) {
		return http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	}
	statuses := make(chan int, 5)
	admit := func(path, body string) {
		go func() {
			resp, err := post(path, body)
			if err != nil {
				t.Errorf("%s: %v", path, err)
				statuses <- 0
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	for i := 0; i < 4; i++ {
		admit("/v1/run", cycleRequest(4, int64(i)))
	}
	admit("/v1/batch", batch(2))
	waitFor(t, func() bool { return running.Load() == 3 && s.meters.QueueDepth.Value() == 2 })

	bound := 5 * time.Millisecond
	if raceEnabled {
		bound = 50 * time.Millisecond
	}
	for _, c := range []struct{ path, body string }{
		{"/v1/run", cycleRequest(4, 9)},
		{"/v1/batch", batch(2)},
	} {
		start := time.Now()
		resp, err := post(c.path, c.body)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s past the bound: status %d, Retry-After %q; want 503 with a hint", c.path, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
		if elapsed > bound {
			t.Fatalf("%s past the bound refused after %v, want < %v", c.path, elapsed, bound)
		}
	}
	if got := s.meters.Rejected.Value(); got != 3 {
		t.Fatalf("rejected meter = %d, want 3 (one run, two batch items)", got)
	}
	if got := s.meters.Requests.Value(); got != 6 {
		t.Fatalf("admitted meter = %d, want 6 (four runs, two batch items)", got)
	}

	free()
	for i := 0; i < 5; i++ {
		if status := <-statuses; status != http.StatusOK {
			t.Fatalf("admitted body answered %d, want 200", status)
		}
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("%d runs in flight at once, want at most 3 (workers)", p)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsPayload
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Service.InFlight != 0 || m.Service.QueueDepth != 0 {
		t.Fatalf("/metrics after release: in_flight %d, queue_depth %d; want 0 and 0", m.Service.InFlight, m.Service.QueueDepth)
	}
}

// TestClientLeavesQueue: a body whose client goes away while it waits
// for a run slot gives its place back at once, not when a slot frees,
// and never runs.
func TestClientLeavesQueue(t *testing.T) {
	release := make(chan struct{})
	free := sync.OnceFunc(func() { close(release) })
	defer free()
	blocked := make(chan struct{}, 2)
	var calls atomic.Int64
	runFunc := func(ctx context.Context, req dip.Request) (dip.Report, error) {
		calls.Add(1)
		blocked <- struct{}{}
		<-release
		return dip.Report{Protocol: req.Protocol}, nil
	}
	s, ts := startTestServer(t, config{workers: 1, queue: 2, timeout: time.Minute}, runFunc)

	statusA := make(chan int, 1)
	go func() {
		resp := postRun(t, ts.URL, cycleRequest(4, 1))
		resp.Body.Close()
		statusA <- resp.StatusCode
	}()
	<-blocked // A holds the one run slot

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/run", strings.NewReader(cycleRequest(4, 2)))
	if err != nil {
		t.Fatal(err)
	}
	errB := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errB <- err
	}()
	waitFor(t, func() bool { return s.meters.QueueDepth.Value() == 1 })
	cancel()
	if err := <-errB; err == nil {
		t.Fatal("canceled request B returned a response")
	}
	waitFor(t, func() bool { return s.meters.QueueDepth.Value() == 0 })
	select {
	case status := <-statusA:
		t.Fatalf("A answered %d before its release", status)
	default:
	}

	free()
	if status := <-statusA; status != http.StatusOK {
		t.Fatalf("A answered %d, want 200", status)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("runFunc ran %d times, want 1 (B must never run)", n)
	}
}

// TestRunDeadline: a run exceeding the per-request deadline is cut off and
// answered 504 with the engine's phase attached.
func TestRunDeadline(t *testing.T) {
	runFunc := func(ctx context.Context, req dip.Request) (dip.Report, error) {
		<-ctx.Done()
		return dip.Report{}, ctx.Err()
	}
	_, ts := startTestServer(t, config{timeout: 20 * time.Millisecond}, runFunc)
	resp := postRun(t, ts.URL, cycleRequest(4, 1))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Phase != "deadline" {
		t.Fatalf("error body: %v / %+v", err, eb)
	}
}

// TestDrain: a draining server refuses new runs and reports not-ready, but
// stays alive for health checks.
func TestDrain(t *testing.T) {
	s, ts := startTestServer(t, config{}, nil)
	s.draining.Store(true)

	resp := postRun(t, ts.URL, cycleRequest(4, 1))
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("run during drain: %d", resp.StatusCode)
	}

	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d", ready.StatusCode)
	}

	alive, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	alive.Body.Close()
	if alive.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: %d", alive.StatusCode)
	}
}

// TestProtocolsEndpoint: the registry listing is served sorted.
func TestProtocolsEndpoint(t *testing.T) {
	_, ts := startTestServer(t, config{}, nil)
	resp, err := http.Get(ts.URL + "/v1/protocols")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Protocols []dip.ProtocolInfo `json:"protocols"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Protocols) != len(dip.Protocols()) {
		t.Fatalf("%d protocols listed", len(body.Protocols))
	}
	for i := 1; i < len(body.Protocols); i++ {
		if body.Protocols[i-1].Name >= body.Protocols[i].Name {
			t.Fatalf("listing unsorted at %d", i)
		}
	}
}

// TestMetricsEndpoint: the composed payload carries service, engine and
// state-pool sections.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := startTestServer(t, config{}, nil)
	postRun(t, ts.URL, cycleRequest(6, 3)).Body.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m metricsPayload
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Service.Requests < 1 {
		t.Fatalf("service requests: %+v", m.Service)
	}
	if m.StatePool.Capacity < 1 {
		t.Fatalf("state pool: %+v", m.StatePool)
	}
	if len(m.Service.Protocols) == 0 || m.Service.Protocols[0].Protocol != "sym-dmam" {
		t.Fatalf("per-protocol: %+v", m.Service.Protocols)
	}
}

// TestStatePoolSizedForAllEngineWorkers: request workers and job workers
// run through the one process-wide state pool at the same time, so a
// server whose combined count exceeds the default floor sizes the pool to
// the sum, not to the request workers alone.
func TestStatePoolSizedForAllEngineWorkers(t *testing.T) {
	prev := network.SetStatePoolCapacity(0)
	t.Cleanup(func() { network.SetStatePoolCapacity(prev) })
	cfg := config{workers: 40, jobs: defaultJobsConfig()}
	cfg.jobs.workers = 8
	startTestServer(t, cfg, nil)
	if got := network.StatePoolStats().Capacity; got != 48 {
		t.Fatalf("state pool capacity %d, want 48 (40 workers + 8 job workers)", got)
	}
}

// TestRequestStorm hammers the service with real concurrent runs over the
// shared engine pool: every request must come back 200 or 503, every 200
// must decode into a valid report, and nothing may hang. Run with -race
// this doubles as the pool-sharing data-race check.
func TestRequestStorm(t *testing.T) {
	s, ts := startTestServer(t, config{workers: 4, queue: 8}, nil)

	const clients = 8
	const perClient = 15
	var ok200, ok503, other atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				body := cycleRequest(12+(i%3)*2, int64(c*1000+i))
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					if _, err := dip.DecodeWireReport(resp.Body); err != nil {
						t.Errorf("client %d: bad report: %v", c, err)
					}
					ok200.Add(1)
				case http.StatusServiceUnavailable:
					ok503.Add(1)
				default:
					other.Add(1)
					b, _ := io.ReadAll(resp.Body)
					t.Errorf("client %d: status %d: %s", c, resp.StatusCode, b)
				}
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()

	if got := ok200.Load() + ok503.Load(); got != clients*perClient || other.Load() != 0 {
		t.Fatalf("%d ok + %d overflow + %d other of %d", ok200.Load(), ok503.Load(), other.Load(), clients*perClient)
	}
	if ok200.Load() == 0 {
		t.Fatal("no request succeeded")
	}
	if s.meters.InFlight.Value() != 0 || s.meters.QueueDepth.Value() != 0 {
		t.Fatalf("gauges nonzero after storm: in-flight %d, queue %d",
			s.meters.InFlight.Value(), s.meters.QueueDepth.Value())
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatchEndpoint: N requests in one body come back as an array whose
// elements are byte-identical to the corresponding /v1/run answers, with
// per-item errors inline instead of failing the whole batch.
func TestBatchEndpoint(t *testing.T) {
	_, ts := startTestServer(t, config{}, nil)

	single := func(body string) string {
		resp := postRun(t, ts.URL, body)
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	want0 := single(cycleRequest(8, 5))
	want1 := single(cycleRequest(8, 6))

	batch := `{"requests": [` + cycleRequest(8, 5) + `,` + cycleRequest(8, 6) +
		`,{"protocol": "sym-dmam", "n": 4, "edges": [[0,9]]}]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var elems []json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&elems); err != nil {
		t.Fatal(err)
	}
	if len(elems) != 3 {
		t.Fatalf("%d elements, want 3", len(elems))
	}
	for i, want := range []string{want0, want1} {
		if got := string(elems[i]) + "\n"; got != want {
			t.Fatalf("element %d differs from /v1/run answer:\n%s\nvs\n%s", i, got, want)
		}
	}
	var eb errorBody
	if err := json.Unmarshal(elems[2], &eb); err != nil || eb.Error == "" {
		t.Fatalf("element 2 is not an error object: %v / %s", err, elems[2])
	}
}

// TestBatchEndpointBadRequests: empty batches, oversized batches, and
// malformed bodies are refused before admission.
func TestBatchEndpointBadRequests(t *testing.T) {
	_, ts := startTestServer(t, config{}, nil)
	var big strings.Builder
	big.WriteString(`{"requests": [`)
	for i := 0; i <= maxBatchItems; i++ {
		if i > 0 {
			big.WriteString(",")
		}
		big.WriteString(cycleRequest(4, int64(i)))
	}
	big.WriteString(`]}`)
	for _, tc := range []struct {
		name, body string
	}{
		{"empty", `{"requests": []}`},
		{"malformed", `{"requests": `},
		{"oversized", big.String()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}
}

// TestMapRunError pins the full error taxonomy: engine phases keep their
// distinctions, request validation is the client's fault, context ends
// are 504, and — the regression this table exists for — an unclassified
// error is an internal 500, never blamed on the client as a 400.
func TestMapRunError(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		status int
		phase  string
	}{
		{"engine setup", &network.RunError{Protocol: "p", Phase: network.PhaseSetup, Round: -1, Node: -1, Err: errors.New("x")}, http.StatusBadRequest, "setup"},
		{"engine challenge", &network.RunError{Protocol: "p", Phase: network.PhaseChallenge, Round: 0, Node: 1, Err: errors.New("x")}, http.StatusBadGateway, "challenge"},
		{"engine respond", &network.RunError{Protocol: "p", Phase: network.PhaseRespond, Round: 0, Node: -1, Err: errors.New("x")}, http.StatusBadGateway, "respond"},
		{"engine digest", &network.RunError{Protocol: "p", Phase: network.PhaseDigest, Round: 1, Node: 2, Err: errors.New("x")}, http.StatusBadGateway, "digest"},
		{"engine decide", &network.RunError{Protocol: "p", Phase: network.PhaseDecide, Round: -1, Node: 0, Err: errors.New("x")}, http.StatusBadGateway, "decide"},
		{"engine deadline", &network.RunError{Protocol: "p", Phase: network.PhaseDeadline, Round: 0, Node: -1, Err: errors.New("x")}, http.StatusGatewayTimeout, "deadline"},
		{"engine canceled", &network.RunError{Protocol: "p", Phase: network.PhaseCanceled, Round: 0, Node: -1, Err: errors.New("x")}, http.StatusGatewayTimeout, "canceled"},
		{"request validation", &dip.RequestError{Err: errors.New("bad instance")}, http.StatusBadRequest, "request"},
		{"wrapped request validation", fmt.Errorf("running: %w", &dip.RequestError{Err: errors.New("bad")}), http.StatusBadRequest, "request"},
		{"context deadline", context.DeadlineExceeded, http.StatusGatewayTimeout, "deadline"},
		{"context canceled", context.Canceled, http.StatusGatewayTimeout, "deadline"},
		{"wrapped context deadline", fmt.Errorf("run: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, "deadline"},
		{"unclassified", errors.New("disk on fire"), http.StatusInternalServerError, "internal"},
		{"wrapped unclassified", fmt.Errorf("outer: %w", errors.New("inner")), http.StatusInternalServerError, "internal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, phase := mapRunError(tc.err)
			if status != tc.status || phase != tc.phase {
				t.Fatalf("mapRunError(%v) = (%d, %q), want (%d, %q)", tc.err, status, phase, tc.status, tc.phase)
			}
		})
	}
}

// TestInternalErrorStatus: an unclassified run failure travels the wire
// as a 500 (the pre-fix fallback answered 400, telling the client to
// fix a request that was fine), and a panicking run func is contained
// into the same 500 with the service still alive afterwards.
func TestInternalErrorStatus(t *testing.T) {
	var mode atomic.Int64
	runFunc := func(ctx context.Context, req dip.Request) (dip.Report, error) {
		switch mode.Load() {
		case 1:
			return dip.Report{}, errors.New("unclassified failure")
		case 2:
			panic("boom")
		}
		return dip.Report{Protocol: req.Protocol, Decisions: []bool{true}}, nil
	}
	_, ts := startTestServer(t, config{}, runFunc)

	for _, tc := range []struct {
		name string
		mode int64
	}{
		{"plain error", 1},
		{"panic", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mode.Store(tc.mode)
			resp := postRun(t, ts.URL, cycleRequest(4, 1))
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusInternalServerError {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want 500: %s", resp.StatusCode, b)
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Phase != "internal" {
				t.Fatalf("error body: %v / %+v", err, eb)
			}
		})
	}
	// The worker that contained the panic is still serving.
	mode.Store(0)
	resp := postRun(t, ts.URL, cycleRequest(4, 2))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after contained panic: %d", resp.StatusCode)
	}
}

// TestOversizedBody: a body past the cap is refused 413 (the client must
// shrink it, not fix it) on both endpoints, and the cut-off decode never
// reaches admission.
func TestOversizedBody(t *testing.T) {
	s, ts := startTestServer(t, config{maxBody: 512}, nil)
	big := cycleRequest(200, 1) // ~2KB of edges, far past the 512-byte cap
	for _, path := range []string{"/v1/run", "/v1/batch"} {
		t.Run(path, func(t *testing.T) {
			body := big
			if path == "/v1/batch" {
				body = `{"requests": [` + big + `]}`
			}
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want 413: %s", resp.StatusCode, b)
			}
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
				t.Fatalf("error body: %v / %+v", err, eb)
			}
		})
	}
	if s.meters.Requests.Value() != 0 {
		t.Fatalf("oversized bodies were admitted: %d requests metered", s.meters.Requests.Value())
	}
}

// TestMidBodyDisconnect: a client that promises a body and vanishes
// mid-send must not wedge the service — the decoder sees the broken
// read, the handler answers into the void, and the next well-behaved
// request is served normally.
func TestMidBodyDisconnect(t *testing.T) {
	s, ts := startTestServer(t, config{}, nil)
	body := cycleRequest(16, 1)

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	head := fmt.Sprintf("POST /v1/run HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
	if _, err := conn.Write([]byte(head + body[:len(body)/3])); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The service shrugs: gauges drain and a normal request still works.
	waitFor(t, func() bool {
		return s.meters.InFlight.Value() == 0 && s.meters.QueueDepth.Value() == 0
	})
	resp := postRun(t, ts.URL, cycleRequest(8, 2))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after disconnect: %d", resp.StatusCode)
	}
}

// TestStopUnderConcurrentAdmission is the drain-race regression test:
// stop() fires while handlers are mid-admission, the window in which an
// early server closed its job channel and a racing handler's enqueue
// panicked the whole process ("send on closed channel"). No channel is
// left to close: each body runs on its own handler goroutine, and stop()
// only marks the server draining. Every storm request must come back
// 200 or 503 — and the process must survive. Run under -race this also
// checks the draining flag against handlers admitting and running.
func TestStopUnderConcurrentAdmission(t *testing.T) {
	cfg := defaultConfig()
	cfg.workers = 2
	cfg.queue = 4
	cfg.timeout = time.Minute
	s, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.runFunc = func(ctx context.Context, req dip.Request) (dip.Report, error) {
		time.Sleep(200 * time.Microsecond) // hold the run slots busy so admission races stop()
		return dip.Report{Protocol: req.Protocol}, nil
	}
	s.start()
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	body := []byte(cycleRequest(4, 1))
	const clients = 8
	const perClient = 60
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
				if err != nil {
					// The httptest server itself never goes away; a
					// transport error here would be a real failure.
					t.Errorf("client %d: %v", c, err)
					return
				}
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					b, _ := io.ReadAll(resp.Body)
					t.Errorf("client %d: status %d: %s", c, resp.StatusCode, b)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(c)
	}

	// Stop mid-storm. The sleep puts stop() inside the storm window
	// rather than before it; the exact interleaving varies per run, which
	// is the point — any schedule must be panic-free.
	time.Sleep(2 * time.Millisecond)
	s.stop()
	wg.Wait()

	// After stop, admission still answers (503, as draining), never
	// hangs.
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-stop request: %d", resp.StatusCode)
	}
}

// TestRateLimit429: with a per-client budget configured, a burst past it
// answers 429 with a Retry-After hint, the turned-away requests are
// metered in request units, and the budget refills.
func TestRateLimit429(t *testing.T) {
	runFunc := func(ctx context.Context, req dip.Request) (dip.Report, error) {
		return dip.Report{Protocol: req.Protocol}, nil
	}
	s, ts := startTestServer(t, config{rateLimit: 5, rateBurst: 3}, runFunc)
	// Drive the limiter's clock by hand so the burst cannot refill
	// mid-test on a slow runner.
	clock := &fakeClock{t: time.Unix(2000, 0)}
	s.limiter.now = clock.now

	body := cycleRequest(4, 1)
	for i := 0; i < 3; i++ {
		resp := postRun(t, ts.URL, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: %d", i, resp.StatusCode)
		}
	}
	resp := postRun(t, ts.URL, body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.meters.RateLimited.Value(); got != 1 {
		t.Fatalf("rate-limited meter = %d, want 1", got)
	}
	// The refusal is pre-admission: nothing was queued or run for it.
	if got := s.meters.Requests.Value(); got != 3 {
		t.Fatalf("admitted meter = %d, want 3", got)
	}

	clock.advance(time.Second) // 5 tokens/s refills the burst of 3
	ok := postRun(t, ts.URL, body)
	ok.Body.Close()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("request after refill: %d", ok.StatusCode)
	}
}

// TestRateLimitBatchCost: a batch spends one token per item — the
// admission unit is the body, but the quota unit is the request, so a
// k-item batch against a k-token budget exhausts it exactly.
func TestRateLimitBatchCost(t *testing.T) {
	runFunc := func(ctx context.Context, req dip.Request) (dip.Report, error) {
		return dip.Report{Protocol: req.Protocol, Decisions: []bool{true}}, nil
	}
	s, ts := startTestServer(t, config{rateLimit: 1, rateBurst: 4}, runFunc)
	clock := &fakeClock{t: time.Unix(3000, 0)}
	s.limiter.now = clock.now

	batch := `{"requests": [` + cycleRequest(4, 1) + `,` + cycleRequest(4, 2) + `,` + cycleRequest(4, 3) + `]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first batch: %d", resp.StatusCode)
	}
	// 1 token left; the next 3-item batch is over budget and is metered
	// as 3 refused requests.
	resp2, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second batch: %d, want 429", resp2.StatusCode)
	}
	if got := s.meters.RateLimited.Value(); got != 3 {
		t.Fatalf("rate-limited meter = %d, want 3 (per-item units)", got)
	}
	// And the quota counter is visible on /metrics.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m metricsPayload
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Service.RateLimited != 3 {
		t.Fatalf("/metrics rate_limited = %d, want 3", m.Service.RateLimited)
	}
	if m.Runtime.Goroutines < 1 {
		t.Fatalf("/metrics runtime section missing: %+v", m.Runtime)
	}
}

// TestBatchRejectionUnits: the pre-fix server admitted a batch as
// Requests.Add(len) but rejected it as Rejected.Add(1); both counters
// must move in request units or their ratio is meaningless.
func TestBatchRejectionUnits(t *testing.T) {
	release := make(chan struct{})
	blocked := make(chan struct{}, 8)
	runFunc := func(ctx context.Context, req dip.Request) (dip.Report, error) {
		blocked <- struct{}{}
		<-release
		return dip.Report{Protocol: req.Protocol}, nil
	}
	s, ts := startTestServer(t, config{workers: 1, queue: 1, timeout: time.Minute}, runFunc)
	defer close(release)

	batch := `{"requests": [` + cycleRequest(4, 1) + `,` + cycleRequest(4, 2) + `,` + cycleRequest(4, 3) + `]}`
	post := func() int {
		resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(batch))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	// Wedge the worker with one batch, fill the queue with a second.
	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() { post(); done <- struct{}{} }()
	}
	<-blocked
	waitFor(t, func() bool { return s.meters.QueueDepth.Value() == 1 })

	if status := post(); status != http.StatusServiceUnavailable {
		t.Fatalf("queue-full batch: %d, want 503", status)
	}
	if got := s.meters.Rejected.Value(); got != 3 {
		t.Fatalf("rejected meter = %d, want 3 (per-item units, not 1 per body)", got)
	}
	// Admission moved in the same units: 2 batches * 3 items.
	if got := s.meters.Requests.Value(); got != 6 {
		t.Fatalf("admitted meter = %d, want 6", got)
	}
	for i := 0; i < 6; i++ {
		release <- struct{}{}
	}
	<-done
	<-done
}

// TestRequestStormChaos interleaves well-behaved clients with raw-TCP
// chaos exchanges (malformed, truncated, oversized, slow, disconnecting,
// unparseable) against the same listener: the well-behaved traffic must
// keep succeeding, every answered chaos exchange must be 4xx/5xx, the
// gauges must drain to zero, and the goroutine count must settle — the
// in-process twin of `dipload -chaos`, and under -race the data-race
// check for the adversarial path.
func TestRequestStormChaos(t *testing.T) {
	s, ts := startTestServer(t, config{workers: 4, queue: 8}, nil)
	addr := ts.Listener.Addr().String()
	baseline := runtime.NumGoroutine()

	const goodClients = 4
	const perGood = 10
	const chaosClients = 4
	const perChaos = 12
	var ok200, ok503, badGood, chaosViolations atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < goodClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perGood; i++ {
				resp, err := http.Post(ts.URL+"/v1/run", "application/json",
					strings.NewReader(cycleRequest(10+(i%3)*2, int64(c*100+i))))
				if err != nil {
					t.Errorf("good client %d: %v", c, err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					if _, err := dip.DecodeWireReport(resp.Body); err != nil {
						t.Errorf("good client %d: bad report: %v", c, err)
					}
					ok200.Add(1)
				case http.StatusServiceUnavailable:
					ok503.Add(1)
				default:
					badGood.Add(1)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(c)
	}
	body := []byte(cycleRequest(12, 7))
	for c := 0; c < chaosClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perChaos; i++ {
				sc, rng := faults.HTTPChaosFor(99, c*perChaos+i)
				out, err := sc.Run(rng, addr, body)
				if err != nil {
					t.Errorf("chaos %s: %v", sc.Name, err)
					continue
				}
				if sc.WantResponse && (out.Status < 400 || out.Status >= 600) {
					chaosViolations.Add(1)
					t.Errorf("chaos %s: status %d, want 4xx/5xx", sc.Name, out.Status)
				}
			}
		}(c)
	}
	wg.Wait()

	if badGood.Load() != 0 || chaosViolations.Load() != 0 {
		t.Fatalf("%d bad well-behaved answers, %d chaos violations", badGood.Load(), chaosViolations.Load())
	}
	if ok200.Load() == 0 {
		t.Fatal("no well-behaved request succeeded under chaos")
	}
	// The boundary sheds the abuse completely: gauges drain and the
	// goroutine count settles back (idle-connection reaping takes a few
	// read-deadline cycles, hence the wait loop and slack).
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, func() bool {
		return s.meters.InFlight.Value() == 0 && s.meters.QueueDepth.Value() == 0
	})
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+12 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d live, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// startPeerFleet boots k in-process peer servers with the dippeer
// SpecBuilder, dip.PeerSpec, and returns a dialed dip.Fleet plus a kill
// switch that severs every peer (listener and live sessions).
func startPeerFleet(t *testing.T, k int) (*dip.Fleet, func()) {
	t.Helper()
	var (
		listeners []net.Listener
		servers   []*peer.Server
		addrs     []string
	)
	for i := 0; i < k; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := &peer.Server{Build: dip.PeerSpec}
		go srv.Serve(l)
		listeners = append(listeners, l)
		servers = append(servers, srv)
		addrs = append(addrs, l.Addr().String())
	}
	kill := func() {
		for i := range listeners {
			listeners[i].Close()
			servers[i].Close()
		}
	}
	t.Cleanup(kill)
	fleet, err := dip.DialFleet(addrs, dip.FleetOptions{IOTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleet.Close() })
	return fleet, kill
}

// TestFleetBackedServer pins the -peers serving path end to end with
// in-process peers: /v1/run and /v1/batch answer through the fleet with
// the same bytes the in-process path produces, /metrics carries the
// fleet gauges, /readyz reports reachability — and once every peer dies,
// runs answer structured 502s and readiness goes 503.
func TestFleetBackedServer(t *testing.T) {
	fleet, kill := startPeerFleet(t, 2)
	s, ts := startTestServer(t, config{}, nil)
	s.useFleet(fleet)

	// A fleet-backed run must be byte-identical to the in-process answer.
	resp := postRun(t, ts.URL, cycleRequest(8, 5))
	fleetBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fleet run status %d: %s", resp.StatusCode, fleetBody)
	}
	var req dip.Request
	if err := json.Unmarshal([]byte(cycleRequest(8, 5)), &req); err != nil {
		t.Fatal(err)
	}
	local, err := dip.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := dip.WireReportFrom(local, req.Options.Seed).Encode(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fleetBody, want.Bytes()) {
		t.Fatalf("fleet answer diverges from in-process:\nfleet %s\nlocal %s", fleetBody, want.Bytes())
	}

	// Batch rides the same fleet.
	batch := fmt.Sprintf(`{"requests": [%s, %s]}`, cycleRequest(6, 1), cycleRequest(6, 2))
	bresp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	bbody, _ := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("fleet batch status %d: %s", bresp.StatusCode, bbody)
	}

	// The fleet gauges surface on /metrics with real traffic in them.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Fleet *dip.FleetStats `json:"fleet"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if metrics.Fleet == nil || len(metrics.Fleet.Peers) != 2 {
		t.Fatalf("metrics fleet block: %+v", metrics.Fleet)
	}
	var completed int64
	for _, ps := range metrics.Fleet.Peers {
		completed += ps.SessionsCompleted
	}
	if completed == 0 {
		t.Fatal("no completed sessions in fleet gauges after successful runs")
	}

	// /readyz carries the fleet block and stays ready while peers live.
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready readyBody
	if err := json.NewDecoder(rresp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK || ready.Fleet == nil || ready.Fleet.Peers != 2 || len(ready.Fleet.Unreachable) != 0 {
		t.Fatalf("readyz with live fleet: status %d, %+v", rresp.StatusCode, ready.Fleet)
	}

	// Kill every peer: runs must answer structured 502s, not hang.
	kill()
	resp = postRun(t, ts.URL, cycleRequest(8, 6))
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway || eb.Phase != "transport" {
		t.Fatalf("run against dead fleet: status %d, phase %q (%s)", resp.StatusCode, eb.Phase, eb.Error)
	}

	// Readiness follows: every peer unreachable is a 503.
	rresp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	ready = readyBody{}
	if err := json.NewDecoder(rresp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable || ready.Status != "fleet-unreachable" ||
		ready.Fleet == nil || len(ready.Fleet.Unreachable) != 2 {
		t.Fatalf("readyz with dead fleet: status %d, %+v", rresp.StatusCode, ready)
	}
}
