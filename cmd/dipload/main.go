// Command dipload drives traffic at cmd/dipserve: it fires a fixed number
// of protocol-run requests at a running service from a pool of concurrent
// clients, retries admission overflows (503), checks every dip-report/v1
// answer against the request it answers, and prints one count line:
//
//	dipload: completed=N errors=E exhausted=X retries=R dropped=D
//
// for example after
//
//	dipload -url http://127.0.0.1:8123 -protocol sym-dmam -n 64 -c 8 -requests 2000
//
// Request i runs with seed DeriveSeed(-seed, i), so the request stream is
// reproducible. retries counts 503 round trips; the other four count
// requests (a batch of k items moves its class by k) in disjoint
// classes: completed are answered correctly, errors are structured error
// answers, exhausted are retry budgets spent against 503s (overload, not
// failure), and dropped are transport-level losses — a healthy service
// under overload answers 503, it never drops. A 200 whose report does not
// answer its request (another protocol or seed, or a rejected symmetric
// instance) is none of these: it fails the run, naming the request.
// dipload exits 1 on a wrong answer, a dropped connection, or a run in
// which nothing completed. Throughput and latency are the benchmark's
// business (bench/run.sh), not dipload's.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dip"
	"dip/internal/stats"
)

type options struct {
	url       string
	protocols []string
	n         int
	clients   int
	requests  int
	batch     int
	chaos     int
	seed      int64
	wait      time.Duration
	// jobsMode drives the async tier instead of /v1/run: "submit" only
	// enqueues (and records the ids), "poll" verifies a recorded id set,
	// "full" does both in one process. Empty stays in load mode.
	jobsMode string
	// jobsFile is the id manifest submit writes and poll reads.
	jobsFile string
	// pollWait bounds how long poll waits for the whole id set to settle.
	pollWait time.Duration
}

// supportedProtocols maps the protocol names dipload can generate
// instances for: the symmetry family on cycle graphs (always symmetric,
// so the honest prover accepts).
var supportedProtocols = map[string]bool{
	"sym-dmam": true,
	"sym-dam":  true,
	"sym-lcp":  true,
	"sym-rpls": true,
}

func main() {
	var o options
	var protoList string
	flag.StringVar(&o.url, "url", "http://127.0.0.1:8123", "dipserve base URL")
	flag.StringVar(&protoList, "protocol", "sym-dmam", "comma-separated protocols to exercise (sym-dmam, sym-dam, sym-lcp, sym-rpls)")
	flag.IntVar(&o.n, "n", 64, "vertices per instance (cycle graph)")
	flag.IntVar(&o.clients, "c", 8, "concurrent clients")
	flag.IntVar(&o.requests, "requests", 2000, "total requests")
	flag.IntVar(&o.batch, "batch", 0, "send batches of this many same-protocol requests through /v1/batch (0 = one request per body)")
	flag.IntVar(&o.chaos, "chaos", 0, "chaos mode: fire this many adversarial HTTP exchanges (seed-deterministic scenarios) instead of a load run, then gate on service health")
	flag.Int64Var(&o.seed, "seed", 1, "base seed (request i uses DeriveSeed(seed, i))")
	flag.DurationVar(&o.wait, "wait", 10*time.Second, "wait up to this long for the service to report ready")
	flag.StringVar(&o.jobsMode, "jobs", "", "async job mode: submit (enqueue and record ids), poll (verify a recorded id set), full (both)")
	flag.StringVar(&o.jobsFile, "jobs-file", "", "job id manifest: -jobs submit writes it, -jobs poll reads it")
	flag.DurationVar(&o.pollWait, "poll-wait", time.Minute, "bound on waiting for the whole job set to settle in -jobs poll/full")
	flag.Parse()

	for _, p := range strings.Split(protoList, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !supportedProtocols[p] {
			fmt.Fprintf(os.Stderr, "dipload: unsupported protocol %q\n", p)
			os.Exit(2)
		}
		o.protocols = append(o.protocols, p)
	}
	if len(o.protocols) == 0 || o.n < 3 || o.clients < 1 || o.requests < 1 || o.batch < 0 || o.chaos < 0 {
		fmt.Fprintln(os.Stderr, "dipload: need at least one protocol, -n >= 3, -c >= 1, -requests >= 1, -batch >= 0, -chaos >= 0")
		os.Exit(2)
	}

	if o.chaos > 0 {
		if err := runChaos(o); err != nil {
			fmt.Fprintf(os.Stderr, "dipload: chaos: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if o.jobsMode != "" {
		if err := runJobs(o); err != nil {
			fmt.Fprintf(os.Stderr, "dipload: jobs: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "dipload: %v\n", err)
		os.Exit(1)
	}
}

// cycleEdges returns the edge list of the n-cycle, the instance of every
// request dipload sends.
func cycleEdges(n int) [][2]int {
	edges := make([][2]int, n)
	for i := range edges {
		edges[i] = [2]int{i, (i + 1) % n}
	}
	return edges
}

// requestStream builds the seeded request stream every mode sends:
// request i asks protocol i mod len(protocols) on the n-cycle with seed
// DeriveSeed(o.seed, i).
func requestStream(o options) []dip.Request {
	edges := cycleEdges(o.n)
	reqs := make([]dip.Request, o.requests)
	for i := range reqs {
		reqs[i] = dip.Request{
			Protocol: o.protocols[i%len(o.protocols)],
			N:        o.n,
			Edges:    edges,
			Options:  dip.Options{Seed: stats.DeriveSeed(o.seed, int64(i))},
		}
	}
	return reqs
}

// checkReport verifies the content of a decoded report: it answers the
// protocol and seed sent, and accepts — every instance dipload sends is a
// symmetric cycle with an honest prover behind it.
func checkReport(r *dip.WireReport, protocol string, seed int64) error {
	if r.Protocol != protocol {
		return fmt.Errorf("report protocol %q, sent %q", r.Protocol, protocol)
	}
	if r.Seed != seed {
		return fmt.Errorf("report seed %d, sent %d", r.Seed, seed)
	}
	if !r.Accepted {
		return fmt.Errorf("symmetric instance rejected (seed %d)", seed)
	}
	return nil
}

// body is one HTTP body of the stream: a single /v1/run request, or a
// /v1/batch of same-protocol requests. idx holds the stream indices of
// the requests it carries, in order.
type body struct {
	batch bool
	data  []byte
	idx   []int
}

// buildBodies marshals the stream before any request is sent. With
// o.batch > 0 it groups the stream by protocol and chunks each group
// into bodies of up to o.batch items; seeds are those of the plain
// stream.
func buildBodies(o options, reqs []dip.Request) ([]body, error) {
	if o.batch == 0 {
		bodies := make([]body, len(reqs))
		for i := range reqs {
			data, err := json.Marshal(reqs[i])
			if err != nil {
				return nil, err
			}
			bodies[i] = body{data: data, idx: []int{i}}
		}
		return bodies, nil
	}
	perProto := make(map[string][]int, len(o.protocols))
	for i := range reqs {
		perProto[reqs[i].Protocol] = append(perProto[reqs[i].Protocol], i)
	}
	var bodies []body
	for _, p := range o.protocols {
		idx := perProto[p]
		for len(idx) > 0 {
			chunk := idx[:min(o.batch, len(idx))]
			idx = idx[len(chunk):]
			items := make([]dip.Request, len(chunk))
			for k, i := range chunk {
				items[k] = reqs[i]
			}
			data, err := json.Marshal(struct {
				Requests []dip.Request `json:"requests"`
			}{items})
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, body{batch: true, data: data, idx: chunk})
		}
	}
	return bodies, nil
}

// counts is the run's ledger: retries in 503 round trips, the rest in
// requests.
type counts struct {
	completed, errors, exhausted, retries, dropped atomic.Int64
}

// wrongAnswer is a 200 that does not answer request i of the stream.
type wrongAnswer struct {
	i   int
	err error
}

func run(o options, stdout io.Writer) error {
	if err := waitReady(o.url, o.wait); err != nil {
		return err
	}
	reqs := requestStream(o)
	bodies, err := buildBodies(o, reqs)
	if err != nil {
		return err
	}

	// One warm connection per client: the default Transport keeps only two
	// idle connections per host, so higher concurrency would constantly
	// re-dial.
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        o.clients,
			MaxIdleConnsPerHost: o.clients,
		},
	}
	var (
		c     counts
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		wrong []wrongAnswer
	)
	for w := 0; w < o.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				b := next.Add(1) - 1
				if b >= int64(len(bodies)) {
					return
				}
				if bad := fire(client, o.url, bodies[b], reqs, stats.DeriveSeed(o.seed, b), &c); len(bad) > 0 {
					mu.Lock()
					wrong = append(wrong, bad...)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()

	fmt.Fprintf(stdout, "dipload: completed=%d errors=%d exhausted=%d retries=%d dropped=%d\n",
		c.completed.Load(), c.errors.Load(), c.exhausted.Load(), c.retries.Load(), c.dropped.Load())
	if len(wrong) > 0 {
		first := wrong[0]
		for _, w := range wrong[1:] {
			if w.i < first.i {
				first = w
			}
		}
		return fmt.Errorf("%d wrong answer(s), first to request %d: %v", len(wrong), first.i, first.err)
	}
	if d := c.dropped.Load(); d > 0 {
		return fmt.Errorf("%d dropped connections", d)
	}
	if c.completed.Load() == 0 {
		return errors.New("no request completed")
	}
	return nil
}

// fire sends one body, retrying 503 admission overflows on the
// capped-exponential schedule in backoff.go (seeded jitter, Retry-After
// honored), and charges its outcome to c. A dropped connection, a spent
// retry budget or a structured error status moves its class by every
// request the body carries: an exhausted budget is not an error, since
// 50 polite 503s are a capacity statement, not a protocol failure. A 200
// is judged item by item: a batch item may be a structured error, and
// every report must answer its request, or it is returned as a wrong
// answer.
func fire(client *http.Client, url string, b body, reqs []dip.Request, seed int64, c *counts) []wrongAnswer {
	path := "/v1/run"
	if b.batch {
		path = "/v1/batch"
	}
	k := int64(len(b.idx))
	const maxAttempts = 50
	for attempt := 0; attempt < maxAttempts; attempt++ {
		resp, err := client.Post(url+path, "application/json", bytes.NewReader(b.data))
		if err != nil {
			c.dropped.Add(k)
			return nil
		}
		switch resp.StatusCode {
		case http.StatusOK:
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil { // the connection broke mid-answer
				c.dropped.Add(k)
				return nil
			}
			items, err := splitItems(data, b)
			if err != nil {
				return []wrongAnswer{{b.idx[0], err}}
			}
			var wrong []wrongAnswer
			for j, item := range items {
				i := b.idx[j]
				var itemErr struct {
					Error string `json:"error"`
				}
				if b.batch && json.Unmarshal(item, &itemErr) == nil && itemErr.Error != "" {
					c.errors.Add(1)
					continue
				}
				rep, err := dip.DecodeWireReport(bytes.NewReader(item))
				if err == nil {
					err = checkReport(rep, reqs[i].Protocol, reqs[i].Options.Seed)
				}
				if err != nil {
					wrong = append(wrong, wrongAnswer{i, err})
					continue
				}
				c.completed.Add(1)
			}
			return wrong
		case http.StatusServiceUnavailable:
			hint := retryAfterHint(resp)
			drain(resp)
			c.retries.Add(1)
			time.Sleep(retryDelay(seed, attempt, hint))
		default:
			drain(resp)
			c.errors.Add(k)
			return nil
		}
	}
	c.exhausted.Add(k)
	return nil
}

// splitItems splits a 200 answer to b into one item per request: the
// report of a /v1/run, or the elements of a /v1/batch array.
func splitItems(data []byte, b body) ([]json.RawMessage, error) {
	if !b.batch {
		return []json.RawMessage{data}, nil
	}
	var items []json.RawMessage
	if err := json.Unmarshal(data, &items); err != nil {
		return nil, fmt.Errorf("batch answer: %w", err)
	}
	if len(items) != len(b.idx) {
		return nil, fmt.Errorf("batch answer has %d items for %d requests", len(items), len(b.idx))
	}
	return items, nil
}

// drain reads the body to EOF and closes it, so the transport can return
// the connection to the idle pool instead of tearing it down.
func drain(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// waitReady polls /readyz until the service answers 200.
func waitReady(url string, bound time.Duration) error {
	deadline := time.Now().Add(bound)
	for {
		resp, err := http.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("service at %s not ready: %w", url, err)
			}
			return fmt.Errorf("service at %s not ready", url)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
