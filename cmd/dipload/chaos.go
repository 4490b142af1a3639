// Chaos mode: instead of measuring throughput, dipload turns adversarial.
// It fires -chaos raw-TCP exchanges at the service — each one a
// seed-deterministically chosen faults.HTTPChaos scenario (malformed and
// truncated JSON, oversized uploads, slowloris drips, mid-body
// disconnects, garbage framing) — and then gates on the service's health:
// every answered scenario must earn a structured 4xx/5xx (a 2xx or a
// dropped connection is a hardening violation), and afterwards the
// service must still answer /healthz, hold no in-flight work, and have
// settled back to its baseline goroutine count. The scenario stream is a
// pure function of -seed, so a chaos session reproduces across hosts.
package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dip"
	"dip/internal/faults"
)

// chaosVitals is the slice of /metrics a chaos session gates on.
type chaosVitals struct {
	goroutines int
	heapBytes  uint64
	inFlight   int64
	queueDepth int64
	// Job-tier gauges: after a session the async backlog must be drained
	// (no pending or in-flight jobs) and nothing may have parked as
	// poison or failed to ack — chaos at the HTTP boundary must never
	// corrupt the durable tier behind it.
	jobDepth    int64
	jobInFlight int64
	jobParked   int64
	jobAckErrs  int64
}

// scenarioTally aggregates one scenario's outcomes across the session.
type scenarioTally struct {
	runs       int
	answered   int // structured 4xx/5xx responses
	violations int // 2xx answers, or no answer where one was owed
	transport  int // dial/transport errors (the service was unreachable)
}

func runChaos(o options) error {
	u, err := url.Parse(o.url)
	if err != nil {
		return fmt.Errorf("parsing -url: %w", err)
	}
	addr := u.Host
	if addr == "" {
		return fmt.Errorf("-url %q has no host:port for raw exchanges", o.url)
	}
	if err := waitReady(o.url, o.wait); err != nil {
		return err
	}

	// A well-formed /v1/run body for scenarios to corrupt: the cycle-graph
	// symmetry instance every load run uses.
	body, err := json.Marshal(dip.Request{
		Protocol: o.protocols[0],
		N:        o.n,
		Edges:    cycleEdges(o.n),
		Options:  dip.Options{Seed: o.seed},
	})
	if err != nil {
		return err
	}

	before, err := fetchVitals(o.url)
	if err != nil {
		return fmt.Errorf("baseline /metrics: %w", err)
	}

	var (
		mu      sync.Mutex
		tallies = map[string]*scenarioTally{}
		next    atomic.Int64
		wg      sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < o.clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(o.chaos) {
					return
				}
				sc, rng := faults.HTTPChaosFor(o.seed, int(i))
				out, err := sc.Run(rng, addr, body)
				mu.Lock()
				t := tallies[sc.Name]
				if t == nil {
					t = &scenarioTally{}
					tallies[sc.Name] = t
				}
				t.runs++
				switch {
				case err != nil:
					t.transport++
				case out.Status >= 400 && out.Status < 600:
					t.answered++
				case sc.WantResponse:
					// A 2xx to garbage, or silence where an answer was
					// owed: the boundary failed to classify the abuse.
					t.violations++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	names := make([]string, 0, len(tallies))
	for name := range tallies {
		names = append(names, name)
	}
	sort.Strings(names)
	var violations, transport int
	fmt.Printf("dipload: chaos: %d exchanges in %v (c=%d, seed %d)\n",
		o.chaos, wall.Round(time.Millisecond), o.clients, o.seed)
	for _, name := range names {
		t := tallies[name]
		fmt.Printf("  %-15s %4d runs  %4d answered 4xx/5xx  %2d violations  %2d transport errors\n",
			name, t.runs, t.answered, t.violations, t.transport)
		violations += t.violations
		transport += t.transport
	}

	// Post-chaos gates. The service must shrug the whole session off:
	// still healthy, nothing stuck in flight, goroutines settled back to
	// the baseline (plus slack for the runtime's own pool), heap not
	// ballooned past any plausible steady state.
	if err := checkHealthy(o.url); err != nil {
		return err
	}
	after, err := settleVitals(o.url, before.goroutines+16, o.wait)
	if err != nil {
		return err
	}
	if after.inFlight != 0 || after.queueDepth != 0 {
		return fmt.Errorf("post-chaos /metrics shows stuck work: in_flight %d, queue_depth %d",
			after.inFlight, after.queueDepth)
	}
	if after.jobDepth != 0 || after.jobInFlight != 0 {
		return fmt.Errorf("post-chaos job tier not drained: backlog %d, in-flight %d",
			after.jobDepth, after.jobInFlight)
	}
	if after.jobParked != 0 || after.jobAckErrs != 0 {
		return fmt.Errorf("post-chaos job tier damaged: %d parked, %d ack errors",
			after.jobParked, after.jobAckErrs)
	}
	const heapSlack = 256 << 20
	if after.heapBytes > before.heapBytes+heapSlack {
		return fmt.Errorf("post-chaos heap %d bytes exceeds baseline %d by more than %d",
			after.heapBytes, before.heapBytes, heapSlack)
	}
	fmt.Printf("dipload: chaos: service healthy after session (goroutines %d -> %d, heap %.1f MiB -> %.1f MiB)\n",
		before.goroutines, after.goroutines,
		float64(before.heapBytes)/(1<<20), float64(after.heapBytes)/(1<<20))

	if violations > 0 {
		return fmt.Errorf("%d hardening violations (2xx or silence where a structured error was owed)", violations)
	}
	if transport > 0 {
		return fmt.Errorf("%d transport errors: the service became unreachable under chaos", transport)
	}
	return nil
}

// checkHealthy asserts /healthz still answers 200.
func checkHealthy(base string) error {
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("post-chaos /healthz: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("post-chaos /healthz answered %d", resp.StatusCode)
	}
	return nil
}

// fetchVitals reads the gated slice of /metrics.
func fetchVitals(base string) (chaosVitals, error) {
	var payload struct {
		Service struct {
			InFlight   int64 `json:"in_flight"`
			QueueDepth int64 `json:"queue_depth"`
		} `json:"service"`
		Jobs struct {
			InFlight  int64 `json:"in_flight"`
			Depth     int64 `json:"queue_depth"`
			Parked    int64 `json:"parked"`
			AckErrors int64 `json:"ack_errors"`
		} `json:"jobs"`
		Runtime struct {
			Goroutines     int    `json:"goroutines"`
			HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
		} `json:"runtime"`
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return chaosVitals{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return chaosVitals{}, fmt.Errorf("/metrics answered %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		return chaosVitals{}, fmt.Errorf("decoding /metrics: %w", err)
	}
	return chaosVitals{
		goroutines:  payload.Runtime.Goroutines,
		heapBytes:   payload.Runtime.HeapAllocBytes,
		inFlight:    payload.Service.InFlight,
		queueDepth:  payload.Service.QueueDepth,
		jobDepth:    payload.Jobs.Depth,
		jobInFlight: payload.Jobs.InFlight,
		jobParked:   payload.Jobs.Parked,
		jobAckErrs:  payload.Jobs.AckErrors,
	}, nil
}

// settleVitals polls /metrics until the goroutine count drops to the
// bound (handlers for aborted exchanges need a few read-deadline cycles
// to notice their client is gone) or the wait expires — expiry is a leak.
func settleVitals(base string, maxGoroutines int, wait time.Duration) (chaosVitals, error) {
	deadline := time.Now().Add(wait)
	for {
		v, err := fetchVitals(base)
		if err != nil {
			return chaosVitals{}, fmt.Errorf("post-chaos /metrics: %w", err)
		}
		if v.goroutines <= maxGoroutines && v.inFlight == 0 && v.queueDepth == 0 {
			return v, nil
		}
		if time.Now().After(deadline) {
			return v, fmt.Errorf("goroutines did not settle: %d still live after %v (bound %d) — leak at the serving boundary",
				v.goroutines, wait, maxGoroutines)
		}
		time.Sleep(200 * time.Millisecond)
	}
}
