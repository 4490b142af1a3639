package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dip"
)

// retryBudget is how many times one request is resent after a 503
// (admission queue full) before it counts as failed.
const retryBudget = 3

// loader sends one workload's requests to its dipserve and checks every
// answer. Request indices are handed out in order across all phases.
type loader struct {
	s      *stream
	url    string
	client *http.Client
	next   atomic.Int64

	attempted, failed, retries atomic.Int64

	mu   sync.Mutex
	kept map[int64][]byte // served bytes of every keepEvery-th request
}

func newLoader(s *stream, url string) *loader {
	tr := &http.Transport{MaxIdleConns: clients, MaxIdleConnsPerHost: clients,
		MaxConnsPerHost: clients, DisableCompression: true}
	return &loader{s: s, url: url + "/v1/run", kept: map[int64][]byte{},
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// fire sends the next request of the stream and reports whether it was
// answered with a correct report.
func (l *loader) fire() bool {
	i := l.next.Add(1) - 1
	l.attempted.Add(1)
	if err := l.send(i); err != nil {
		l.fail(err)
		return false
	}
	return true
}

// maxLoggedErrors bounds the failures echoed to standard error per workload.
const maxLoggedErrors = 5

func (l *loader) fail(err error) {
	if l.failed.Add(1) <= maxLoggedErrors {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", l.s.w.Name, err)
	}
}

func (l *loader) send(i int64) error {
	body := l.s.body(i)
	for attempt := 0; ; attempt++ {
		resp, err := l.client.Post(l.url, "application/json", bytes.NewReader(body))
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("request %d: reading answer: %w", i, err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable && attempt < retryBudget {
			l.retries.Add(1)
			time.Sleep(time.Duration(5<<attempt) * time.Millisecond)
			continue
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("request %d: status %d: %s", i, resp.StatusCode, bytes.TrimSpace(data))
		}
		if err := checkReport(l.s, i, data); err != nil {
			return err
		}
		if i%keepEvery == 0 {
			l.mu.Lock()
			l.kept[i] = data
			l.mu.Unlock()
		}
		return nil
	}
}

// rerun runs every kept request again in-process with dip.Run and requires
// the served dip-report/v1 bytes to equal the in-process bytes, fleet
// workloads included. It returns how many requests it checked; each
// mismatch counts as a failed request.
func (l *loader) rerun() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	idx := make([]int64, 0, len(l.kept))
	for i := range l.kept {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	for _, i := range idx {
		want, err := encodeRun(l.s.request(i))
		if err != nil {
			l.fail(fmt.Errorf("request %d: in-process rerun: %w", i, err))
		} else if !bytes.Equal(want, l.kept[i]) {
			l.fail(fmt.Errorf("request %d: served report differs from the in-process report:\n%s\nwant\n%s", i, l.kept[i], want))
		}
	}
	return len(idx)
}

// encodeRun is the reference answer: dip.Run encoded as dipserve encodes.
func encodeRun(req dip.Request) ([]byte, error) {
	rep, err := dip.Run(req)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := dip.WireReportFrom(rep, req.Options.Seed).Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sample is one request answered correctly: when the answer arrived and
// the latency in milliseconds.
type sample struct {
	at time.Time
	ms float64
}

// closedLoop runs the clients for d, each sending its next request as soon
// as the previous one is answered. It returns the requests answered
// correctly and the wall time until the last client finished.
func closedLoop(d time.Duration, fire func() bool) (lat []sample, elapsed time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				if fire() {
					now := time.Now()
					per[c] = append(per[c], sample{now, ms(now.Sub(t0))})
				}
			}
		}()
	}
	wg.Wait()
	elapsed = time.Since(start)
	return slices.Concat(per...), elapsed
}

// sleepUntil waits until t. An idle Go process rounds a timer wait up to
// the next millisecond, later than a light request's whole latency, so
// the last millisecond is waited in nanosleep, which wakes within tens of
// microseconds.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep goes round again
	}
}

// openResult is one open-loop window.
type openResult struct {
	lat    []sample  // from due time to answer, answered requests only
	late   []float64 // ms from due time to send, every request
	sent   int
	failed int
}

// slowRefresh is how often the open-loop schedule rereads the machine's
// slowness.
const slowRefresh = 50 * time.Millisecond

// openLoop sends requests on a schedule whether or not earlier ones have
// been answered. The gap between due times is 1/rate seconds at the
// reference machine speed, stretched by slow(), the machine's current
// slowness (see calibrate.go), so the offered load stays the same share of
// what the machine can serve. Each client takes the next due time, sleeps
// until it and sends; a due time that passes while both clients are busy
// is taken late by the first one free. Latency is timed from the due time,
// so a stall is charged to every request queued behind it.
func openLoop(rate float64, d time.Duration, slow func() float64, fire func() bool) openResult {
	start := time.Now()
	end := start.Add(d)
	var mu sync.Mutex
	next, k, checked := start, slow(), start
	take := func() (time.Time, bool) {
		mu.Lock()
		defer mu.Unlock()
		t := next
		if !t.Before(end) {
			return t, false
		}
		if now := time.Now(); now.Sub(checked) >= slowRefresh {
			k, checked = slow(), now
		}
		next = next.Add(time.Duration(k / rate * float64(time.Second)))
		return t, true
	}
	per := make([]openResult, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &per[c]
			for {
				t, ok := take()
				if !ok {
					return
				}
				sleepUntil(t)
				r.late = append(r.late, ms(time.Since(t)))
				r.sent++
				if fire() {
					now := time.Now()
					r.lat = append(r.lat, sample{now, ms(now.Sub(t))})
				} else {
					r.failed++
				}
			}
		}()
	}
	wg.Wait()
	var out openResult
	for _, r := range per {
		out.lat = append(out.lat, r.lat...)
		out.late = append(out.late, r.late...)
		out.sent += r.sent
		out.failed += r.failed
	}
	return out
}
