package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dip"
	"dip/internal/stats"
)

// fate is what the fake service does with one request.
type fate int

const (
	answer    fate = iota // a report that answers the request
	fail502               // a structured error
	hangUp                // close the connection without answering
	wrongSeed             // a report for another seed
	reject                // a report that rejects
	busy                  // 503 on every attempt
)

// fakeService answers /readyz, /v1/run and /v1/batch as dipserve does,
// doing fateOf(req) with each request. A batch takes a hangUp or busy
// fate of any of its items as a whole; a fail502 item becomes an error
// element of a 200 batch, the shape in which dipserve reports one
// item's run error.
func fakeService(t *testing.T, fateOf func(dip.Request) fate) *httptest.Server {
	report := func(req dip.Request, f fate) json.RawMessage {
		r := &dip.WireReport{Schema: dip.ReportSchema, Protocol: req.Protocol, Nodes: req.N, Seed: req.Options.Seed, Accepted: true}
		switch f {
		case wrongSeed:
			r.Seed++
		case reject:
			r.Accepted, r.RejectingNodes = false, []int{0}
		}
		var buf bytes.Buffer
		if err := r.Encode(&buf); err != nil {
			t.Error(err)
		}
		return buf.Bytes()
	}
	// whole answers a body whose worst fate is f; it reports whether the
	// body still needs a 200.
	whole := func(w http.ResponseWriter, f fate) bool {
		switch f {
		case hangUp:
			conn, _, err := w.(http.Hijacker).Hijack()
			if err != nil {
				t.Error(err)
				return false
			}
			conn.Close()
		case busy:
			w.WriteHeader(http.StatusServiceUnavailable)
		default:
			return true
		}
		return false
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("/v1/run", func(w http.ResponseWriter, r *http.Request) {
		var req dip.Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		f := fateOf(req)
		if !whole(w, f) {
			return
		}
		if f == fail502 {
			w.WriteHeader(http.StatusBadGateway)
			fmt.Fprintln(w, `{"error": "peer lost", "phase": "transport"}`)
			return
		}
		w.Write(report(req, f))
	})
	mux.HandleFunc("/v1/batch", func(w http.ResponseWriter, r *http.Request) {
		var batch struct{ Requests []dip.Request }
		if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
			t.Error(err)
		}
		worst := answer
		for _, req := range batch.Requests {
			if f := fateOf(req); f == hangUp || f == busy {
				worst = f
			}
		}
		if !whole(w, worst) {
			return
		}
		items := make([]json.RawMessage, len(batch.Requests))
		for i, req := range batch.Requests {
			if f := fateOf(req); f == fail502 {
				items[i] = json.RawMessage(`{"error": "peer lost", "phase": "transport", "protocol": "` + req.Protocol + `"}`)
			} else {
				items[i] = report(req, f)
			}
		}
		json.NewEncoder(w).Encode(items)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestRunCountLine drives run against a fake service that gives stream
// request 1 one fate and answers the other three, in plain mode and in
// -batch 2 mode (bodies {0,1} and {2,3}), and checks the count line and
// the returned error.
func TestRunCountLine(t *testing.T) {
	const seed = 1
	target := stats.DeriveSeed(seed, 1)
	cases := []struct {
		name         string
		fate         fate
		plain, batch string // the count lines after "dipload: "
		wantErr      string // "" = run returns nil
	}{
		{"all answered", answer,
			"completed=4 errors=0 exhausted=0 retries=0 dropped=0",
			"completed=4 errors=0 exhausted=0 retries=0 dropped=0", ""},
		{"structured 502", fail502,
			"completed=3 errors=1 exhausted=0 retries=0 dropped=0",
			"completed=3 errors=1 exhausted=0 retries=0 dropped=0", ""},
		{"closed connection", hangUp,
			"completed=3 errors=0 exhausted=0 retries=0 dropped=1",
			"completed=2 errors=0 exhausted=0 retries=0 dropped=2", "dropped connections"},
		{"wrong seed", wrongSeed,
			"completed=3 errors=0 exhausted=0 retries=0 dropped=0",
			"completed=3 errors=0 exhausted=0 retries=0 dropped=0", "request 1: report seed"},
		{"rejected", reject,
			"completed=3 errors=0 exhausted=0 retries=0 dropped=0",
			"completed=3 errors=0 exhausted=0 retries=0 dropped=0", "request 1: symmetric instance rejected"},
		{"retry budget exhausted", busy,
			"completed=3 errors=0 exhausted=1 retries=50 dropped=0",
			"completed=2 errors=0 exhausted=2 retries=50 dropped=0", ""},
	}
	for _, tc := range cases {
		for _, batch := range []int{0, 2} {
			want := tc.plain
			mode := "plain"
			if batch > 0 {
				want, mode = tc.batch, "batch"
			}
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				if tc.fate == busy {
					// The 50-attempt budget is about 13 s of real backoff.
					if testing.Short() {
						t.Skip("spends the whole retry budget")
					}
					t.Parallel()
				}
				srv := fakeService(t, func(req dip.Request) fate {
					if req.Options.Seed == target {
						return tc.fate
					}
					return answer
				})
				o := options{
					url: srv.URL, protocols: []string{"sym-dmam"}, n: 8,
					clients: 2, requests: 4, batch: batch, seed: seed, wait: time.Second,
				}
				var out bytes.Buffer
				err := run(o, &out)
				if got := strings.TrimSpace(out.String()); got != "dipload: "+want {
					t.Errorf("count line %q, want %q", got, "dipload: "+want)
				}
				switch {
				case tc.wantErr == "" && err != nil:
					t.Errorf("run failed: %v", err)
				case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
					t.Errorf("run returned %v, want an error mentioning %q", err, tc.wantErr)
				}
			})
		}
	}
}

// TestRunNothingCompleted: a run in which every request earns a
// structured error completes nothing, and fails although no connection
// dropped.
func TestRunNothingCompleted(t *testing.T) {
	srv := fakeService(t, func(dip.Request) fate { return fail502 })
	o := options{url: srv.URL, protocols: []string{"sym-dmam"}, n: 8, clients: 1, requests: 2, seed: 1, wait: time.Second}
	var out bytes.Buffer
	err := run(o, &out)
	if err == nil || !strings.Contains(err.Error(), "no request completed") {
		t.Fatalf("run returned %v, want the no-request-completed failure", err)
	}
	if got := strings.TrimSpace(out.String()); got != "dipload: completed=0 errors=2 exhausted=0 retries=0 dropped=0" {
		t.Errorf("count line %q", got)
	}
}
