package dip

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"dip/internal/network"
	"dip/internal/prime"
)

// FuzzWireReport mutates dip-report/v1 bytes through the decoder: no
// input may panic it, every accepted document must satisfy Validate (the
// decoder promises that), and an accepted document must survive an
// encode/decode round trip unchanged — the property cmd/dipserve's
// byte-identical batch elements rest on.
func FuzzWireReport(f *testing.F) {
	rep, err := Run(Request{Protocol: "sym-dmam", N: 4,
		Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, Options: Options{Seed: 1}})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WireReportFrom(rep, 1).Encode(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"schema":"dip-report/v1","protocol":"sym-lcp","nodes":3,"seed":7,"accepted":true,"max_prover_bits":5,"total_prover_bits":9,"max_node_to_node_bits":0,"max_node":2}`))
	f.Add([]byte(`{"schema":"dip-report/v0"}`))
	f.Add([]byte(`{"schema":"dip-report/v1","protocol":"x","nodes":2,"accepted":false}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := DecodeWireReport(bytes.NewReader(data))
		if err != nil {
			return // rejected input: the decoder's job is to say no without panicking
		}
		if verr := w.Validate(); verr != nil {
			t.Fatalf("decoder accepted a document its own Validate rejects: %v", verr)
		}
		var out bytes.Buffer
		if err := w.Encode(&out); err != nil {
			t.Fatalf("re-encoding an accepted document: %v", err)
		}
		w2, err := DecodeWireReport(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if !reflect.DeepEqual(w, w2) {
			t.Fatalf("round trip changed the document:\n%+v\nvs\n%+v", w, w2)
		}
	})
}

// FuzzRequestDecode mutates dip.Request JSON through the exact pipeline
// cmd/dipserve runs — strict decode, then RunContext — and pins the error
// taxonomy: every failure must be a classified error (RequestError,
// engine RunError, or a context end). An unclassified error here is what
// the service would answer 500 for, i.e. a bug worth surfacing.
func FuzzRequestDecode(f *testing.F) {
	f.Add([]byte(`{"protocol": "sym-dmam", "n": 4, "edges": [[0,1],[1,2],[2,3],[3,0]], "options": {"seed": 1}}`))
	f.Add([]byte(`{"protocol": "sym-dam", "n": 5, "edges": [[0,1],[1,2],[2,3],[3,4],[4,0]], "options": {"seed": 2}}`))
	f.Add([]byte(`{"protocol": "dsym-dam", "side": 2, "half": 1, "edges": [[0,1],[0,2],[1,2],[2,3],[3,4],[4,5],[4,6],[5,6],[3,7],[7,8],[8,4]]}`))
	f.Add([]byte(`{"protocol": "gni-lcp", "n": 3, "edges": [[0,1],[1,2]], "edges1": [[0,1],[0,2]]}`))
	f.Add([]byte(`{"protocol": "sym-quantum", "n": 4, "edges": []}`))
	f.Add([]byte(`{"protocol": "sym-dmam", "n": 4, "edges": [[0,9]]}`))
	f.Add([]byte(`{"protocol": "sym-dmam", "n": 4, "edges": [[0,1]], "marks": [0,0,1,1]}`))
	f.Add([]byte(`{"protocol": "sym-dmam", "n": 4, "edges": [[0,1]], "options": {"timeout_ns": -5}}`))
	f.Add([]byte(`{"protocol": "gni-marked", "n": 4, "edges": [[0,1],[2,3]], "marks": [0,0,1,1], "options": {"repetitions": 1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var req Request
		if err := dec.Decode(&req); err != nil {
			return // undecodable bytes are the service's 400 path; nothing to run
		}
		// Bound instance sizes so the mutation budget explores decoding and
		// validation, not the engine's asymptotics: the GNI provers
		// enumerate up to 2·n! permutations, and repetitions multiply runs.
		if req.N < 0 || req.N > 48 || len(req.Edges) > 192 || len(req.Edges1) > 192 || len(req.Marks) > 48 {
			t.Skip()
		}
		if req.Side > 6 || req.Half > 6 {
			t.Skip()
		}
		switch req.Protocol {
		case "gni-damam", "gni-general", "gni-marked":
			if req.N > 5 {
				t.Skip()
			}
		}
		if req.Options.Repetitions > 2 {
			req.Options.Repetitions = 2
		}
		if req.Options.Timeout > time.Second {
			req.Options.Timeout = time.Second
		}

		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rep, err := RunContext(ctx, req)
		if err != nil {
			var reqErr *RequestError
			var runErr *network.RunError
			switch {
			case errors.As(err, &reqErr):
			case errors.As(err, &runErr):
			case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			default:
				t.Fatalf("unclassified error (the service would 500): %v", err)
			}
			return
		}
		// A successful run must yield a valid wire document.
		if err := WireReportFrom(rep, req.Options.Seed).Validate(); err != nil {
			t.Fatalf("successful run produced an invalid report: %v", err)
		}
	})
}

// FuzzPeerSpec mutates fleet params blobs through the peer's builder: no
// input may panic it, and params it accepts must build again to an
// agreeing spec. The seeds are every protocol's stripped request and one
// sym-dam blob carrying its modulus.
func FuzzPeerSpec(f *testing.F) {
	stripped := strippedRequests()
	for _, info := range Protocols() {
		b, err := json.Marshal(fleetParams{Request: stripped[info.Name]})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	sd := stripped["sym-dam"]
	p, err := prime.ForPowerWindow(sd.N)
	if err != nil {
		f.Fatal(err)
	}
	b, err := json.Marshal(fleetParams{Request: sd, Modulus: p})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Fuzz(func(t *testing.T, params []byte) {
		// Bound instance sizes so the mutation budget explores decoding
		// and validation, not prime searches over thousands of bits.
		var req Request
		if json.Unmarshal(params, &req) == nil && (req.N > 10 || len(req.Marks) > 10 ||
			req.Side > 6 || req.Half > 6 || req.Options.Repetitions > 4) {
			t.Skip()
		}
		spec, err := PeerSpec(params)
		if err != nil {
			return
		}
		again, err := PeerSpec(params)
		if err != nil {
			t.Fatalf("accepted params refused on a second build: %v", err)
		}
		if err := specsAgree(spec, again); err != nil {
			t.Fatalf("two builds of one blob disagree: %v", err)
		}
	})
}
