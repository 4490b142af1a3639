package main

import (
	"encoding/json"
	"strconv"

	"dip"
	"dip/internal/stats"
)

// The load shape is sized to the two-core machine the seed baseline was
// measured on, and is the same for every workload: one generator process,
// two closed-loop clients on two keep-alive connections, two run workers
// in dipserve, two peers in a fleet, and n = 64 cycle graphs. A cycle is
// symmetric, so the honest prover must accept every request.
const (
	clients    = 2
	gomaxprocs = 2
	workers    = 2
	queueDepth = 64
	fleetPeers = 2
	graphN     = 64
	// keepEvery selects the requests whose served bytes are kept and
	// rerun in-process after the timed phases (the byte-identity gate).
	keepEvery = 64
)

// workload is one traffic mix. Rate and LimitMS are frozen from the seed
// measurement (bench/README.md), in reference-speed units (calibrate.go),
// and never re-derived at run time, so a slower program shows as a higher
// open-loop latency and miss fraction instead of silently moving its own
// target.
type workload struct {
	Name      string   `json:"name"`
	Placement string   `json:"placement"`
	Protocols []string `json:"protocols"`
	N         int      `json:"n"`
	Graph     string   `json:"graph"`
	Peers     int      `json:"peers"`
	Clients   int      `json:"clients"`
	Conns     int      `json:"connections"`
	// Rate is the open-loop arrival rate: half the seed closed-loop
	// throughput.
	Rate float64 `json:"rate_rps"`
	// LimitMS is the latency limit L behind slo_miss_frac: four times the
	// seed closed-loop p50.
	LimitMS float64 `json:"limit_ms"`
	// Replays is how many requests the traced run replays.
	Replays int `json:"replays"`
}

func (w *workload) fleet() bool { return w.Peers > 0 }

// The light mix is one cheap protocol, so per-request serving cost shows;
// the heavy mix is three protocols whose run is dominated by setup and
// prover compute. sym-dmam is left out of the heavy mix so its pooled p50
// sits inside one protocol's cluster rather than on a cluster boundary.
var (
	lightMix = []string{"sym-dmam"}
	heavyMix = []string{"sym-dam", "sym-lcp", "sym-rpls"}
)

// workloads are the four mixes, in the order their windows interleave.
// Their names are the names BENCHMARK.json and later changes cite.
var workloads = []*workload{
	newWorkload("inproc-light", lightMix, 0, 1850, 1.8, 200),
	newWorkload("inproc-heavy", heavyMix, 0, 135, 26, 60),
	newWorkload("fleet-light", lightMix, fleetPeers, 180, 21, 200),
	newWorkload("fleet-heavy", heavyMix, fleetPeers, 57, 47, 60),
}

func newWorkload(name string, mix []string, peers int, rate, limitMS float64, replays int) *workload {
	placement := "inproc"
	if peers > 0 {
		placement = "fleet"
	}
	return &workload{Name: name, Placement: placement, Protocols: mix, N: graphN, Graph: "cycle",
		Peers: peers, Clients: clients, Conns: clients, Rate: rate, LimitMS: limitMS, Replays: replays}
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// stream generates a workload's requests from the benchmark seed. Request
// i runs protocol Protocols[i mod len] with seed DeriveSeed(seed, i), so
// every request builds a fresh protocol instance, as distinct clients'
// requests would. Setup probes use negative indices.
type stream struct {
	w         *workload
	seed      int64
	edges     [][2]int
	edgesJSON []byte
}

func newStream(w *workload, seed int64) *stream {
	edges := make([][2]int, w.N)
	for i := range edges {
		edges[i] = [2]int{i, (i + 1) % w.N}
	}
	ej, err := json.Marshal(edges)
	if err != nil {
		panic(err) // a [][2]int always marshals
	}
	return &stream{w: w, seed: seed, edges: edges, edgesJSON: ej}
}

func (s *stream) protocol(i int64) string {
	if i < 0 {
		return s.w.Protocols[0]
	}
	return s.w.Protocols[i%int64(len(s.w.Protocols))]
}

func (s *stream) reqSeed(i int64) int64 { return stats.DeriveSeed(s.seed, i) }

func (s *stream) request(i int64) dip.Request {
	return dip.Request{Protocol: s.protocol(i), N: s.w.N, Edges: s.edges,
		Options: dip.Options{Seed: s.reqSeed(i)}}
}

// body is request(i) in its JSON wire form, assembled by hand: marshalling
// 64 edges per request would cost the generator, which shares the cores
// with the server, several times more than the splice. The rerun gate
// compares served bytes with dip.Run(request(i)), so a body that diverged
// from request(i) would fail the benchmark.
func (s *stream) body(i int64) []byte {
	b := make([]byte, 0, len(s.edgesJSON)+96)
	b = append(b, `{"protocol":"`...)
	b = append(b, s.protocol(i)...)
	b = append(b, `","n":`...)
	b = strconv.AppendInt(b, int64(s.w.N), 10)
	b = append(b, `,"edges":`...)
	b = append(b, s.edgesJSON...)
	b = append(b, `,"options":{"seed":`...)
	b = strconv.AppendInt(b, s.reqSeed(i), 10)
	b = append(b, "}}"...)
	return b
}
