package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dip"
	"dip/internal/core"
	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/wire"
)

// span is one timed call into a layer during the traced run. Spans of one
// request share Req; Parent is the caller's span (0 for the request span).
// Kind and Round place a schedule step: Round is the spec round index, -1
// for spans that belong to no round.
type span struct {
	Req    int64  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Kind   string `json:"kind,omitempty"`
	Round  int    `json:"round"`
}

// tracer keeps spans in memory; they are written out when the benchmark
// ends. A nil *tracer records nothing, which is how the replay runs with
// tracing off.
type tracer struct {
	epoch time.Time
	req   int64
	ids   atomic.Int32

	mu    sync.Mutex
	spans []span
}

type openSpan struct {
	id    int32
	start int64
}

func (t *tracer) begin() openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{id: t.ids.Add(1), start: int64(time.Since(t.epoch))}
}

func (t *tracer) end(o openSpan, name string, parent int32, kind string, round int) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, span{Req: t.req, ID: o.id, Parent: parent, Name: name,
		Start: o.start, End: end, Kind: kind, Round: round})
	t.mu.Unlock()
}

// traceSpec returns a copy of spec whose node callbacks record spans under
// parent. Copying is safe because the engine's script cache is keyed by
// the schedule's shape, not by the Spec value.
func traceSpec(spec *network.Spec, t *tracer, parent int32) *network.Spec {
	sc := *spec
	sc.Rounds = slices.Clone(spec.Rounds)
	for ri := range sc.Rounds {
		r := &sc.Rounds[ri]
		if ch := r.Challenge; ch != nil {
			r.Challenge = func(v int, rng *rand.Rand, view *network.NodeView) wire.Message {
				o := t.begin()
				m := ch(v, rng, view)
				t.end(o, "engine.challenge", parent, "challenge", ri)
				return m
			}
		}
		if dg := r.Digest; dg != nil {
			r.Digest = func(v int, rng *rand.Rand, m wire.Message) wire.Message {
				o := t.begin()
				out := dg(v, rng, m)
				t.end(o, "engine.digest", parent, "exchange", ri)
				return out
			}
		}
	}
	decide := spec.Decide
	sc.Decide = func(v int, view *network.NodeView) bool {
		o := t.begin()
		ok := decide(v, view)
		t.end(o, "engine.decide", parent, "decide", -1)
		return ok
	}
	return &sc
}

// tracedProver times the honest prover's responses.
type tracedProver struct {
	p      network.Prover
	t      *tracer
	parent int32
	rounds []int // spec round index of each Merlin round
}

func (tp *tracedProver) Respond(merlinRound int, view *network.ProverView) (*network.Response, error) {
	o := tp.t.begin()
	r, err := tp.p.Respond(merlinRound, view)
	tp.t.end(o, "prover.respond", tp.parent, "respond", tp.rounds[merlinRound])
	return r, err
}

// tracedTransport times every call the engine makes into a fleet run's
// transport.
type tracedTransport struct {
	tr     network.Transport
	t      *tracer
	parent int32
}

func (x *tracedTransport) Begin(run *network.TransportRun) *network.RunError {
	o := x.t.begin()
	defer x.t.end(o, "transport.begin", x.parent, "begin", -1)
	return x.tr.Begin(run)
}

func (x *tracedTransport) RecvChallenge(ri int) (int, wire.Message, *network.RunError) {
	o := x.t.begin()
	defer x.t.end(o, "transport.recv_challenge", x.parent, "challenge", ri)
	return x.tr.RecvChallenge(ri)
}

func (x *tracedTransport) SendResponse(ri, node int, m wire.Message) *network.RunError {
	o := x.t.begin()
	defer x.t.end(o, "transport.send_response", x.parent, "respond", ri)
	return x.tr.SendResponse(ri, node, m)
}

func (x *tracedTransport) RecvForward(ri int) (int, wire.Message, *network.RunError) {
	o := x.t.begin()
	defer x.t.end(o, "transport.recv_forward", x.parent, "exchange", ri)
	return x.tr.RecvForward(ri)
}

func (x *tracedTransport) SendExchange(ri, from, to int, chal bool, m wire.Message) *network.RunError {
	o := x.t.begin()
	defer x.t.end(o, "transport.send_exchange", x.parent, "exchange", ri)
	return x.tr.SendExchange(ri, from, to, chal, m)
}

func (x *tracedTransport) RecvDecision() (int, bool, *network.RunError) {
	o := x.t.begin()
	defer x.t.end(o, "transport.recv_decision", x.parent, "decide", -1)
	return x.tr.RecvDecision()
}

func (x *tracedTransport) End(failure *network.RunError) {
	o := x.t.begin()
	defer x.t.end(o, "transport.end", x.parent, "end", -1)
	x.tr.End(failure)
}

// honestProtocol is what every core protocol constructor returns.
type honestProtocol interface {
	Spec() *network.Spec
	HonestProver() network.Prover
}

// construct builds the request's protocol instance with the core
// constructor, prime search included, bypassing dip's setup caches.
func construct(req *dip.Request) (honestProtocol, error) {
	seed := req.Options.Seed
	switch req.Protocol {
	case "sym-dmam":
		return core.NewSymDMAM(req.N, seed)
	case "sym-dam":
		return core.NewSymDAM(req.N, seed)
	case "sym-lcp":
		return core.NewSymLCP(req.N)
	case "sym-rpls":
		return core.NewSymRPLS(req.N, seed)
	}
	return nil, fmt.Errorf("no replay for protocol %q", req.Protocol)
}

// replay runs one request body through the layers' public calls in the
// order dipserve and dip.Run chain them: decode, graph and protocol setup,
// the engine run (on the fleet for fleet workloads), report encode. With
// t nil nothing is recorded.
func replay(ctx context.Context, fleet *dip.Fleet, t *tracer, body []byte) ([]byte, dip.Report, error) {
	root := t.begin()
	defer t.end(root, "request", 0, "", -1)

	o := t.begin()
	var req dip.Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	t.end(o, "dipserve.decode", root.id, "", -1)
	if err != nil {
		return nil, dip.Report{}, err
	}

	o = t.begin()
	g := graph.New(req.N)
	for _, e := range req.Edges {
		g.AddEdge(e[0], e[1])
	}
	t.end(o, "setup.graph", root.id, "", -1)

	o = t.begin()
	proto, err := construct(&req)
	t.end(o, "setup.protocol", root.id, "", -1)
	if err != nil {
		return nil, dip.Report{}, err
	}

	eng := t.begin()
	spec, prover := proto.Spec(), proto.HonestProver()
	opts := network.Options{Seed: req.Options.Seed}
	if t != nil {
		tp := &tracedProver{p: prover, t: t, parent: eng.id}
		for ri, r := range spec.Rounds {
			if r.Kind == network.Merlin {
				tp.rounds = append(tp.rounds, ri)
			}
		}
		spec, prover = traceSpec(spec, t, eng.id), tp
	}
	if fleet != nil {
		tr, err := fleet.EngineTransport(req)
		if err != nil {
			t.end(eng, "engine.run", root.id, "", -1)
			return nil, dip.Report{}, err
		}
		if t != nil {
			tr = &tracedTransport{tr: tr, t: t, parent: eng.id}
		}
		opts.Transport = tr
	}
	res, err := network.RunContext(ctx, spec, g, nil, prover, opts)
	t.end(eng, "engine.run", root.id, "", -1)
	if err != nil {
		return nil, dip.Report{}, err
	}

	o = t.begin()
	rep := dip.ReportFromResult(req.Protocol, res)
	var buf bytes.Buffer
	err = dip.WireReportFrom(rep, req.Options.Seed).Encode(&buf)
	t.end(o, "dipserve.encode", root.id, "", -1)
	return buf.Bytes(), rep, err
}

// traceRun is the outcome of one workload's traced run.
type traceRun struct {
	spans    []span
	requests int
	// overhead is the traced mean wall time over the untraced mean, minus 1.
	overhead float64
	rounds   []roundStat
}

// untracedOffset picks each untraced twin: request i+33 runs the same
// protocol as request i (33 is a multiple of every mix length) with
// another seed. A twin must not reuse i's seed because a fleet peer
// caches protocol instances by seed, and a warm peer would hide the setup
// cost every served request pays.
const untracedOffset = 33

// traceWorkload replays the workload's Replays requests (every
// keepEvery-th index), each traced and, alternating the order, its
// untraced twin. Replayed reports whose served bytes were kept must equal
// them.
func traceWorkload(ctx context.Context, s *stream, fleet *dip.Fleet, kept map[int64][]byte) (*traceRun, error) {
	n := s.w.Replays
	// Warm this process's own caches and connections, one request per
	// protocol of the mix, before timing.
	for i := int64(1); i <= int64(len(s.w.Protocols)); i++ {
		if _, _, err := replay(ctx, fleet, nil, s.body(i)); err != nil {
			return nil, fmt.Errorf("warm-up replay: %w", err)
		}
	}
	t := &tracer{epoch: time.Now()}
	reports := map[int64]dip.Report{}
	var traced, plain time.Duration
	for k := 0; k < n; k++ {
		i := int64(k) * keepEvery
		for pass := 0; pass < 2; pass++ {
			tracedPass := (pass == 0) == (k%2 == 0)
			idx, tr := i+untracedOffset, (*tracer)(nil)
			if tracedPass {
				idx, tr = i, t
				t.req = i
			}
			start := time.Now()
			out, rep, err := replay(ctx, fleet, tr, s.body(idx))
			d := time.Since(start)
			if err != nil {
				return nil, fmt.Errorf("replaying request %d: %w", idx, err)
			}
			if want, ok := kept[idx]; ok && !bytes.Equal(out, want) {
				return nil, fmt.Errorf("replayed request %d: report differs from the served report", idx)
			}
			if tracedPass {
				traced += d
				reports[i] = rep
			} else {
				plain += d
			}
		}
	}
	return &traceRun{spans: t.spans, requests: n, overhead: float64(traced)/float64(plain) - 1,
		rounds: roundStats(s, t.spans, reports)}, nil
}

// selfTimes maps every span id to its self time: its duration minus the
// part of its interval that its children cover.
func selfTimes(spans []span) map[int32]int64 {
	children := map[int32][][2]int64{}
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], [2]int64{sp.Start, sp.End})
	}
	out := make(map[int32]int64, len(spans))
	for _, sp := range spans {
		out[sp.ID] = sp.End - sp.Start - covered(sp.Start, sp.End, children[sp.ID])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	ivs = slices.Clone(ivs)
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// layerMicros sums self time by span name, in microseconds per request,
// and returns trace coverage: the summed self time of every span below the
// request span over the summed request wall time.
func layerMicros(tr *traceRun) (map[string]float64, float64) {
	self := selfTimes(tr.spans)
	byName := map[string]float64{}
	var inside, wall int64
	for _, sp := range tr.spans {
		if sp.Parent == 0 {
			wall += sp.End - sp.Start
			continue
		}
		byName[sp.Name] += float64(self[sp.ID])
		inside += self[sp.ID]
	}
	for name, ns := range byName {
		byName[name] = ns / 1e3 / float64(tr.requests)
	}
	if wall == 0 {
		return byName, 0
	}
	return byName, float64(inside) / float64(wall)
}

// roundStat is one schedule round of one protocol in the traced run: mean
// wall time from the round's first step span to its last, beside the
// round's bits at the report's max node.
type roundStat struct {
	Protocol   string  `json:"protocol"`
	Round      int     `json:"round"`
	Kind       string  `json:"kind"`
	WallNS     float64 `json:"wall_ns"`
	ToProver   float64 `json:"to_prover"`
	FromProver float64 `json:"from_prover"`
	NodeToNode float64 `json:"node_to_node"`
	Runs       int     `json:"runs"`
}

func roundStats(s *stream, spans []span, reports map[int64]dip.Report) []roundStat {
	type key struct {
		req   int64
		round int
	}
	window := map[key][2]int64{}
	for _, sp := range spans {
		if sp.Round < 0 {
			continue
		}
		k := key{sp.Req, sp.Round}
		w, ok := window[k]
		if !ok {
			w = [2]int64{sp.Start, sp.End}
		}
		window[k] = [2]int64{min(w[0], sp.Start), max(w[1], sp.End)}
	}
	type pk struct {
		proto string
		round int
	}
	acc := map[pk]*roundStat{}
	for i, rep := range reports {
		for ri, rc := range rep.PerRound {
			k := pk{s.protocol(i), ri}
			rs := acc[k]
			if rs == nil {
				rs = &roundStat{Protocol: k.proto, Round: ri, Kind: rc.Kind}
				acc[k] = rs
			}
			w := window[key{i, ri}]
			rs.WallNS += float64(w[1] - w[0])
			rs.ToProver += float64(rc.ToProver)
			rs.FromProver += float64(rc.FromProver)
			rs.NodeToNode += float64(rc.NodeToNode)
			rs.Runs++
		}
	}
	out := make([]roundStat, 0, len(acc))
	for _, rs := range acc {
		n := float64(rs.Runs)
		rs.WallNS, rs.ToProver, rs.FromProver, rs.NodeToNode = rs.WallNS/n, rs.ToProver/n, rs.FromProver/n, rs.NodeToNode/n
		out = append(out, *rs)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Protocol != out[b].Protocol {
			return out[a].Protocol < out[b].Protocol
		}
		return out[a].Round < out[b].Round
	})
	return out
}
