package dip

import (
	"context"
	"sort"

	"dip/internal/core"
	"dip/internal/graph"
	"dip/internal/network"
)

// Request names a protocol and carries its instance: the graph(s) as edge
// lists plus Options. Exactly the fields a protocol consumes may be set —
// a populated field the protocol does not read is rejected, so a caller
// that, say, sends Marks to sym-dmam learns about the mistake instead of
// having it silently ignored. The JSON form is what cmd/dipserve accepts.
type Request struct {
	// Protocol is a registry name; see Protocols.
	Protocol string `json:"protocol"`
	// N is the number of vertices. dsym-dam derives its vertex count from
	// Side and Half instead, and there N may be either 0 or that count.
	N int `json:"n,omitempty"`
	// Edges is the network graph (for GNI pairs: G₀), as undirected edges.
	Edges [][2]int `json:"edges"`
	// Edges1 is G₁ of a GNI pair (gni-damam, gni-general, gni-lcp only).
	Edges1 [][2]int `json:"edges1,omitempty"`
	// Marks is the 0/1/-1 node marking of gni-marked.
	Marks []int `json:"marks,omitempty"`
	// Side and Half are the dumbbell parameters (n, r) of dsym-dam.
	Side int `json:"side,omitempty"`
	Half int `json:"half,omitempty"`
	// Options carries seed, repetitions and timeout.
	Options Options `json:"options"`
}

// ProtocolInfo describes one registry entry.
type ProtocolInfo struct {
	// Name is the identifier accepted in Request.Protocol.
	Name string `json:"name"`
	// Family is the decision problem: "sym" (graph symmetry) or "gni"
	// (graph non-isomorphism).
	Family string `json:"family"`
	// Rounds is the number of rounds in the protocol's schedule — the
	// length of Report.PerRound on a completed run.
	Rounds int `json:"rounds"`
	// Summary is a one-line description.
	Summary string `json:"summary"`
}

// entry is a registry row: the public description plus the run function
// and the set of Request fields the protocol consumes.
type entry struct {
	info entryInfo
	run  func(ctx context.Context, req *Request) (Report, error)
	// spec rebuilds the protocol's Spec without running it; see BuildSpec.
	spec func(req *Request) (*network.Spec, error)
	// uses flags which optional Request fields this protocol reads;
	// dispatch rejects requests that set any other.
	usesEdges1 bool
	usesMarks  bool
	usesSide   bool
}

// checkFields rejects a request that populates a field this protocol does
// not read, shared by the run and BuildSpec dispatch paths.
func (e *entry) checkFields(req *Request) error {
	if !e.usesEdges1 && req.Edges1 != nil {
		return badRequestf("dip: protocol %q takes no Edges1", e.info.Name)
	}
	if !e.usesMarks && req.Marks != nil {
		return badRequestf("dip: protocol %q takes no Marks", e.info.Name)
	}
	if !e.usesSide && (req.Side != 0 || req.Half != 0) {
		return badRequestf("dip: protocol %q takes no Side/Half", e.info.Name)
	}
	return nil
}

type entryInfo = ProtocolInfo

// registry lists every runnable protocol. Round counts are stated here
// (rather than derived) so the listing needs no instance construction;
// TestProtocolRoundsMatchSpecs pins them to the actual Specs.
var registry = map[string]*entry{
	"sym-dmam": {
		info: entryInfo{Name: "sym-dmam", Family: "sym", Rounds: 3,
			Summary: "O(log n) dMAM proof of graph symmetry (Theorem 1.1)"},
		run:  runSymDMAM,
		spec: specOf(protoSymDMAM),
	},
	"sym-dam": {
		info: entryInfo{Name: "sym-dam", Family: "sym", Rounds: 2,
			Summary: "O(n log n) dAM proof of symmetry, nodes speak first (Theorem 1.3)"},
		run:  runSymDAM,
		spec: specOf(protoSymDAM),
	},
	"dsym-dam": {
		info: entryInfo{Name: "dsym-dam", Family: "sym", Rounds: 2,
			Summary: "O(log n) dAM proof of dumbbell symmetry (Theorem 1.2)"},
		run:      runDSymDAM,
		spec:     specOf(protoDSymDAM),
		usesSide: true,
	},
	"sym-lcp": {
		info: entryInfo{Name: "sym-lcp", Family: "sym", Rounds: 1,
			Summary: "Θ(n²) non-interactive labeling-scheme baseline for symmetry"},
		run:  runSymLCP,
		spec: specOf(protoSymLCP),
	},
	"sym-rpls": {
		info: entryInfo{Name: "sym-rpls", Family: "sym", Rounds: 1,
			Summary: "randomized proof-labeling scheme: Θ(n²) advice, O(log n) fingerprint exchange"},
		run:  runSymRPLS,
		spec: specOf(protoSymRPLS),
	},
	"gni-damam": {
		info: entryInfo{Name: "gni-damam", Family: "gni", Rounds: 4,
			Summary: "distributed Goldwasser–Sipser dAMAM proof of non-isomorphism (Theorem 1.5)"},
		run:        runGNIDAMAM,
		spec:       specOf(protoGNIDAMAM),
		usesEdges1: true,
	},
	"gni-general": {
		info: entryInfo{Name: "gni-general", Family: "gni", Rounds: 2,
			Summary: "promise-free GNI, correct on symmetric graphs too"},
		run:        runGNIGeneral,
		spec:       specOf(protoGNIGeneral),
		usesEdges1: true,
	},
	"gni-marked": {
		info: entryInfo{Name: "gni-marked", Family: "gni", Rounds: 4,
			Summary: "marked single-graph formulation of GNI (Section 2.3)"},
		run:       runGNIMarked,
		spec:      specOf(protoGNIMarked),
		usesMarks: true,
	},
	"gni-lcp": {
		info: entryInfo{Name: "gni-lcp", Family: "gni", Rounds: 1,
			Summary: "Θ(n²) non-interactive baseline for non-isomorphism"},
		run:        runGNILCP,
		spec:       specOf(protoGNILCP),
		usesEdges1: true,
	},
}

// Protocols lists the registry sorted by name: stable output for the
// service's /v1/protocols endpoint and for documentation.
func Protocols() []ProtocolInfo {
	out := make([]ProtocolInfo, 0, len(registry))
	for _, e := range registry {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Run executes the named protocol on the request's instance against its
// honest prover and reports the outcome and costs. It is the single entry
// point of the library and of cmd/dipserve.
func Run(req Request) (Report, error) {
	return RunContext(context.Background(), req)
}

// RunContext is Run bounded by a context: cancellation aborts the run at
// the next engine step, and a context deadline additionally clamps the
// prover deadline (Options.Timeout), whichever is tighter.
func RunContext(ctx context.Context, req Request) (Report, error) {
	e, ok := registry[req.Protocol]
	if !ok {
		return Report{}, badRequestf("dip: unknown protocol %q (see dip.Protocols)", req.Protocol)
	}
	if err := e.checkFields(&req); err != nil {
		return Report{}, err
	}
	return e.run(ctx, &req)
}

// engineOptions validates the request options and maps them onto the
// engine's knobs. A fleet transport riding on the context (Fleet.Run)
// selects the networked executor; otherwise the run stays in-process.
func engineOptions(ctx context.Context, opts Options) (network.Options, error) {
	timeout, err := resolveTimeout(opts.Timeout)
	if err != nil {
		return network.Options{}, err
	}
	return network.Options{Seed: opts.Seed, ProverTimeout: timeout, Transport: transportFrom(ctx)}, nil
}

// transportKey carries a Fleet.Run transport through RunContext to the
// engine call sites. A context key (rather than a Request field) keeps
// the transport out of the wire format: a Request stays a pure value, and
// placement is a property of how it is run, not of the instance.
type transportKey struct{}

func withTransport(ctx context.Context, t network.Transport) context.Context {
	return context.WithValue(ctx, transportKey{}, t)
}

func transportFrom(ctx context.Context) network.Transport {
	t, _ := ctx.Value(transportKey{}).(network.Transport)
	return t
}

// finish runs an assembled single-graph instance (no node inputs) through
// the engine and shapes the Report.
func finish(ctx context.Context, name string, spec *network.Spec, g *graph.Graph,
	prover network.Prover, opts Options) (Report, error) {
	nopts, err := engineOptions(ctx, opts)
	if err != nil {
		return Report{}, err
	}
	res, err := network.RunContext(ctx, spec, g, nil, prover, nopts)
	if err != nil {
		return Report{}, err
	}
	return report(name, res), nil
}

func runSymDMAM(ctx context.Context, req *Request) (Report, error) {
	g, err := cachedGraph(req.N, req.Edges)
	if err != nil {
		return Report{}, err
	}
	proto, err := protoSymDMAM(req)
	if err != nil {
		return Report{}, err
	}
	return finish(ctx, "sym-dmam", proto.Spec(), g, proto.HonestProver(), req.Options)
}

func runSymDAM(ctx context.Context, req *Request) (Report, error) {
	g, err := cachedGraph(req.N, req.Edges)
	if err != nil {
		return Report{}, err
	}
	proto, err := protoSymDAM(req)
	if err != nil {
		return Report{}, err
	}
	return finish(ctx, "sym-dam", proto.Spec(), g, proto.HonestProver(), req.Options)
}

func runDSymDAM(ctx context.Context, req *Request) (Report, error) {
	proto, err := protoDSymDAM(req)
	if err != nil {
		return Report{}, err
	}
	if req.N != 0 && req.N != proto.N() {
		return Report{}, badRequestf("dip: dsym-dam with side=%d half=%d has %d vertices, request says n=%d",
			req.Side, req.Half, proto.N(), req.N)
	}
	g, err := cachedGraph(proto.N(), req.Edges)
	if err != nil {
		return Report{}, err
	}
	return finish(ctx, "dsym-dam", proto.Spec(), g, proto.HonestProver(), req.Options)
}

func runSymLCP(ctx context.Context, req *Request) (Report, error) {
	g, err := cachedGraph(req.N, req.Edges)
	if err != nil {
		return Report{}, err
	}
	proto, err := protoSymLCP(req)
	if err != nil {
		return Report{}, err
	}
	return finish(ctx, "sym-lcp", proto.Spec(), g, proto.HonestProver(), req.Options)
}

func runSymRPLS(ctx context.Context, req *Request) (Report, error) {
	g, err := cachedGraph(req.N, req.Edges)
	if err != nil {
		return Report{}, err
	}
	proto, err := protoSymRPLS(req)
	if err != nil {
		return Report{}, err
	}
	return finish(ctx, "sym-rpls", proto.Spec(), g, proto.HonestProver(), req.Options)
}

// buildGNIPair validates both edge lists of a GNI request.
func buildGNIPair(req *Request) (g0, g1 *graph.Graph, err error) {
	if g0, err = cachedGraph(req.N, req.Edges); err != nil {
		return nil, nil, err
	}
	if g1, err = cachedGraph(req.N, req.Edges1); err != nil {
		return nil, nil, err
	}
	return g0, g1, nil
}

func runGNIDAMAM(ctx context.Context, req *Request) (Report, error) {
	g0, g1, err := buildGNIPair(req)
	if err != nil {
		return Report{}, err
	}
	proto, err := protoGNIDAMAM(req)
	if err != nil {
		return Report{}, err
	}
	return finishGNI(ctx, "gni-damam", proto.Spec(), g0, g1, proto.HonestProver(), req.Options)
}

func runGNIGeneral(ctx context.Context, req *Request) (Report, error) {
	g0, g1, err := buildGNIPair(req)
	if err != nil {
		return Report{}, err
	}
	proto, err := protoGNIGeneral(req)
	if err != nil {
		return Report{}, err
	}
	return finishGNI(ctx, "gni-general", proto.Spec(), g0, g1, proto.HonestProver(), req.Options)
}

func runGNILCP(ctx context.Context, req *Request) (Report, error) {
	g0, g1, err := buildGNIPair(req)
	if err != nil {
		return Report{}, err
	}
	proto, err := protoGNILCP(req)
	if err != nil {
		return Report{}, err
	}
	return finishGNI(ctx, "gni-lcp", proto.Spec(), g0, g1, proto.HonestProver(), req.Options)
}

func runGNIMarked(ctx context.Context, req *Request) (Report, error) {
	g, err := cachedGraph(req.N, req.Edges)
	if err != nil {
		return Report{}, err
	}
	coreMarks, _, err := decodeMarks(req)
	if err != nil {
		return Report{}, err
	}
	proto, err := protoGNIMarked(req)
	if err != nil {
		return Report{}, err
	}
	inputs, err := core.EncodeMarks(coreMarks)
	if err != nil {
		return Report{}, asBadRequest(err)
	}
	nopts, err := engineOptions(ctx, req.Options)
	if err != nil {
		return Report{}, err
	}
	res, err := network.RunContext(ctx, proto.Spec(), g, inputs, proto.HonestProver(), nopts)
	if err != nil {
		return Report{}, err
	}
	return report("gni-marked", res), nil
}

// finishGNI runs a two-graph instance: g0 is the network, g1 travels as
// node inputs, row by row.
func finishGNI(ctx context.Context, name string, spec *network.Spec, g0, g1 *graph.Graph,
	prover network.Prover, opts Options) (Report, error) {
	nopts, err := engineOptions(ctx, opts)
	if err != nil {
		return Report{}, err
	}
	res, err := network.RunContext(ctx, spec, g0, core.EncodeGNIInputs(g1), prover, nopts)
	if err != nil {
		return Report{}, err
	}
	return report(name, res), nil
}
