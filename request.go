package dip

import (
	"context"
	"math/big"
	"sort"

	"dip/internal/core"
	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/wire"
)

// Request names a protocol and carries its instance: the graph(s) as edge
// lists plus Options. Exactly the fields a protocol consumes may be set —
// a populated field the protocol does not read is rejected, so a caller
// that, say, sends Marks to sym-dmam learns about the mistake instead of
// having it silently ignored. The JSON form is what cmd/dipserve accepts.
type Request struct {
	// Protocol is a registry name; see Protocols.
	Protocol string `json:"protocol"`
	// N is the number of vertices, at most MaxVertices. dsym-dam derives
	// its vertex count from Side and Half instead, and there N may be
	// either 0 or that count.
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

// entry is a registry row: the public description plus the instance
// builder and the set of Request fields the protocol consumes.
type entry struct {
	info entryInfo
	// build validates the request and assembles its instance; RunContext
	// runs every protocol's instance through the same engine call.
	build func(req *Request) (EngineRun, error)
	// spec rebuilds the protocol's Spec without running it; see BuildSpec.
	spec func(req *Request) (*network.Spec, error)
	// uses flags which optional Request fields this protocol reads;
	// dispatch rejects requests that set any other.
	usesEdges1 bool
	usesMarks  bool
	usesSide   bool
}

// MaxVertices and MaxRepetitions cap the size of a request. A graph's
// adjacency rows are allocated before its first edge is read, and the GNI
// challenges grow with the repetition count, so without the caps a request
// body of a few dozen bytes could ask for gigabytes. The largest requests
// in this repository use 99 vertices and 60 repetitions.
const (
	MaxVertices    = 1024
	MaxRepetitions = 1000
)

// validate rejects a request that populates a field this protocol does not
// read, that exceeds a size cap, or whose repetition count is negative.
// The run, BuildSpec and PeerSpec dispatch paths all call it before
// anything is built.
func (e *entry) validate(req *Request) error {
	if !e.usesEdges1 && req.Edges1 != nil {
		return badRequestf("dip: protocol %q takes no Edges1", e.info.Name)
	}
	if !e.usesMarks && req.Marks != nil {
		return badRequestf("dip: protocol %q takes no Marks", e.info.Name)
	}
	if !e.usesSide && (req.Side != 0 || req.Half != 0) {
		return badRequestf("dip: protocol %q takes no Side/Half", e.info.Name)
	}
	if req.N > MaxVertices {
		return badRequestf("dip: n=%d exceeds the cap of %d vertices", req.N, MaxVertices)
	}
	// Side and Half are capped one by one first, so that the sum cannot
	// overflow.
	if req.Side > MaxVertices || req.Half > MaxVertices || 2*req.Side+2*req.Half+1 > MaxVertices {
		return badRequestf("dip: dsym-dam with side=%d half=%d exceeds the cap of %d vertices",
			req.Side, req.Half, MaxVertices)
	}
	if req.Options.Repetitions < 0 {
		return badRequestf("dip: Repetitions must be non-negative, got %d (0 selects the default of %d)",
			req.Options.Repetitions, core.DefaultGNIRepetitions)
	}
	if req.Options.Repetitions > MaxRepetitions {
		return badRequestf("dip: Repetitions=%d exceeds the cap of %d", req.Options.Repetitions, MaxRepetitions)
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
		build: graphRun(protoSymDMAM),
		spec:  specOf(protoSymDMAM),
	},
	"sym-dam": {
		info: entryInfo{Name: "sym-dam", Family: "sym", Rounds: 2,
			Summary: "O(n log n) dAM proof of symmetry, nodes speak first (Theorem 1.3)"},
		build: buildSymDAM,
		spec:  specOf(protoSymDAM),
	},
	"dsym-dam": {
		info: entryInfo{Name: "dsym-dam", Family: "sym", Rounds: 2,
			Summary: "O(log n) dAM proof of dumbbell symmetry (Theorem 1.2)"},
		build:    buildDSymDAM,
		spec:     specOf(protoDSymDAM),
		usesSide: true,
	},
	"sym-lcp": {
		info: entryInfo{Name: "sym-lcp", Family: "sym", Rounds: 1,
			Summary: "Θ(n²) non-interactive labeling-scheme baseline for symmetry"},
		build: graphRun(protoSymLCP),
		spec:  specOf(protoSymLCP),
	},
	"sym-rpls": {
		info: entryInfo{Name: "sym-rpls", Family: "sym", Rounds: 1,
			Summary: "randomized proof-labeling scheme: Θ(n²) advice, O(log n) fingerprint exchange"},
		build: graphRun(protoSymRPLS),
		spec:  specOf(protoSymRPLS),
	},
	"gni-damam": {
		info: entryInfo{Name: "gni-damam", Family: "gni", Rounds: 4,
			Summary: "distributed Goldwasser–Sipser dAMAM proof of non-isomorphism (Theorem 1.5)"},
		build:      pairRun(protoGNIDAMAM),
		spec:       specOf(protoGNIDAMAM),
		usesEdges1: true,
	},
	"gni-general": {
		info: entryInfo{Name: "gni-general", Family: "gni", Rounds: 2,
			Summary: "promise-free GNI, correct on symmetric graphs too"},
		build:      pairRun(protoGNIGeneral),
		spec:       specOf(protoGNIGeneral),
		usesEdges1: true,
	},
	"gni-marked": {
		info: entryInfo{Name: "gni-marked", Family: "gni", Rounds: 4,
			Summary: "marked single-graph formulation of GNI (Section 2.3)"},
		build:     buildGNIMarked,
		spec:      specOf(protoGNIMarked),
		usesMarks: true,
	},
	"gni-lcp": {
		info: entryInfo{Name: "gni-lcp", Family: "gni", Rounds: 1,
			Summary: "Θ(n²) non-interactive baseline for non-isomorphism"},
		build:      pairRun(protoGNILCP),
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
	run, err := AssembleRun(req)
	if err != nil {
		return Report{}, err
	}
	return runAssembled(ctx, req, run, nil)
}

// AssembleRun validates req and assembles its instance through the
// registry, exactly as Run does before it calls the engine. It exists for
// in-module tools (cmd/dipsim) that drive the engine directly — for fault
// injection or transcript recording — on the instance Run would execute.
// network is an internal package, so the result is unusable outside this
// module (compare ReportFromResult).
func AssembleRun(req Request) (EngineRun, error) {
	e, ok := registry[req.Protocol]
	if !ok {
		return EngineRun{}, badRequestf("dip: unknown protocol %q (see dip.Protocols)", req.Protocol)
	}
	if err := e.validate(&req); err != nil {
		return EngineRun{}, err
	}
	return e.build(&req)
}

// runAssembled is the engine step of RunContext and Fleet.Run: it runs an
// assembled instance in-process, or on a fleet when tr is non-nil.
func runAssembled(ctx context.Context, req Request, run EngineRun, tr network.Transport) (Report, error) {
	timeout, err := resolveTimeout(req.Options.Timeout)
	if err != nil {
		return Report{}, err
	}
	nopts := network.Options{Seed: req.Options.Seed, ProverTimeout: timeout, Transport: tr}
	res, err := network.RunContext(ctx, run.Spec, run.Graph, run.Inputs, run.Prover, nopts)
	if err != nil {
		return Report{}, err
	}
	return report(req.Protocol, res), nil
}

// EngineRun is one assembled instance: everything the engine call needs
// besides the context and the options.
type EngineRun struct {
	Spec   *network.Spec
	Graph  *graph.Graph
	Inputs []wire.Message // node inputs (G₁ rows, marks); nil if the protocol has none
	Prover network.Prover
	// modulus is sym-dam's hash modulus, which a fleet run sends its
	// peers (fleetParams); nil for every other protocol.
	modulus *big.Int
}

// protocol is the run-side face of every core protocol type.
type protocol interface {
	Spec() *network.Spec
	HonestProver() network.Prover
}

// graphRun builds a single-graph instance (no node inputs); the graph is
// validated, connectivity included, before the protocol is built.
func graphRun[T protocol](proto func(*Request) (T, error)) func(*Request) (EngineRun, error) {
	return func(req *Request) (EngineRun, error) {
		g, err := networkGraph(req.N, req.Edges)
		if err != nil {
			return EngineRun{}, err
		}
		p, err := proto(req)
		if err != nil {
			return EngineRun{}, err
		}
		return EngineRun{Spec: p.Spec(), Graph: g, Prover: p.HonestProver()}, nil
	}
}

// buildSymDAM is graphRun for sym-dam that also keeps the instance's
// modulus, so that a fleet run provisions its peers with it instead of
// having each repeat the prime search.
func buildSymDAM(req *Request) (EngineRun, error) {
	g, err := networkGraph(req.N, req.Edges)
	if err != nil {
		return EngineRun{}, err
	}
	p, err := protoSymDAM(req)
	if err != nil {
		return EngineRun{}, err
	}
	return EngineRun{Spec: p.Spec(), Graph: g, Prover: p.HonestProver(), modulus: p.P()}, nil
}

// pairRun builds a two-graph GNI instance: G₀ is the network, G₁ travels
// as node inputs, row by row. Both graphs are validated before the
// protocol is built; only G₀ must be connected.
func pairRun[T protocol](proto func(*Request) (T, error)) func(*Request) (EngineRun, error) {
	return func(req *Request) (EngineRun, error) {
		g0, err := networkGraph(req.N, req.Edges)
		if err != nil {
			return EngineRun{}, err
		}
		g1, err := cachedGraph(req.N, req.Edges1)
		if err != nil {
			return EngineRun{}, err
		}
		p, err := proto(req)
		if err != nil {
			return EngineRun{}, err
		}
		return EngineRun{Spec: p.Spec(), Graph: g0, Inputs: core.EncodeGNIInputs(g1.g), Prover: p.HonestProver()}, nil
	}
}

// buildDSymDAM derives the vertex count from Side and Half, so the
// protocol is built before the graph it must match.
func buildDSymDAM(req *Request) (EngineRun, error) {
	proto, err := protoDSymDAM(req)
	if err != nil {
		return EngineRun{}, err
	}
	if req.N != 0 && req.N != proto.N() {
		return EngineRun{}, badRequestf("dip: dsym-dam with side=%d half=%d has %d vertices, request says n=%d",
			req.Side, req.Half, proto.N(), req.N)
	}
	g, err := networkGraph(proto.N(), req.Edges)
	if err != nil {
		return EngineRun{}, err
	}
	return EngineRun{Spec: proto.Spec(), Graph: g, Prover: proto.HonestProver()}, nil
}

// buildGNIMarked ships the marks as node inputs; they are decoded before
// the protocol is built.
func buildGNIMarked(req *Request) (EngineRun, error) {
	g, err := networkGraph(req.N, req.Edges)
	if err != nil {
		return EngineRun{}, err
	}
	coreMarks, _, err := decodeMarks(req)
	if err != nil {
		return EngineRun{}, err
	}
	proto, err := protoGNIMarked(req)
	if err != nil {
		return EngineRun{}, err
	}
	inputs, err := core.EncodeMarks(coreMarks)
	if err != nil {
		return EngineRun{}, asBadRequest(err)
	}
	return EngineRun{Spec: proto.Spec(), Graph: g, Inputs: inputs, Prover: proto.HonestProver()}, nil
}
