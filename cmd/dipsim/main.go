// Command dipsim runs a single interactive distributed proof on a single
// generated graph and prints the outcome and the exact per-node
// communication cost, including the per-round breakdown at the
// worst-cost node.
//
// Usage:
//
//	dipsim -protocol sym-dmam -graph doubled -n 16
//	dipsim -protocol sym-dam  -graph cycle   -n 12
//	dipsim -protocol dsym-dam -side 8 -half 2
//	dipsim -protocol gni      -n 6 -k 30
//	dipsim -protocol gni-marked -n 6 -k 30
//	dipsim -protocol sym-lcp  -graph doubled -n 20
//	dipsim -protocol gni -n 6 -json -        # machine-readable result
//	dipsim -protocol sym-dam -fault bitflip  # corrupt prover messages
//	dipsim -protocol sym-dam -fault equivocate -fault-plane exchange
//	dipsim -protocol sym-dmam -peers 127.0.0.1:7001,127.0.0.1:7002
//
// -peers runs the verifier nodes on a fleet of dippeer processes (one TCP
// connection per peer, nodes assigned round-robin, one session per run)
// through the public dip.DialFleet API — dipsim does no placement wiring
// of its own. The engine's funnel — validation, cost accounting, fault
// injection — stays in the coordinator, so a -peers run is bit-identical
// to the in-process run of the same instance and seed, faults included.
//
// dipsim builds a dip.Request for the chosen instance and — in the plain
// case — executes it through dip.Run, the same entry point library users
// and cmd/dipserve go through. The -fault and -v paths need engine knobs
// the public API deliberately does not expose (delivery corruption,
// transcript recording), so they drive the engine directly on the
// instance dip.AssembleRun assembles from the same request — the
// registry's, as in dip.Run — and shape the result into the same Report.
//
// -fault injects a fault class from internal/faults into the honest run
// (bitflip, truncate, drop, replay, nodeswap, equivocate); -fault-plane
// picks the corrupted plane (prover = prover→node deliveries, exchange =
// node→node copies) and -fault-prob the per-delivery injection
// probability. The fault schedule derives from -seed, so a faulted run is
// exactly reproducible.
//
// Graph kinds for the Sym protocols: cycle, complete, star, path, doubled
// (a random rigid graph and its mirror joined by a bridge — always
// symmetric; requires an even -n ≥ 14), asymmetric (a random rigid graph
// — never symmetric; requires -n ≥ 6).
//
// -json writes the run as a dip-report/v1 document to the given path
// ("-" for stdout) alongside the human-readable report, with the graph
// description, fault configuration and delivery meters attached as
// provenance.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"dip"
	"dip/internal/core"
	"dip/internal/faults"
	"dip/internal/graph"
	"dip/internal/network"
	"dip/internal/obs"
)

func main() {
	opts := parseFlags(os.Args[1:])
	if err := run(opts, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dipsim:", err)
		os.Exit(1)
	}
}

// simOptions carries the parsed command line; separated from flag
// parsing so tests can drive run() directly.
type simOptions struct {
	protocol string
	kind     string
	n        int
	side     int
	half     int
	k        int
	seed     int64
	verbose  bool
	jsonPath string
	peers    string

	fault      string
	faultPlane string
	faultProb  float64
}

func parseFlags(args []string) simOptions {
	var o simOptions
	fs := flag.NewFlagSet("dipsim", flag.ExitOnError)
	fs.StringVar(&o.protocol, "protocol", "sym-dmam", "sym-dmam | sym-dam | sym-rpls | dsym-dam | gni | gni-marked | sym-lcp | gni-lcp")
	fs.StringVar(&o.kind, "graph", "doubled", "cycle | complete | star | path | doubled | asymmetric")
	fs.IntVar(&o.n, "n", 16, "graph size (total vertices; doubled needs an even n >= 14, asymmetric n >= 6)")
	fs.IntVar(&o.side, "side", 8, "DSym: vertices per dumbbell side")
	fs.IntVar(&o.half, "half", 1, "DSym: half-length of the connecting path")
	fs.IntVar(&o.k, "k", core.DefaultGNIRepetitions, "GNI: parallel repetitions")
	fs.Int64Var(&o.seed, "seed", 1, "reproducibility seed")
	fs.BoolVar(&o.verbose, "v", false, "print the full message transcript")
	fs.StringVar(&o.jsonPath, "json", "", "write a dip-report/v1 document to this path ('-' for stdout)")
	fs.StringVar(&o.peers, "peers", "", "comma-separated dippeer addresses: run the verifier nodes on that fleet instead of in-process")
	fs.StringVar(&o.fault, "fault", "", "inject a fault class (bitflip | truncate | drop | replay | nodeswap | equivocate)")
	fs.StringVar(&o.faultPlane, "fault-plane", "prover", "plane to corrupt: prover | exchange")
	fs.Float64Var(&o.faultProb, "fault-prob", 1, "per-delivery injection probability in [0, 1]")
	fs.Parse(args)
	return o
}

// instance is one generated problem instance: the dip.Request that every
// path executes — dip.Run, a fleet, or the engine driven directly through
// dip.AssembleRun — so all of them run the registry's construction of it.
type instance struct {
	label string // "graph" for single-graph protocols, "instance" for GNI
	desc  string
	req   dip.Request
}

// buildInstance generates the instance for the chosen protocol. The "gni"
// spelling is kept as an alias for the registry's canonical "gni-damam".
func buildInstance(o simOptions, rng *rand.Rand) (*instance, error) {
	opts := dip.Options{Seed: o.seed}
	switch o.protocol {
	case "sym-dmam", "sym-dam", "sym-rpls", "sym-lcp":
		g, err := makeGraph(o.kind, o.n, rng)
		if err != nil {
			return nil, err
		}
		return &instance{
			label: "graph",
			desc:  fmt.Sprintf("%s (%d vertices, %d edges)", o.kind, g.N(), g.NumEdges()),
			req:   dip.Request{Protocol: o.protocol, N: g.N(), Edges: g.Edges(), Options: opts},
		}, nil

	case "dsym-dam":
		// The registry validates -side and -half (the generator would
		// panic on, or allocate, what it refuses) before the graph exists.
		req := dip.Request{Protocol: "dsym-dam", Side: o.side, Half: o.half, Options: opts}
		if _, err := dip.BuildSpec(req); err != nil {
			return nil, err
		}
		g := graph.DSymGraph(graph.ConnectedGNP(o.side, 0.5, rng), o.half)
		req.Edges = g.Edges()
		return &instance{
			label: "graph",
			desc: fmt.Sprintf("DSym dumbbell (side %d, path half-length %d, %d vertices)",
				o.side, o.half, g.N()),
			req: req,
		}, nil

	case "gni", "gni-lcp":
		yes, err := core.NewGNIYesInstance(o.n, rng)
		if err != nil {
			return nil, err
		}
		req := dip.Request{Protocol: "gni-lcp", N: o.n, Edges: yes.G0.Edges(), Edges1: yes.G1.Edges(), Options: opts}
		if o.protocol == "gni" {
			req.Protocol = "gni-damam"
			req.Options.Repetitions = o.k
		}
		return &instance{
			label: "instance",
			desc:  fmt.Sprintf("two non-isomorphic rigid graphs on %d vertices", o.n),
			req:   req,
		}, nil

	case "gni-marked":
		a, err := graph.RandomAsymmetricConnected(o.n, rng)
		if err != nil {
			return nil, err
		}
		var b *graph.Graph
		for {
			if b, err = graph.RandomAsymmetricConnected(o.n, rng); err != nil {
				return nil, err
			}
			if !graph.AreIsomorphic(a, b) {
				break
			}
		}
		b, _ = b.Shuffle(rng)
		const hubs = 3
		total := 2*o.n + hubs
		g := graph.New(total)
		marks := make([]int, total)
		for v := 0; v < o.n; v++ {
			marks[v], marks[v+o.n] = 0, 1
		}
		for v := 2 * o.n; v < total; v++ {
			marks[v] = -1
		}
		for _, e := range a.Edges() {
			g.AddEdge(e[0], e[1])
		}
		for _, e := range b.Edges() {
			g.AddEdge(e[0]+o.n, e[1]+o.n)
		}
		for v := 0; v < 2*o.n; v++ {
			g.AddEdge(v, 2*o.n+v%hubs)
		}
		for h := 1; h < hubs; h++ {
			g.AddEdge(2*o.n, 2*o.n+h)
		}
		opts.Repetitions = o.k
		return &instance{
			label: "instance",
			desc: fmt.Sprintf("%d-node network, two rigid non-isomorphic induced %d-vertex subgraphs",
				total, o.n),
			req: dip.Request{Protocol: "gni-marked", N: total, Edges: g.Edges(), Marks: marks, Options: opts},
		}, nil

	default:
		return nil, fmt.Errorf("unknown protocol %q", o.protocol)
	}
}

// dialFleet connects to the -peers fleet through the public API — dipsim
// carries no private placement wiring of its own.
func dialFleet(o simOptions, stdout io.Writer) (*dip.Fleet, error) {
	addrs := strings.Split(o.peers, ",")
	fleet, err := dip.DialFleet(addrs, dip.FleetOptions{})
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "peers: %d-process fleet\n", len(addrs))
	return fleet, nil
}

// runEngine drives the engine directly for the paths dip.Run does not
// expose: fault injection, transcript recording, and peer fleets
// combined with either.
func runEngine(o simOptions, inst *instance, fleet *dip.Fleet, stdout io.Writer) (*network.Result, error) {
	run, err := dip.AssembleRun(inst.req)
	if err != nil {
		return nil, err
	}
	ro := network.Options{Seed: o.seed, RecordTranscript: o.verbose}
	if fleet != nil {
		coord, err := fleet.EngineTransport(inst.req)
		if err != nil {
			return nil, err
		}
		ro.Transport = coord
	}
	if o.fault != "" {
		if o.faultProb < 0 || o.faultProb > 1 {
			return nil, fmt.Errorf("-fault-prob %v outside [0, 1]", o.faultProb)
		}
		class, ok := faults.ByName(o.fault)
		if !ok {
			return nil, fmt.Errorf("unknown fault class %q (have %v)", o.fault, faults.Names())
		}
		plane := faults.Plane(o.faultPlane)
		if plane != faults.PlaneProver && plane != faults.PlaneExchange {
			return nil, fmt.Errorf("unknown fault plane %q (want prover or exchange)", o.faultPlane)
		}
		if !class.Supports(plane) {
			return nil, fmt.Errorf("fault class %q does not support the %s plane", o.fault, plane)
		}
		inj := class.New()
		if o.faultProb < 1 {
			inj = faults.WithProbability(o.faultProb, inj)
		}
		if plane == faults.PlaneProver {
			ro.Corrupt = faults.Corruptor(o.seed, run.Graph.N(), inj)
		} else {
			ro.CorruptExchange = faults.ExchangeCorruptor(o.seed, run.Graph.N(), inj)
		}
		fmt.Fprintf(stdout, "fault: %s on %s plane, probability %v\n", o.fault, plane, o.faultProb)
	}
	return network.Run(run.Spec, run.Graph, run.Inputs, run.Prover, ro)
}

func run(o simOptions, stdout io.Writer) error {
	rng := rand.New(rand.NewSource(o.seed))
	inst, err := buildInstance(o, rng)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %s\n", inst.label, inst.desc)

	var fleet *dip.Fleet
	if o.peers != "" {
		if fleet, err = dialFleet(o, stdout); err != nil {
			return err
		}
		defer fleet.Close()
	}

	var rep dip.Report
	var res *network.Result
	switch {
	case o.fault == "" && !o.verbose && fleet == nil:
		// The canonical path: exactly what library users and dipserve run.
		rep, err = dip.Run(inst.req)
	case o.fault == "" && !o.verbose:
		// The canonical fleet path: what dipserve -peers runs.
		var prep *dip.Report
		if prep, err = fleet.Run(context.Background(), inst.req); err == nil {
			rep = *prep
		}
	default:
		res, err = runEngine(o, inst, fleet, stdout)
		if err == nil {
			rep = dip.ReportFromResult(inst.req.Protocol, res)
		}
	}
	if err != nil {
		return err
	}

	rejecting := 0
	for _, d := range rep.Decisions {
		if !d {
			rejecting++
		}
	}
	// dipsim performs exactly one engine run per invocation, so the
	// process-global delivery meters are this run's meters.
	meters := obs.Snapshot()

	fmt.Fprintf(stdout, "accepted: %v\n", rep.Accepted)
	fmt.Fprintf(stdout, "rejecting nodes: %d / %d\n", rejecting, len(rep.Decisions))
	fmt.Fprintf(stdout, "max prover bits per node: %d\n", rep.MaxProverBits)
	fmt.Fprintf(stdout, "total prover bits:        %d\n", rep.TotalProverBits)
	fmt.Fprintf(stdout, "max node-to-node bits:    %d\n", rep.MaxNodeToNodeBits)
	fmt.Fprintf(stdout, "deliveries: %d (%d bits through the engine funnel)\n",
		meters.Deliveries, meters.DeliveredBits)
	fmt.Fprintf(stdout, "per-round bits at node %d (the max-cost node):\n", rep.MaxNode)
	for ri, r := range rep.PerRound {
		fmt.Fprintf(stdout, "  round %d (%s): to prover %d, from prover %d, to neighbors %d\n",
			ri, r.Kind, r.ToProver, r.FromProver, r.NodeToNode)
	}
	if o.verbose && res != nil && res.Transcript != nil {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, res.Transcript)
	}

	if o.jsonPath != "" {
		w := dip.WireReportFrom(rep, o.seed)
		w.Graph = inst.desc
		if o.fault != "" {
			w.Fault = o.fault
			w.FaultPlane = o.faultPlane
			w.FaultProb = o.faultProb
		}
		w.Deliveries = meters.Deliveries
		w.DeliveredBits = meters.DeliveredBits
		if err := w.Validate(); err != nil {
			return err
		}
		if o.jsonPath == "-" {
			return w.Encode(stdout)
		}
		var buf bytes.Buffer
		if err := w.Encode(&buf); err != nil {
			return err
		}
		if err := os.WriteFile(o.jsonPath, buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// makeGraph builds the network graph for the Sym protocols. It validates
// n instead of silently resizing or letting a generator panic: n is at
// least 1 and at most the service's vertex cap, a cycle needs n ≥ 3,
// "doubled" graphs have 2·base+2 vertices with a rigid core of base ≥ 6
// vertices, so n must be even and at least 14 (and then g.N() == n
// exactly), and "asymmetric" needs n ≥ 6 (no rigid graph exists below
// that).
func makeGraph(kind string, n int, rng *rand.Rand) (*graph.Graph, error) {
	if n < 1 || n > dip.MaxVertices {
		return nil, fmt.Errorf("graph size -n %d outside [1, %d]", n, dip.MaxVertices)
	}
	switch kind {
	case "cycle":
		if n < 3 {
			return nil, fmt.Errorf("graph kind %q needs a size of at least 3, got -n %d", kind, n)
		}
		return graph.Cycle(n), nil
	case "complete":
		return graph.Complete(n), nil
	case "star":
		return graph.Star(n), nil
	case "path":
		return graph.Path(n), nil
	case "doubled":
		if n < 14 || n%2 != 0 {
			return nil, fmt.Errorf("graph kind %q needs an even size of at least 14 (2·base+2 with a rigid base of >= 6 vertices), got -n %d", kind, n)
		}
		core, err := graph.RandomAsymmetricConnected((n-2)/2, rng)
		if err != nil {
			return nil, err
		}
		return graph.Doubled(core, 0), nil
	case "asymmetric":
		if n < 6 {
			return nil, fmt.Errorf("graph kind %q needs a size of at least 6 (no rigid connected graph is smaller), got -n %d", kind, n)
		}
		return graph.RandomAsymmetricConnected(n, rng)
	default:
		return nil, fmt.Errorf("unknown graph kind %q", kind)
	}
}
