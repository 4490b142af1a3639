package dip

import (
	"context"
	"encoding/json"
	"math/big"
	"time"

	"dip/internal/core"
	"dip/internal/faults"
	"dip/internal/network"
	"dip/internal/peer"
	"dip/internal/prime"
)

// LinkFaults is a seed-deterministic per-link fault policy for fleet
// transports: each coordinator→peer data frame may be delayed or dropped,
// decided by hashing (seed, peer, frame ordinal) so a schedule replays
// exactly under the same seed. Delays are cancel-aware (a canceled run
// returns promptly, it does not sleep out the injected latency); drops
// starve the session until a deadline turns them into a structured
// transport error — a partition can fail a run but never flip a decision.
type LinkFaults struct {
	// Seed keys the per-frame decisions; runs with equal seeds see the
	// identical delay/drop schedule.
	Seed int64 `json:"seed"`
	// Delay is the injected latency; applied to a frame with probability
	// DelayProb (0 disables, 1 delays every frame).
	Delay     time.Duration `json:"delay_ns,omitempty"`
	DelayProb float64       `json:"delay_prob,omitempty"`
	// DropProb silently discards a frame with the given probability,
	// emulating a lossy or partitioned link.
	DropProb float64 `json:"drop_prob,omitempty"`
}

// FleetOptions configure a fleet handle. The zero value is ready to use:
// every field has a documented default applied on dial.
type FleetOptions struct {
	// DialTimeout bounds each per-peer TCP connect (default 5s).
	DialTimeout time.Duration
	// IOTimeout bounds each frame exchange and each session's idle gaps
	// (default 30s). A peer that stalls longer fails the run with a
	// structured transport error instead of hanging the caller.
	IOTimeout time.Duration
	// LinkFaults, when non-nil, injects socket-level delay/drop faults on
	// every run placed through this fleet. Nil means a clean network.
	LinkFaults *LinkFaults
}

// peerOptions projects the public options onto the transport layer's
// validated config struct — the single place fleet defaults live.
func (o FleetOptions) peerOptions() peer.Options {
	po := peer.Options{DialTimeout: o.DialTimeout, IOTimeout: o.IOTimeout}
	if o.LinkFaults != nil {
		po.LinkFaults = &faults.LinkPolicy{
			Seed:      o.LinkFaults.Seed,
			Delay:     o.LinkFaults.Delay,
			DelayProb: o.LinkFaults.DelayProb,
			DropProb:  o.LinkFaults.DropProb,
		}
	}
	return po
}

// Fleet is a long-lived handle on a set of dippeer processes. It owns
// node→peer placement, connection reuse, and per-run session minting:
// every Run multiplexes a fresh session over the fleet's standing
// connections, so many runs — including concurrent ones — share the same
// sockets. A Fleet is safe for concurrent use; close it when done.
type Fleet struct {
	pf *peer.Fleet
}

// DialFleet connects to every peer address eagerly and returns the
// handle, so configuration errors (bad address, unreachable host) surface
// at boot rather than on the first run. If any peer is unreachable the
// dial fails as a whole. Lost connections are redialed transparently on
// later runs; a peer that stays down fails only the runs placed on it.
func DialFleet(addrs []string, opts FleetOptions) (*Fleet, error) {
	pf, err := peer.DialFleet(addrs, opts.peerOptions())
	if err != nil {
		return nil, err
	}
	return &Fleet{pf: pf}, nil
}

// Run executes the request on the fleet: verifier nodes are placed on the
// peer processes round-robin while the funnel, prover, and cost
// accounting stay in-process — so the Report is bit-identical to what
// dip.Run would produce for the same request. Transport failures (dead
// peer, stalled session, canceled context) surface as structured
// *network.RunError values with Phase "transport" or "canceled".
func (f *Fleet) Run(ctx context.Context, req Request) (*Report, error) {
	run, err := AssembleRun(req)
	if err != nil {
		return nil, err
	}
	tr, err := f.TransportFor(req, run)
	if err != nil {
		return nil, err
	}
	rep, err := runAssembled(ctx, req, run, tr)
	if err != nil {
		return nil, err
	}
	return &rep, nil
}

// EngineTransport mints a single-run transport for req on this fleet's
// connections: it assembles req's instance (AssembleRun) for the setup it
// provisions, then calls TransportFor.
func (f *Fleet) EngineTransport(req Request) (network.Transport, error) {
	run, err := AssembleRun(req)
	if err != nil {
		return nil, err
	}
	return f.TransportFor(req, run)
}

// TransportFor mints the transport of one run of run, the instance
// AssembleRun assembled from req, on this fleet's connections. It exists
// for in-module tools (cmd/dipsim) that drive the engine directly — for
// fault injection or transcript recording — while still placing nodes on
// the fleet. network is an internal package, so the method is unusable
// outside this module (compare ReportFromResult).
func (f *Fleet) TransportFor(req Request, run EngineRun) (network.Transport, error) {
	req.Edges, req.Edges1 = nil, nil
	params, err := json.Marshal(fleetParams{Request: req, Modulus: run.modulus})
	if err != nil {
		return nil, err
	}
	return f.pf.NewRun(params), nil
}

// fleetParams is the params blob a fleet run sends every peer in its
// hello, and PeerSpec is its one reader. It carries the request with its
// edge lists stripped — each peer receives only its own nodes' neighbor
// slices in the hello — while the spec-shaping fields (protocol, N,
// Side/Half, Marks, seed, repetitions) travel whole, plus the setup the
// coordinator already derived: Modulus is sym-dam's seed-derived prime
// (nil, and omitted, for every other protocol). DESIGN.md §13 says why
// a peer may trust it.
type fleetParams struct {
	Request
	Modulus *big.Int `json:"modulus,omitempty"`
}

// PeerSpec is a fleet peer's SpecBuilder (cmd/dippeer installs it): it
// decodes the params blob of a Fleet run and rebuilds the run's Spec
// through BuildSpec. A provisioned sym-dam modulus replaces the peer's
// own prime search: it must lie in the protocol's window
// [10·n^{n+2}, 100·n^{n+2}], it is refused for any other protocol, and
// the instance built from it is not cached, so no later session for the
// same seed sees it. Params without a modulus, as older coordinators
// send them, build exactly as BuildSpec does.
func PeerSpec(params []byte) (*network.Spec, error) {
	var fp fleetParams
	if err := json.Unmarshal(params, &fp); err != nil {
		return nil, badRequestf("dip: decoding fleet params: %w", err)
	}
	req := fp.Request
	if fp.Modulus == nil {
		return BuildSpec(req)
	}
	if req.Protocol != "sym-dam" {
		return nil, badRequestf("dip: protocol %q takes no provisioned modulus", req.Protocol)
	}
	if err := registry[req.Protocol].validate(&req); err != nil {
		return nil, err
	}
	lo, hi, err := prime.PowerWindow(req.N)
	if err != nil {
		return nil, asBadRequest(err)
	}
	if fp.Modulus.Cmp(lo) < 0 || fp.Modulus.Cmp(hi) > 0 {
		return nil, badRequestf("dip: sym-dam modulus outside [10·n^(n+2), 100·n^(n+2)] for n=%d", req.N)
	}
	proto, err := core.NewSymDAMWithPrime(req.N, fp.Modulus)
	if err != nil {
		return nil, asBadRequest(err)
	}
	return proto.Spec(), nil
}

// Ready probes every peer, redialing lost connections, and reports the
// unreachable ones. It is the health hook behind dipserve's /readyz.
func (f *Fleet) Ready() error { return f.pf.Ready() }

// Addrs returns the fleet's peer addresses in placement order.
func (f *Fleet) Addrs() []string { return f.pf.Addrs() }

// Close tears down every connection. In-flight runs fail with a
// structured transport error; subsequent runs fail immediately.
func (f *Fleet) Close() error { return f.pf.Close() }

// PeerStats is one peer's gauge snapshot. The JSON form appears under
// "fleet" in dipserve's /metrics document.
type PeerStats = peer.PeerStats

// FleetStats is a point-in-time snapshot of every peer's gauges.
type FleetStats = peer.FleetStats

// Stats snapshots the fleet's per-peer gauges.
func (f *Fleet) Stats() FleetStats { return f.pf.Stats() }
