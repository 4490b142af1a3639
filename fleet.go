package dip

import (
	"context"
	"encoding/json"
	"time"

	"dip/internal/faults"
	"dip/internal/network"
	"dip/internal/peer"
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
	tr, err := f.EngineTransport(req)
	if err != nil {
		return nil, err
	}
	rep, err := RunContext(withTransport(ctx, tr), req)
	if err != nil {
		return nil, err
	}
	return &rep, nil
}

// EngineTransport mints a single-run transport for req on this fleet's
// connections. It exists for in-module tools (cmd/dipsim) that drive the
// engine directly — for fault injection or transcript recording — while
// still placing nodes on the fleet. network is an internal package, so
// the method is unusable outside this module (compare ReportFromResult).
func (f *Fleet) EngineTransport(req Request) (network.Transport, error) {
	params, err := fleetParams(req)
	if err != nil {
		return nil, err
	}
	return f.pf.NewRun(params), nil
}

// fleetParams serializes a request for the fleet's SpecBuilder (dippeer
// rebuilds the Spec via BuildSpec): the edge lists are stripped — each
// peer receives only its own nodes' neighbor slices in the session's
// hello — while spec-shaping fields (protocol, N, Side/Half, Marks, seed,
// repetitions) travel whole.
func fleetParams(req Request) ([]byte, error) {
	req.Edges = nil
	req.Edges1 = nil
	return json.Marshal(req)
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
