package network

import "dip/internal/wire"

// This file is the transport seam: the boundary the walk speaks through
// (transportSide in walk.go) when verifier nodes live outside this
// process. The engine's semantic layers do not move across it — the
// delivery funnel (validation → cost → corruption), the prover, and the
// transcript all stay on the coordinator — so a Transport carries only the
// node-facing halves of the schedule's steps: challenges and decisions
// coming back from nodes, responses and exchange deliveries going out to
// them, digests coming back when a Merlin round defines one.
//
// The in-memory path needs no Transport at all (the walk hands each step
// to the run's own Host); the interface exists so internal/peer can put a
// TCP connection on the far side, where a Host plays the nodes again.

// TransportRun is everything the far side needs to host its nodes for one
// run: the spec identity is negotiated out of band (internal/peer ships a
// protocol parameter blob at dial time), so this struct carries only the
// per-run values. Neighbors aliases the engine's pooled adjacency snapshot
// and Inputs aliases caller data; transports must not retain either past
// End.
type TransportRun struct {
	// Spec is the validated protocol of the run (read-only).
	Spec *Spec
	// Seed is Options.Seed; node v's RNG is derived as mix(Seed, v) on
	// whatever host runs the node, which is what keeps a run over a
	// Transport bit-identical to an in-process one.
	Seed int64
	// N is the node count; Neighbors[v] lists node v's neighbors ascending.
	N         int
	Neighbors [][]int
	// Inputs holds the per-node private inputs (nil for pure graph
	// properties).
	Inputs []wire.Message
	// Cancel, when non-nil, aborts transport waits: a blocked Recv* must
	// return a PhaseCanceled *RunError once the channel is receivable.
	Cancel <-chan struct{}
}

// Transport moves node-side traffic for the walk, which drives it from a
// single goroutine in schedule order, so implementations need no internal
// locking against the engine (they do need their own reader goroutines to
// keep per-connection inboxes fed).
//
// Contract, per schedule step:
//
//   - StepChallenge: the walk calls RecvChallenge exactly N times per
//     Arthur round and expects one challenge from every node, any arrival
//     order, no duplicates.
//   - StepRespond: the walk calls SendResponse once per node, node
//     ascending, with the post-funnel (charged, possibly corrupted)
//     message — the copy the node must observe.
//   - StepExchange: when the round defines a Digest, the walk first
//     calls RecvForward exactly N times (each node's digest of its
//     delivered response); it then calls SendExchange once per directed
//     edge (receiver ascending, sender ascending within the receiver's
//     neighbor list) with the post-funnel copy. Challenge exchanges and
//     digest-less forwards reuse messages the coordinator already holds,
//     so nothing is re-uploaded from the nodes.
//   - StepDecide: the walk calls RecvDecision exactly N times.
//
// Every method may fail the run by returning a *RunError; transport-level
// failures (lost connections, protocol violations, I/O deadlines) use
// PhaseTransport, cancellation uses PhaseCanceled. After any failure — or
// normal completion — the walk calls End exactly once; End must
// release every resource the run pinned (reader goroutines, buffers).
type Transport interface {
	// Begin starts a run: provision the far side (spec parameters, seed,
	// graph slices, inputs) or fail with a *RunError. It need not wait for
	// the node hosts to acknowledge: a host that cannot play the schedule
	// fails the run from the first call that waits on it.
	Begin(run *TransportRun) *RunError
	// RecvChallenge returns the next node challenge for Arthur round ri.
	RecvChallenge(ri int) (node int, m wire.Message, rerr *RunError)
	// SendResponse delivers the prover's post-funnel round-ri message to
	// node.
	SendResponse(ri, node int, m wire.Message) *RunError
	// RecvForward returns the next node digest for Merlin round ri.
	RecvForward(ri int) (node int, m wire.Message, rerr *RunError)
	// SendExchange delivers the post-funnel exchange copy from → to. chal
	// marks a challenge exchange (Spec.ShareChallenges).
	SendExchange(ri, from, to int, chal bool, m wire.Message) *RunError
	// RecvDecision returns the next node decision.
	RecvDecision() (node int, decision bool, rerr *RunError)
	// End finishes the run. failure is the error that aborted it, or nil
	// on a completed run; implementations propagate it to node hosts so
	// they can abandon the schedule.
	End(failure *RunError)
}
