package network

import "fmt"

// Phase names the part of a run in which an engine failure occurred. It is
// the first coordinate of a RunError's attribution triple (phase, round,
// node).
type Phase string

const (
	// PhaseSetup covers validation before any round executes (nil prover
	// with Merlin rounds, malformed specs caught late, ...).
	PhaseSetup Phase = "setup"
	// PhaseChallenge is a Round.Challenge callback in an Arthur round.
	PhaseChallenge Phase = "challenge"
	// PhaseRespond is a Prover.Respond call or the validation of its
	// Response (shape, malformed wire.Message).
	PhaseRespond Phase = "respond"
	// PhaseDigest is a Round.Digest callback in a Merlin round.
	PhaseDigest Phase = "digest"
	// PhaseDecide is a Spec.Decide callback after the last round.
	PhaseDecide Phase = "decide"
	// PhaseDeadline means Prover.Respond exceeded Options.ProverTimeout.
	PhaseDeadline Phase = "deadline"
	// PhaseCanceled means the run was aborted between steps because
	// Options.Cancel fired (for RunContext: the context was canceled or its
	// deadline passed before the run completed).
	PhaseCanceled Phase = "canceled"
	// PhaseTransport means a networked run (Options.Transport) lost a
	// verifier node: a peer connection failed, answered out of protocol,
	// or went silent past the transport's I/O deadline. An in-process run
	// never produces it.
	PhaseTransport Phase = "transport"
)

// RunError is the structured error returned by Run when a protocol or
// prover *implementation* misbehaves: a panicking callback, a nil or
// wrong-shaped or malformed response, a hung prover past its deadline.
// (A cheating-but-well-formed prover is not an error; it yields a normal
// Result, typically rejected.) Phase, Round and Node attribute the failure;
// Err is the underlying cause and participates in errors.Is/As chains.
type RunError struct {
	// Protocol is Spec.Name of the failing run.
	Protocol string
	// Phase says which callback or check failed.
	Phase Phase
	// Round is the spec round index (position in Spec.Rounds), or -1 when
	// the failure is not tied to a specific round.
	Round int
	// Node is the node the failure is attributed to, or -1 when it cannot
	// be pinned to one node (e.g. the prover itself failed).
	Node int
	// Err is the underlying error (a recovered panic is wrapped into one).
	Err error
}

// Error renders the attribution triple and the cause.
func (e *RunError) Error() string {
	s := fmt.Sprintf("network: protocol %q: %s phase", e.Protocol, e.Phase)
	if e.Round >= 0 {
		s += fmt.Sprintf(", round %d", e.Round)
	}
	if e.Node >= 0 {
		s += fmt.Sprintf(", node %d", e.Node)
	}
	return s + ": " + e.Err.Error()
}

// Unwrap exposes the underlying cause to errors.Is/errors.As.
func (e *RunError) Unwrap() error { return e.Err }
