// Package network implements the distributed interactive proof engine: the
// runtime in which the paper's protocols execute.
//
// A run consists of a network graph G, one verifier per node, and an
// untrusted prover. Rounds alternate between Arthur rounds (every node
// sends the prover an independent random challenge) and Merlin rounds (the
// prover sends every node a response). After each Merlin round, every node
// forwards the response it received to its neighbors, so that — as in
// Definition 1 of the paper — each node's decision can depend on the
// responses received by itself and its immediate neighbors. "Broadcast"
// prover messages (Section 2.2) are realized as unicast plus this neighbor
// exchange: honest provers send everyone the same value and the verifiers
// reject when a neighbor's copy differs, which is precisely the paper's
// semantics (a cheating prover is free to send different "broadcast" values
// and must be caught). A node's view holds its neighbors' copies by
// position in its ascending neighbor list, the one order in which every
// executor, Transport and peer batch delivers them.
//
// The engine is layered (one file per layer):
//
//   - The round script (script.go) compiles a Spec into the synchronous
//     schedule of a run — challenge, respond, exchange, decide steps — and
//     holds the shared per-node step helpers. The schedule exists once;
//     executors only decide where each node's half of a step runs.
//   - The delivery funnel (funnel.go) is the single seam every message on
//     every plane passes through: validate → charge → corrupt, in
//     runState.deliver. Fault injectors (internal/faults via
//     Options.Corrupt / Options.CorruptExchange) attach here, and the
//     internal/obs delivery meters are published from its charge totals.
//   - The executors walk the same script on the calling goroutine. The
//     sequential executor (exec_sequential.go, the default) plays every
//     node's steps itself. The networked executor (exec_networked.go,
//     selected by Options.Transport) keeps the prover, funnel and
//     transcript and has the transport's far side — NodeState hosts,
//     typically separate processes — play the node steps. Because every
//     node draws from its own seeded RNG and all semantics live in the
//     shared layers, the two produce bit-identical results (Cost,
//     Decisions, Transcript) for every protocol at a fixed seed; the test
//     suite asserts this.
//   - The run state (state.go) gathers everything a run touches — node
//     views, RNGs, exchange buffers, the adjacency snapshot — in one
//     pooled object reused across runs, so the experiment harness's
//     hundreds of trials per cell do not re-allocate the engine each time.
//     Everything reachable from the returned Result stays fresh per run.
//
// The engine meters every message at bit granularity. The headline figure,
// Cost.MaxProverBits, is the paper's complexity measure: the maximum over
// nodes of the number of bits exchanged between that node and the prover,
// including the random challenge bits (the paper charges for those in upper
// bounds).
package network

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dip/internal/graph"
	"dip/internal/obs"
	"dip/internal/wire"
)

// Kind distinguishes the two round types.
type Kind int

const (
	// Arthur is a verifier round: every node sends the prover a random
	// challenge.
	Arthur Kind = iota + 1
	// Merlin is a prover round: the prover sends every node a response.
	Merlin
)

// String returns "Arthur" or "Merlin".
func (k Kind) String() string {
	switch k {
	case Arthur:
		return "Arthur"
	case Merlin:
		return "Merlin"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Round describes one round of a protocol.
type Round struct {
	Kind Kind
	// Challenge produces node v's random message for an Arthur round. It
	// must be set for Arthur rounds and is ignored for Merlin rounds. The
	// view contains everything v has seen so far.
	Challenge func(v int, rng *rand.Rand, view *NodeView) wire.Message
	// Digest, when set on a Merlin round, replaces the message a node
	// forwards to its neighbors: instead of relaying the full prover
	// response, node v forwards Digest(v, rng, response). This models the
	// randomized proof-labeling schemes of Baruch-Fraigniaud-Patt-Shamir
	// (PODC 2015, reference [4] of the paper), where nodes compare large
	// advice strings by exchanging short randomized fingerprints. Cost
	// accounting charges the digest, not the full response.
	Digest func(v int, rng *rand.Rand, m wire.Message) wire.Message
}

// Spec describes a protocol: its round structure and the per-node decision
// function. The same Spec runs against honest and cheating provers.
type Spec struct {
	// Name identifies the protocol in transcripts and error messages.
	Name string
	// Rounds is the round schedule, e.g. Merlin, Arthur, Merlin for a dMAM
	// protocol.
	Rounds []Round
	// Decide is node v's output function out_v. It runs after all rounds.
	Decide func(v int, view *NodeView) bool
	// ShareChallenges, when set, also exchanges each Arthur-round challenge
	// with the node's neighbors (the lower-bound model of Section 3.4 gives
	// r_{N(v)} to each node; the upper bounds do not need it).
	ShareChallenges bool
}

// Prover is the untrusted prover: it sees the entire graph, all inputs, and
// every challenge sent so far, and produces one response per node in each
// Merlin round.
type Prover interface {
	// Respond is called once per Merlin round, in order. merlinRound counts
	// Merlin rounds from 0.
	Respond(merlinRound int, view *ProverView) (*Response, error)
}

// Response carries the prover's per-node messages for one Merlin round.
// PerNode must have one entry per graph node. A prover implementing a
// paper-style broadcast places the same message at every index.
type Response struct {
	PerNode []wire.Message
}

// Broadcast builds a Response that sends the same message to all n nodes.
func Broadcast(n int, m wire.Message) *Response {
	resp := &Response{PerNode: make([]wire.Message, n)}
	for i := range resp.PerNode {
		resp.PerNode[i] = m
	}
	return resp
}

// ProverView is everything the prover can see: the whole graph, all inputs,
// and the challenges from every completed Arthur round (indexed
// [arthurRound][node]). The view — including the Challenges rows, which
// are carved from pooled engine state — is valid only for the duration of
// the run; provers must not retain it (or any slice of it) across runs.
type ProverView struct {
	// Graph is the network graph itself, shared with the engine and the
	// caller rather than cloned per run. It is read-only by contract:
	// provers may inspect it freely (N, Neighbors, HasEdge, Clone, ...) but
	// must not mutate it. The engine snapshots the adjacency lists before
	// the first prover call, so a contract-violating prover cannot alter
	// message routing or verifier decisions within the run — but it would
	// corrupt the caller's graph for later runs, exactly as any caller
	// mutating a shared *graph.Graph would.
	Graph      *graph.Graph
	Inputs     []wire.Message
	Challenges [][]wire.Message
}

// NodeView is everything a single node can see. Verifier code must use only
// this: it is the formal locality boundary of the model. Like the
// ProverView, it is backed by pooled engine state and is valid only inside
// Spec callbacks; callbacks must not retain it across runs.
type NodeView struct {
	// V is this node's identifier; NumVertices is |V|, known in advance to
	// all participants (Section 2.2).
	V           int
	NumVertices int
	// Neighbors lists v's neighbors in the network graph, ascending.
	Neighbors []int
	// Input is v's private input (empty for pure graph properties).
	Input wire.Message

	// MyChallenges[k] is the challenge v sent in the k-th Arthur round.
	MyChallenges []wire.Message
	// NeighborChallenges[k][j] is the k-th challenge of neighbor
	// Neighbors[j]; populated only when Spec.ShareChallenges is set.
	NeighborChallenges [][]wire.Message
	// Responses[k] is the prover's message to v in the k-th Merlin round.
	Responses []wire.Message
	// NeighborResponses[k][j] is what neighbor Neighbors[j] forwarded
	// after the k-th Merlin round: the prover's message to it, or its
	// Digest when the round defines one. Every neighbor row is indexed
	// like Neighbors, the order in which the Transport delivers it.
	NeighborResponses [][]wire.Message

	// Memo is the run's memo on the host playing this node, shared with
	// every other node it plays in the run (nil when the host keeps none).
	// It only caches pure functions of the instance and a full key, so
	// it widens no node's view; see Memo.
	Memo *Memo
}

// Result is the outcome of one protocol run. Results are freshly
// allocated per run (never pooled) and safe to retain indefinitely.
type Result struct {
	// Accepted is true iff every node accepted (the acceptance rule of
	// Definition 2).
	Accepted bool
	// Decisions holds each node's individual output.
	Decisions []bool
	// Cost is the communication accounting.
	Cost Cost
	// Transcript is the recorded message log; nil unless
	// Options.RecordTranscript was set.
	Transcript *Transcript
}

// Corruptor mutates a prover→node message in flight; used to inject
// failures when testing verifier robustness. It is applied after cost
// accounting of the original message: the node is charged for what the
// prover sent, then receives the corrupted bits ("charged, then
// corrupted"). Both executors call it on the run's goroutine, once per
// (merlinRound, node), nodes ascending within each round, so a Corruptor
// may carry state keyed on that order without locking.
type Corruptor func(merlinRound, node int, m wire.Message) wire.Message

// ExchangeCorruptor mutates a node→node message on the exchange plane: the
// forward/digest traffic after a Merlin round and, when
// Spec.ShareChallenges is set, the challenge exchange after an Arthur
// round. round is the spec round index the exchange belongs to (the same
// index Cost.PerRound uses); from is the sending node, to the receiving
// neighbor. Cost semantics mirror Corruptor: the sender is charged for the
// original message, then `to` receives the corrupted copy.
//
// Both executors call it on the run's goroutine in one fixed order: within
// each exchange, receivers ascending, and for each receiver its senders in
// neighbour-list order.
type ExchangeCorruptor func(round, from, to int, m wire.Message) wire.Message

// Options configure a run.
type Options struct {
	// Seed derives all node randomness; runs with equal seeds and provers
	// are deterministic.
	Seed int64
	// Corrupt, if non-nil, tampers with prover→node messages.
	Corrupt Corruptor
	// CorruptExchange, if non-nil, tampers with node→node messages (see
	// ExchangeCorruptor for the contract).
	CorruptExchange ExchangeCorruptor
	// ProverTimeout, when positive, bounds each Prover.Respond call. A
	// prover that has not returned within the deadline aborts the run with
	// a *RunError in PhaseDeadline instead of hanging it. The stuck Respond
	// call itself cannot be cancelled — Go cannot kill a goroutine — so it
	// is abandoned; a well-behaved prover that merely finishes late finds
	// the run gone and its response discarded.
	ProverTimeout time.Duration
	// Cancel, when non-nil, aborts the run at the next step boundary after
	// the channel becomes receivable: the run returns a *RunError in
	// PhaseCanceled instead of finishing. Both executors poll it between
	// steps of the round script, never inside one, so a canceled run still
	// leaves the pooled engine state consistent and reusable. RunContext
	// wires a context.Context's Done channel here; long-haul callers (the
	// verification service) use it to stop paying for runs whose clients
	// have gone away.
	Cancel <-chan struct{}
	// RecordTranscript attaches a full message transcript to the Result.
	RecordTranscript bool
	// Transport, when non-nil, selects the networked executor: node-side
	// steps (challenges, digests, decisions) run wherever the transport's
	// far side hosts them — typically separate OS processes dialed by
	// internal/peer — while this process keeps the coordinator half: the
	// prover, the delivery funnel (validation, cost, corruption), and the
	// transcript. When nil, the sequential executor plays every node in
	// this goroutine. See the Transport interface for the contract that
	// makes the two executors bit-identical.
	Transport Transport
}

// validation errors returned by Run.
var (
	errNilGraph  = errors.New("network: nil graph")
	errNilSpec   = errors.New("network: nil spec")
	errNilDecide = errors.New("network: spec has no Decide function")
	// errNilProver is the cause inside the *RunError returned when a spec
	// with Merlin rounds is run without a prover (formerly a nil-interface
	// panic at the first Respond call).
	errNilProver = errors.New("nil Prover for a spec with Merlin rounds")
)

// validateSpec checks the structural validity of spec — a Decide function,
// a Challenge on every Arthur round, no invalid round kinds — and returns
// the index of the first Merlin round (-1 if the spec has none). It is the
// shared validation gate of Run and Schedule, so a spec a peer process
// accepts for hosting is exactly a spec the coordinator would run.
func validateSpec(spec *Spec) (firstMerlin int, err error) {
	if spec == nil {
		return -1, errNilSpec
	}
	if spec.Decide == nil {
		return -1, errNilDecide
	}
	firstMerlin = -1
	for i, r := range spec.Rounds {
		switch r.Kind {
		case Arthur:
			if r.Challenge == nil {
				return -1, fmt.Errorf("network: round %d is Arthur but has no Challenge", i)
			}
		case Merlin:
			if firstMerlin < 0 {
				firstMerlin = i
			}
		default:
			return -1, fmt.Errorf("network: round %d has invalid kind %d", i, r.Kind)
		}
	}
	return firstMerlin, nil
}

// Run executes the protocol described by spec on graph g with the given
// prover and per-node inputs (inputs may be nil for pure graph properties).
// It returns an error only for malformed specs or misbehaving prover
// *implementations* (wrong response shape); a cheating-but-well-formed
// prover yields a normal Result, typically with Accepted == false.
func Run(spec *Spec, g *graph.Graph, inputs []wire.Message, p Prover, opts Options) (*Result, error) {
	start := time.Now()
	defer func() { obs.RecordEngineRun(time.Since(start)) }()
	if g == nil {
		return nil, errNilGraph
	}
	n := g.N()
	if inputs != nil && len(inputs) != n {
		return nil, fmt.Errorf("network: %d inputs for %d nodes", len(inputs), n)
	}
	firstMerlin, err := validateSpec(spec)
	if err != nil {
		return nil, err
	}
	if p == nil && firstMerlin >= 0 {
		return nil, &RunError{Protocol: spec.Name, Phase: PhaseSetup,
			Round: firstMerlin, Node: -1, Err: errNilProver}
	}
	if n == 0 {
		return &Result{Accepted: true, Cost: Cost{}}, nil
	}

	s := acquireState()
	s.reset(spec, g, inputs, p, opts, n)
	var rerr *RunError
	if opts.Transport != nil {
		rerr = runNetworked(s)
	} else {
		rerr = runSequential(s)
	}
	if rerr != nil {
		s.release()
		return nil, rerr
	}
	res := s.finish()
	s.release()
	return res, nil
}

// RunContext is Run with a context.Context governing the whole run: a
// context that is already done fails immediately in PhaseCanceled, a
// cancellation mid-run aborts at the next step boundary (the context's
// Done channel is wired into Options.Cancel), and a context deadline
// additionally clamps Options.ProverTimeout to the remaining time, so a
// prover cannot sit on a single Respond call past the caller's budget.
// The verification service routes every request through here, which is
// how per-request HTTP deadlines reach the engine.
func RunContext(ctx context.Context, spec *Spec, g *graph.Graph, inputs []wire.Message, p Prover, opts Options) (*Result, error) {
	name := ""
	if spec != nil {
		name = spec.Name
	}
	if err := ctx.Err(); err != nil {
		return nil, &RunError{Protocol: name, Phase: PhaseCanceled, Round: -1, Node: -1, Err: err}
	}
	opts.Cancel = ctx.Done()
	if deadline, ok := ctx.Deadline(); ok {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, &RunError{Protocol: name, Phase: PhaseCanceled, Round: -1, Node: -1,
				Err: context.DeadlineExceeded}
		}
		if opts.ProverTimeout <= 0 || remain < opts.ProverTimeout {
			opts.ProverTimeout = remain
		}
	}
	return Run(spec, g, inputs, p, opts)
}
