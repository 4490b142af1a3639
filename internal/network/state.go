package network

import (
	"sync"

	"dip/internal/graph"
	"dip/internal/obs"
	"dip/internal/wire"
)

// This file is the run-state layer: everything one run needs, gathered in
// a single pooled object. The experiment harness executes hundreds of
// trials per cell (experiments.RunTrials), and before this layer existed
// every trial re-allocated its node views, view backing arrays, RNGs,
// exchange buffers, and adjacency snapshot from scratch. A runState keeps all
// of that and is reused through an explicit free list.
//
// What is pooled and what is not follows one rule: anything reachable from
// the returned *Result is freshly allocated per run (Cost's backing,
// Decisions, the Transcript and its rows), because callers retain results
// — experiments.TrialStats.Sample is read long after its trial finished.
// Everything only reachable during the run (views, RNG state, exchange
// copies, scratch rows, the ProverView's challenge rows) is pooled.
//
// The free list is a plain mutex-guarded LIFO with a fixed cap rather than
// a sync.Pool: sync.Pool empties on GC, which would make the engine's
// allocations per run depend on GC timing — and the recorded
// allocs-per-op figure in BENCH_seed1.json (and the bench-check gate over
// it) requires run costs to be deterministic.

type runState struct {
	// Host is the node half of the run: every node's view, RNG and
	// backing arrays, the compiled script the walk interprets, and the
	// run's memo. It also serves the pool's other client, a node host
	// behind a Transport (AcquireHost).
	Host

	// Per-run wiring, set by reset and cleared by release.
	g      *graph.Graph
	inputs []wire.Message
	prover Prover
	opts   Options

	// The adjacency snapshot: the Host's nbrs are adjRows, carved from
	// adjFlat by adjOff. The walk routes messages exclusively through
	// it, never through g after reset, which (a) avoids per-exchange
	// Neighbors allocations and (b) insulates verifier decisions from a
	// prover that violates the ProverView.Graph read-only contract
	// mid-run.
	adjFlat []int
	adjOff  []int
	adjRows [][]int

	// Fresh per run (escape into the Result).
	cost       Cost
	transcript *Transcript
	decisions  []bool

	// pv is the prover's view; its Challenges rows are carved from the
	// pooled chalRows backing (row k = chalRows[k*n:(k+1)*n]), valid only
	// for the duration of the run — provers must not retain them.
	pv       ProverView
	chalRows []wire.Message

	// exBack holds every exchange's post-funnel copies: exchange k's
	// region is exBack[k*len(adjFlat):], positional like the adjacency
	// snapshot. In-process, the views' neighbor rows are carved from it.
	exBack []wire.Message

	// Scratch rows for the driver side of a Merlin round: the delivered
	// (post-corruption) messages and their digests.
	delivered []wire.Message
	forwards  []wire.Message

	// remote is the node side of a run over Options.Transport.
	remote transportSide

	// abandoned is set when a ProverTimeout expired: the abandoned Respond
	// goroutine may still reference this state, so release must drop it to
	// the garbage collector instead of pooling it.
	abandoned bool
}

// statePool is the explicit free list (see the file comment for why it is
// not a sync.Pool). It is shared by the whole process: the experiment
// harness's trial workers, the verification service's request workers and
// a peer's sessions (AcquireHost) all check states out of this pool, so a
// warm server recycles engine state across requests exactly like a warm
// harness recycles it across trials. A checkout holds the lock only to
// pop or push one pointer, next to a run of tens of microseconds or more,
// so one mutex serves every worker. Retained states stay bounded by cap.
var statePool struct {
	mu   sync.Mutex
	free []*runState
	cap  int
	// hits are checkouts served from the list, misses are checkouts that
	// found it empty and allocated, drops are releases discarded because
	// the list was full.
	hits, misses, drops int64
}

const defaultPoolCap = 32

func init() { statePool.cap = defaultPoolCap }

// PoolStats is a snapshot of the engine-state pool, exported for service
// metrics: a hit ratio near 1 means steady-state traffic runs
// allocation-free through the pool.
type PoolStats struct {
	Capacity int   `json:"capacity"`
	Free     int   `json:"free"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Drops    int64 `json:"drops"`
}

// StatePoolStats returns the current pool snapshot.
func StatePoolStats() PoolStats {
	p := &statePool
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Capacity: p.cap, Free: len(p.free), Hits: p.hits, Misses: p.misses, Drops: p.drops}
}

// SetStatePoolCapacity resizes the pool and returns the previous
// capacity. Long-running servers size it to their engine concurrency so a
// full complement of in-flight runs can recycle state without allocating;
// n <= 0 restores the default. Shrinking drops the excess retained states
// immediately.
func SetStatePoolCapacity(n int) int {
	if n <= 0 {
		n = defaultPoolCap
	}
	p := &statePool
	p.mu.Lock()
	defer p.mu.Unlock()
	prev := p.cap
	p.cap = n
	if len(p.free) > n {
		clear(p.free[n:])
		p.free = p.free[:n]
	}
	return prev
}

// acquireState pops a pooled state, or builds an empty one when the pool
// is empty.
func acquireState() *runState {
	p := &statePool
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.hits++
		p.mu.Unlock()
		return s
	}
	p.misses++
	p.mu.Unlock()
	s := &runState{}
	s.Host.state = s
	return s
}

// reset prepares the state for one run: takes the adjacency snapshot,
// resets the Host for all n nodes (which compiles the script and re-seeds
// the node RNGs), sizes the walk's pooled rows for (spec, n), and
// allocates the run's fresh (escaping) pieces.
func (s *runState) reset(spec *Spec, g *graph.Graph, inputs []wire.Message, p Prover, opts Options, n int) {
	s.g, s.inputs, s.prover, s.opts = g, inputs, p, opts
	s.abandoned = false

	s.cost = newCost(spec, n)
	s.transcript = nil
	if opts.RecordTranscript {
		s.transcript = &Transcript{Name: spec.Name}
	}
	s.decisions = make([]bool, n)

	// Adjacency snapshot: offsets first (appending may reallocate
	// adjFlat), then the capacity-clipped per-node rows.
	s.adjFlat = s.adjFlat[:0]
	s.adjOff = grow(s.adjOff, n+1)
	for v := 0; v < n; v++ {
		s.adjOff[v] = len(s.adjFlat)
		s.adjFlat = g.AppendNeighbors(v, s.adjFlat)
	}
	s.adjOff[n] = len(s.adjFlat)
	s.adjRows = grow(s.adjRows, n)
	for v := 0; v < n; v++ {
		lo, hi := s.adjOff[v], s.adjOff[v+1]
		s.adjRows[v] = s.adjFlat[lo:hi:hi]
	}
	s.Host.reset(spec, n, opts.Seed, nil, s.adjRows, inputs)

	s.chalRows = grow(s.chalRows, n*s.script.nA)
	s.exBack = grow(s.exBack, s.script.nEx*len(s.adjFlat))
	s.delivered = grow(s.delivered, n)
	s.forwards = grow(s.forwards, n)

	s.pv.Graph = g
	s.pv.Inputs = inputs
	s.pv.Challenges = s.pv.Challenges[:0]
	s.pv.Memo = &s.memo
}

// release returns the state to the pool after dropping every per-run
// reference: caller data (spec, graph, prover, options with their
// injector closures, the transport), the escaping pieces (cost,
// decisions, transcript), the message headers of the finished run and the
// memo's entries — a pooled state must not pin another run's payloads
// alive, and the next run starts with an empty memo. A Host checked out
// alone comes back through here too, with the walk's rows already empty.
func (s *runState) release() {
	if s.abandoned {
		return // a timed-out prover goroutine may still hold this state
	}
	s.Host.clear()
	clear(s.chalRows)
	clear(s.exBack)
	clear(s.delivered)
	clear(s.forwards)
	for i := range s.pv.Challenges {
		s.pv.Challenges[i] = nil
	}
	s.pv.Challenges = s.pv.Challenges[:0]
	s.pv.Graph, s.pv.Inputs = nil, nil
	s.g, s.inputs, s.prover = nil, nil, nil
	s.opts = Options{}
	s.remote.s, s.remote.t = nil, nil
	s.cost = Cost{}
	s.transcript = nil
	s.decisions = nil

	p := &statePool
	p.mu.Lock()
	if len(p.free) < p.cap {
		p.free = append(p.free, s)
	} else {
		p.drops++
	}
	p.mu.Unlock()
}

// finish assembles the Result of a completed run and publishes the
// funnel's delivery meters to the process-global obs counters — once per
// run, from the charge totals, so the per-delivery hot path stays free of
// atomics.
func (s *runState) finish() *Result {
	accepted := true
	for _, d := range s.decisions {
		accepted = accepted && d
	}
	bits := 0
	for v := 0; v < s.n; v++ {
		bits += s.cost.ToProver[v] + s.cost.FromProver[v] + s.cost.NodeToNode[v]
	}
	count := s.n*(s.script.nA+s.script.nM) + s.script.nEx*len(s.adjFlat)
	obs.RecordDeliveries(int64(count), int64(bits))
	return &Result{
		Accepted:   accepted,
		Decisions:  s.decisions,
		Cost:       s.cost,
		Transcript: s.transcript,
	}
}

// grow resizes a pooled slice to length n, reallocating only when
// capacity is exhausted. Stale contents beyond a previous, shorter run
// are unreachable (release zeroed them).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
