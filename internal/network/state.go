package network

import (
	"math/rand"
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
	// Per-run wiring, set by reset and cleared by release.
	spec   *Spec
	g      *graph.Graph
	inputs []wire.Message
	prover Prover
	opts   Options
	n      int

	// script is the compiled schedule both executors interpret; reset
	// recompiles it into its own pooled buffers for every run.
	script script

	// nbrs is the adjacency snapshot: both executors route messages
	// exclusively through it, never through g after reset, which (a)
	// avoids per-exchange Neighbors allocations and (b) insulates verifier
	// decisions from a prover that violates the ProverView.Graph read-only
	// contract mid-run. adjFlat/adjOff are its pooled backing.
	nbrs    [][]int
	adjFlat []int
	adjOff  []int

	// Fresh per run (escape into the Result).
	cost       Cost
	transcript *Transcript
	decisions  []bool

	// pv is the prover's view; its Challenges rows are carved from the
	// pooled chalRows backing (row k = chalRows[k*n:(k+1)*n]), valid only
	// for the duration of the run — provers must not retain them.
	pv       ProverView
	chalRows []wire.Message

	// Per-node state: views plus their append backings (capacity-clipped
	// so an append can never cross into the next node's region), one
	// splitmix source per node, and the *rand.Rand wrappers. rngs[v]
	// points at &sources[v], so the two arrays grow together and a reused
	// Rand is re-seeded via Rand.Seed (which also resets the Rand's
	// buffered read state) — bit-identical to a freshly built nodeRNG.
	views       []NodeView
	sources     []splitmixSource
	rngs        []*rand.Rand
	myBack      []wire.Message
	respBack    []wire.Message
	nbrRespRows [][]wire.Message
	nbrChalRows [][]wire.Message

	// exBack holds every exchange's copies: exchange k's region is
	// exBack[k*len(adjFlat):], carved per receiver by adjOff, so a view's
	// neighbor row is positional like the adjacency snapshot.
	exBack []wire.Message

	// Scratch rows for the driver side of a Merlin round: the delivered
	// (post-corruption) messages and their digests.
	delivered []wire.Message
	forwards  []wire.Message

	// memo is the run's memo, shared by every view; release empties it.
	memo Memo

	// abandoned is set when a ProverTimeout expired: the abandoned Respond
	// goroutine may still reference this state, so release must drop it to
	// the garbage collector instead of pooling it.
	abandoned bool
}

// statePool is the explicit free list (see the file comment for why it is
// not a sync.Pool). It is shared by the whole process: the experiment
// harness's trial workers and the verification service's request workers
// all check states out of this pool, so a warm server recycles engine
// state across requests exactly like a warm harness recycles it across
// trials. A checkout holds the lock only to pop or push one pointer, next
// to a run of tens of microseconds or more, so one mutex serves every
// worker. Retained states stay bounded by cap.
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
	return &runState{}
}

// reset prepares the state for one run: compiles the script, takes the
// adjacency snapshot, sizes every pooled array for (spec, n), re-seeds the
// node RNGs, and allocates the run's fresh (escaping) pieces.
func (s *runState) reset(spec *Spec, g *graph.Graph, inputs []wire.Message, p Prover, opts Options, n int) {
	s.spec, s.g, s.inputs, s.prover, s.opts, s.n = spec, g, inputs, p, opts, n
	s.abandoned = false
	s.script.compile(spec)
	nA, nM := s.script.nA, s.script.nM

	s.cost = newCost(spec, n)
	s.transcript = nil
	if opts.RecordTranscript {
		s.transcript = &Transcript{Name: spec.Name}
	}
	s.decisions = make([]bool, n)

	// Adjacency snapshot: offsets first (appending may reallocate
	// adjFlat), then the capacity-clipped per-node headers.
	s.adjFlat = s.adjFlat[:0]
	s.adjOff = grow(s.adjOff, n+1)
	for v := 0; v < n; v++ {
		s.adjOff[v] = len(s.adjFlat)
		s.adjFlat = g.AppendNeighbors(v, s.adjFlat)
	}
	s.adjOff[n] = len(s.adjFlat)
	s.nbrs = grow(s.nbrs, n)
	for v := 0; v < n; v++ {
		lo, hi := s.adjOff[v], s.adjOff[v+1]
		s.nbrs[v] = s.adjFlat[lo:hi:hi]
	}

	s.chalRows = grow(s.chalRows, n*nA)
	s.myBack = grow(s.myBack, n*nA)
	s.respBack = grow(s.respBack, n*nM)
	s.nbrRespRows = grow(s.nbrRespRows, n*nM)
	if spec.ShareChallenges {
		s.nbrChalRows = grow(s.nbrChalRows, n*nA)
	}
	s.exBack = grow(s.exBack, s.script.nEx*len(s.adjFlat))
	s.delivered = grow(s.delivered, n)
	s.forwards = grow(s.forwards, n)

	s.pv.Graph = g
	s.pv.Inputs = inputs
	s.pv.Challenges = s.pv.Challenges[:0]

	// sources and rngs grow in lockstep: each Rand wraps &sources[v], so a
	// reallocation of sources must rebuild every Rand (and a non-grown
	// reuse must re-seed through Rand.Seed to also reset its buffered read
	// state — see rng.go for the shared seeding).
	if cap(s.sources) < n {
		s.sources = make([]splitmixSource, n)
		s.rngs = make([]*rand.Rand, n)
		for v := 0; v < n; v++ {
			s.sources[v] = nodeSource(opts.Seed, v)
			s.rngs[v] = rand.New(&s.sources[v])
		}
	} else {
		s.sources = s.sources[:n]
		s.rngs = s.rngs[:n]
		for v := 0; v < n; v++ {
			s.rngs[v].Seed(mix(opts.Seed, int64(v)))
		}
	}

	if cap(s.views) < n {
		s.views = make([]NodeView, n)
	} else {
		s.views = s.views[:n]
	}
	for v := 0; v < n; v++ {
		s.views[v] = NodeView{
			V:                 v,
			NumVertices:       n,
			Neighbors:         s.nbrs[v],
			MyChallenges:      s.myBack[v*nA : v*nA : (v+1)*nA],
			Responses:         s.respBack[v*nM : v*nM : (v+1)*nM],
			NeighborResponses: s.nbrRespRows[v*nM : v*nM : (v+1)*nM],
			Memo:              &s.memo,
		}
		if spec.ShareChallenges {
			s.views[v].NeighborChallenges = s.nbrChalRows[v*nA : v*nA : (v+1)*nA]
		}
		if inputs != nil {
			s.views[v].Input = inputs[v]
		}
	}
}

// release returns the state to the pool after dropping every per-run
// reference: caller data (spec, graph, prover, options with their
// injector closures), the escaping pieces (cost, decisions, transcript),
// the message headers of the finished run and the memo's entries — a
// pooled state must not pin another run's payloads alive, and the next
// run starts with an empty memo.
func (s *runState) release() {
	if s.abandoned {
		return // a timed-out prover goroutine may still hold this state
	}
	clear(s.chalRows)
	clear(s.myBack)
	clear(s.respBack)
	clear(s.nbrRespRows)
	clear(s.nbrChalRows)
	clear(s.exBack)
	clear(s.delivered)
	clear(s.forwards)
	s.memo.reset()
	for i := range s.pv.Challenges {
		s.pv.Challenges[i] = nil
	}
	s.pv.Challenges = s.pv.Challenges[:0]
	s.pv.Graph, s.pv.Inputs = nil, nil
	s.spec, s.g, s.inputs, s.prover = nil, nil, nil, nil
	s.opts = Options{}
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
