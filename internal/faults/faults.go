// Package faults is a deterministic, seed-derived library of composable
// message-fault injectors for testing verifier robustness: the soundness
// condition of the paper quantifies over *every* prover, so the test
// surface must include arbitrary deviations, not just the handcrafted
// cheaters in internal/core.
//
// An Injector rewrites one message delivery. Adapters compose injectors
// into the engine's two corruption hooks: Corruptor targets the
// prover→node plane (network.Options.Corrupt) and ExchangeCorruptor the
// node→node forward/digest plane (network.Options.CorruptExchange). All
// randomness is derived statelessly from (seed, plane, round, from, to),
// so a fault schedule is a pure function of the run seed and of each
// delivery's coordinates. The engine's one walk calls the hooks on the
// coordinator in one fixed order, whether the nodes play in-process or in
// peer processes, so both observe the identical schedule and stay
// bit-identical under injection (asserted by the engine-equivalence
// suite).
package faults

import (
	"math/rand"
	"sort"
	"sync"

	"dip/internal/network"
	"dip/internal/stats"
	"dip/internal/wire"
)

// Plane identifies which message plane a delivery belongs to.
type Plane string

const (
	// PlaneProver is the prover→node plane (Merlin responses).
	PlaneProver Plane = "prover"
	// PlaneExchange is the node→node plane (post-Merlin forwards/digests
	// and, under Spec.ShareChallenges, Arthur-round challenge exchanges).
	PlaneExchange Plane = "exchange"
)

// Context describes one message delivery to an Injector.
type Context struct {
	// Plane is the message plane of this delivery.
	Plane Plane
	// Round is the Merlin-round index on the prover plane and the spec
	// round index on the exchange plane (each plane's native coordinate —
	// the one the engine hands its corruptor).
	Round int
	// From is the sending node on the exchange plane and -1 on the prover
	// plane (the sender is the prover).
	From int
	// To is the receiving node.
	To int
	// Nodes is the number of nodes in the run.
	Nodes int
	// Seed is the adapter's base seed, exposed for injectors that need
	// randomness shared across deliveries (e.g. Equivocate's per-round
	// victim choice, which must not depend on To).
	Seed int64
}

// Injector rewrites one delivered message. rng is a private,
// deterministic stream for this delivery, derived from (Seed, Plane,
// Round, From, To) — two deliveries never share a stream, and the same
// delivery always sees the same stream regardless of engine or call
// order. Injectors must not mutate m.Data in place (the engine may
// deliver the same backing array to several receivers); they return
// either m unchanged or a fresh message.
type Injector func(rng *rand.Rand, ctx Context, m wire.Message) wire.Message

// BitFlip flips one uniformly random payload bit. Empty messages pass
// through.
func BitFlip() Injector {
	return func(rng *rand.Rand, _ Context, m wire.Message) wire.Message {
		if m.Bits <= 0 {
			return m
		}
		out := clone(m)
		i := rng.Intn(m.Bits)
		out.Data[i/8] ^= 1 << (uint(i) % 8)
		return out
	}
}

// Truncate keeps only the first half of the message's bits (a model of a
// cut-off transmission). Already-empty messages pass through.
func Truncate() Injector {
	return func(_ *rand.Rand, _ Context, m wire.Message) wire.Message {
		if m.Bits <= 0 {
			return m
		}
		nb := m.Bits / 2
		data := make([]byte, (nb+7)/8)
		copy(data, m.Data)
		return wire.Message{Data: data, Bits: nb}
	}
}

// Drop replaces the message with the empty message (a lost delivery; the
// engine model is synchronous, so "lost" means "arrived empty").
func Drop() Injector {
	return func(_ *rand.Rand, _ Context, m wire.Message) wire.Message {
		return wire.Empty
	}
}

// Replay delivers the message from the previous round on the same channel
// (same plane and (from, to) pair) instead of the current one; the first
// delivery on each channel passes through. Stateful: build a fresh
// injector per run. Rounds ascend on every channel, so "the previous
// round's message" is well defined whatever the order of calls across
// channels.
func Replay() Injector {
	type channel struct {
		plane    Plane
		from, to int
	}
	var mu sync.Mutex
	prev := make(map[channel]wire.Message)
	return func(_ *rand.Rand, ctx Context, m wire.Message) wire.Message {
		k := channel{ctx.Plane, ctx.From, ctx.To}
		mu.Lock()
		defer mu.Unlock()
		out, ok := prev[k]
		prev[k] = m
		if !ok {
			return m
		}
		return out
	}
}

// NodeSwap misdelivers prover messages by one position: node v receives
// the response addressed to node v-1 (node 0 keeps its own). A true
// pairwise swap is impossible inside a per-message corruptor — each
// delivery must be produced before the next message is seen — so the
// one-position shift is the canonical misrouting fault; it breaks any
// protocol whose per-node advice is node-specific. Prover plane only
// (exchange deliveries pass through: they are per directed edge, not one
// per node, so "node v-1's message" has no meaning there). Stateful:
// build a fresh injector per run. Relies on the engine contract that
// prover-plane corruptor calls ascend in node order within a round.
func NodeSwap() Injector {
	var mu sync.Mutex
	last := make(map[int]wire.Message) // per Merlin round
	return func(_ *rand.Rand, ctx Context, m wire.Message) wire.Message {
		if ctx.Plane != PlaneProver {
			return m
		}
		mu.Lock()
		defer mu.Unlock()
		out, ok := last[ctx.Round]
		last[ctx.Round] = m
		if !ok || ctx.To == 0 {
			return m
		}
		return out
	}
}

// Equivocate breaks broadcast consistency: per (round, sender) one victim
// node — chosen from (Seed, Plane, Round, From), never from To — receives
// a copy with one flipped bit while everyone else receives the original.
// This is exactly the cheat Definition 1's neighbor exchange exists to
// catch: "broadcast" is unicast plus neighbor comparison, and a message
// that differs at one receiver must surface as a neighbor mismatch. On
// the exchange plane the victim may not be a neighbor of the sender, in
// which case that sender's round is unaffected.
func Equivocate() Injector {
	return equivocate(0)
}

// EquivocateWithin is Equivocate restricted to the first width bits of
// each message. It exists for protocols whose decide procedure reads only
// a prefix (or subset) of each neighbor copy: plain Equivocate can land
// its flipped bit in positions the receiver never consumes, so "the fault
// is detected" is not a property such a protocol claims. Constraining the
// flip to a region every receiver provably reads (dsym-dam compares the
// leading echo field of every neighbor copy) restores the claim without
// weakening the fault — the sender still sends inconsistent copies.
func EquivocateWithin(width int) Injector {
	if width <= 0 {
		panic("faults: EquivocateWithin needs a positive width")
	}
	return equivocate(width)
}

// equivocate implements Equivocate and EquivocateWithin; limit <= 0 means
// the whole message is fair game.
func equivocate(limit int) Injector {
	return func(rng *rand.Rand, ctx Context, m wire.Message) wire.Message {
		if ctx.Nodes <= 0 || m.Bits <= 0 {
			return m
		}
		victim := int(deriveState(ctx.Seed, planeTag(ctx.Plane), uint64(ctx.Round), uint64(ctx.From+1), 0) % uint64(ctx.Nodes))
		if ctx.To != victim {
			return m
		}
		w := m.Bits
		if limit > 0 && limit < w {
			w = limit
		}
		out := clone(m)
		i := rng.Intn(w)
		out.Data[i/8] ^= 1 << (uint(i) % 8)
		return out
	}
}

// WithProbability applies inj to each delivery independently with
// probability p (drawn from the delivery's private stream, so the
// decision is deterministic per delivery). Note that gating a *stateful*
// injector (Replay, NodeSwap) this way skips its state updates on
// unselected deliveries; those injectors are meant to run at p = 1.
func WithProbability(p float64, inj Injector) Injector {
	return func(rng *rand.Rand, ctx Context, m wire.Message) wire.Message {
		if rng.Float64() >= p {
			return m
		}
		return inj(rng, ctx, m)
	}
}

// Corruptor composes inj into a network.Corruptor for the prover plane of
// an n-node run. seed selects the fault schedule; reusing the run seed
// ties the schedule to the trial.
func Corruptor(seed int64, n int, inj Injector) network.Corruptor {
	return func(merlinRound, node int, m wire.Message) wire.Message {
		ctx := Context{Plane: PlaneProver, Round: merlinRound, From: -1, To: node, Nodes: n, Seed: seed}
		return inj(deliveryRNG(ctx), ctx, m)
	}
}

// ExchangeCorruptor composes inj into a network.ExchangeCorruptor for the
// node→node plane of an n-node run. The derived randomness depends only
// on (seed, round, from, to), which satisfies the order-independence
// contract network.ExchangeCorruptor demands.
func ExchangeCorruptor(seed int64, n int, inj Injector) network.ExchangeCorruptor {
	return func(round, from, to int, m wire.Message) wire.Message {
		ctx := Context{Plane: PlaneExchange, Round: round, From: from, To: to, Nodes: n, Seed: seed}
		return inj(deliveryRNG(ctx), ctx, m)
	}
}

// Class is a named fault family, the unit the fault matrix and the CLIs
// select by. New returns a fresh injector because some classes (Replay,
// NodeSwap) carry per-run state.
type Class struct {
	// Name is the CLI-facing identifier, e.g. "bitflip".
	Name string
	// Planes lists the planes the class is meaningful on.
	Planes []Plane
	// New builds a fresh injector for one run.
	New func() Injector
}

var registry = map[string]Class{
	"bitflip":    {Name: "bitflip", Planes: []Plane{PlaneProver, PlaneExchange}, New: BitFlip},
	"truncate":   {Name: "truncate", Planes: []Plane{PlaneProver, PlaneExchange}, New: Truncate},
	"drop":       {Name: "drop", Planes: []Plane{PlaneProver, PlaneExchange}, New: Drop},
	"replay":     {Name: "replay", Planes: []Plane{PlaneProver, PlaneExchange}, New: Replay},
	"nodeswap":   {Name: "nodeswap", Planes: []Plane{PlaneProver}, New: NodeSwap},
	"equivocate": {Name: "equivocate", Planes: []Plane{PlaneProver, PlaneExchange}, New: Equivocate},
}

// ByName looks a fault class up by its CLI name.
func ByName(name string) (Class, bool) {
	c, ok := registry[name]
	return c, ok
}

// Names returns all class names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Supports reports whether the class is meaningful on plane p.
func (c Class) Supports(p Plane) bool {
	for _, q := range c.Planes {
		if q == p {
			return true
		}
	}
	return false
}

func clone(m wire.Message) wire.Message {
	return wire.Message{Data: append([]byte(nil), m.Data...), Bits: m.Bits}
}

// deliveryRNG derives the delivery's private stream. The state mixing is
// splitmix64, same family as the engine's node RNGs but over a disjoint
// key space (the engine never mixes a plane tag).
func deliveryRNG(ctx Context) *rand.Rand {
	src := stats.SplitMix(deriveState(ctx.Seed, planeTag(ctx.Plane), uint64(ctx.Round), uint64(ctx.From+1), uint64(ctx.To)))
	return rand.New(&src)
}

func planeTag(p Plane) uint64 {
	if p == PlaneExchange {
		return 2
	}
	return 1
}

// deriveState folds the delivery coordinates into one 64-bit state with
// the splitmix64 finalizer applied between words, so nearby coordinates
// yield unrelated streams.
func deriveState(seed int64, words ...uint64) uint64 {
	z := uint64(seed)
	for _, w := range words {
		z = stats.Mix64(z*0x9E3779B97F4A7C15 + w*0xBF58476D1CE4E5B9)
	}
	return z
}
