package faults

import (
	"bytes"
	"math/rand"
	"testing"

	"dip/internal/wire"
)

func msg(bits int, fill byte) wire.Message {
	data := make([]byte, (bits+7)/8)
	for i := range data {
		data[i] = fill
	}
	return wire.Message{Data: data, Bits: bits}
}

func ctxAt(plane Plane, round, from, to int) Context {
	return Context{Plane: plane, Round: round, From: from, To: to, Nodes: 8, Seed: 42}
}

// countBitDiff returns the number of differing payload bits.
func countBitDiff(a, b wire.Message) int {
	if a.Bits != b.Bits {
		return -1
	}
	diff := 0
	for i := 0; i < a.Bits; i++ {
		ba := a.Data[i/8] >> (uint(i) % 8) & 1
		bb := b.Data[i/8] >> (uint(i) % 8) & 1
		if ba != bb {
			diff++
		}
	}
	return diff
}

func TestBitFlipFlipsExactlyOneBit(t *testing.T) {
	inj := BitFlip()
	m := msg(37, 0xA5)
	ctx := ctxAt(PlaneProver, 0, -1, 3)
	out := inj(deliveryRNG(ctx), ctx, m)
	if d := countBitDiff(m, out); d != 1 {
		t.Fatalf("bit diff = %d, want 1", d)
	}
	// The input must not have been mutated in place.
	if !bytes.Equal(m.Data, msg(37, 0xA5).Data) {
		t.Fatal("BitFlip mutated its input")
	}
	// Same delivery coordinates → same flip.
	out2 := inj(deliveryRNG(ctx), ctx, m)
	if !bytes.Equal(out.Data, out2.Data) {
		t.Fatal("BitFlip is not deterministic per delivery")
	}
	// Empty messages pass through untouched.
	if got := inj(deliveryRNG(ctx), ctx, wire.Empty); got.Bits != 0 || len(got.Data) != 0 {
		t.Fatalf("BitFlip on empty = %+v", got)
	}
}

func TestTruncateHalves(t *testing.T) {
	inj := Truncate()
	m := msg(33, 0xFF)
	out := inj(nil, ctxAt(PlaneProver, 0, -1, 0), m)
	if out.Bits != 16 || len(out.Data) != 2 {
		t.Fatalf("truncated to Bits=%d len=%d, want 16/2", out.Bits, len(out.Data))
	}
	if got := inj(nil, ctxAt(PlaneProver, 0, -1, 0), wire.Empty); got.Bits != 0 {
		t.Fatalf("Truncate on empty = %+v", got)
	}
}

func TestDropEmpties(t *testing.T) {
	out := Drop()(nil, ctxAt(PlaneProver, 0, -1, 0), msg(64, 0x12))
	if out.Bits != 0 || len(out.Data) != 0 {
		t.Fatalf("Drop = %+v, want empty", out)
	}
}

func TestReplayDeliversPreviousRound(t *testing.T) {
	inj := Replay()
	m0, m1, m2 := msg(8, 0x01), msg(8, 0x02), msg(8, 0x03)
	// Channel (prover→node 2): first delivery passes through, later ones lag
	// one round behind.
	if out := inj(nil, ctxAt(PlaneProver, 0, -1, 2), m0); !bytes.Equal(out.Data, m0.Data) {
		t.Fatalf("round 0: got % x", out.Data)
	}
	if out := inj(nil, ctxAt(PlaneProver, 1, -1, 2), m1); !bytes.Equal(out.Data, m0.Data) {
		t.Fatalf("round 1: got % x, want replay of round 0", out.Data)
	}
	if out := inj(nil, ctxAt(PlaneProver, 2, -1, 2), m2); !bytes.Equal(out.Data, m1.Data) {
		t.Fatalf("round 2: got % x, want replay of round 1", out.Data)
	}
	// A different channel (other receiver) has independent history.
	if out := inj(nil, ctxAt(PlaneProver, 1, -1, 3), m1); !bytes.Equal(out.Data, m1.Data) {
		t.Fatalf("fresh channel: got % x, want pass-through", out.Data)
	}
}

func TestNodeSwapShiftsByOne(t *testing.T) {
	inj := NodeSwap()
	msgs := []wire.Message{msg(8, 0x10), msg(8, 0x20), msg(8, 0x30)}
	// Prover plane, ascending node order (the engine contract): node 0
	// keeps its own, node v>0 receives node v-1's message.
	for v := 0; v < 3; v++ {
		out := inj(nil, ctxAt(PlaneProver, 0, -1, v), msgs[v])
		want := msgs[v]
		if v > 0 {
			want = msgs[v-1]
		}
		if !bytes.Equal(out.Data, want.Data) {
			t.Fatalf("node %d: got % x, want % x", v, out.Data, want.Data)
		}
	}
	// Exchange plane passes through.
	out := inj(nil, ctxAt(PlaneExchange, 0, 1, 2), msgs[2])
	if !bytes.Equal(out.Data, msgs[2].Data) {
		t.Fatal("NodeSwap touched the exchange plane")
	}
}

func TestEquivocateSingleVictim(t *testing.T) {
	inj := Equivocate()
	m := msg(40, 0x55)
	victims := 0
	for to := 0; to < 8; to++ {
		ctx := ctxAt(PlaneProver, 0, -1, to)
		out := inj(deliveryRNG(ctx), ctx, m)
		switch d := countBitDiff(m, out); d {
		case 0:
		case 1:
			victims++
		default:
			t.Fatalf("to=%d: diff=%d", to, d)
		}
	}
	if victims != 1 {
		t.Fatalf("victims = %d, want exactly 1", victims)
	}
}

func TestCombinators(t *testing.T) {
	m := msg(16, 0x0F)
	ctx := ctxAt(PlaneProver, 1, -1, 4)
	if out := WithProbability(0, Drop())(deliveryRNG(ctx), ctx, m); out.Bits != m.Bits {
		t.Fatal("p=0 applied the injector")
	}
	if out := WithProbability(1, Drop())(deliveryRNG(ctx), ctx, m); out.Bits != 0 {
		t.Fatal("p=1 skipped the injector")
	}
}

// TestExchangeCorruptorOrderIndependent pins the contract the concurrent
// engine relies on: per-delivery output depends only on the coordinates,
// not on global call order.
func TestExchangeCorruptorOrderIndependent(t *testing.T) {
	type delivery struct{ round, from, to int }
	var deliveries []delivery
	for round := 0; round < 3; round++ {
		for from := 0; from < 5; from++ {
			for to := 0; to < 5; to++ {
				if from != to {
					deliveries = append(deliveries, delivery{round, from, to})
				}
			}
		}
	}
	m := msg(48, 0xC3)
	forward := ExchangeCorruptor(7, 5, BitFlip())
	backward := ExchangeCorruptor(7, 5, BitFlip())
	got := make(map[delivery]wire.Message, len(deliveries))
	for _, d := range deliveries {
		got[d] = forward(d.round, d.from, d.to, m)
	}
	for i := len(deliveries) - 1; i >= 0; i-- {
		d := deliveries[i]
		if out := backward(d.round, d.from, d.to, m); !bytes.Equal(out.Data, got[d].Data) {
			t.Fatalf("delivery %+v differs under reversed call order", d)
		}
	}
}

// TestCorruptorSeedSensitivity: different seeds give different fault
// schedules (statistically — over 64 deliveries at least one flip must
// land elsewhere).
func TestCorruptorSeedSensitivity(t *testing.T) {
	m := msg(128, 0x00)
	a := Corruptor(1, 8, BitFlip())
	b := Corruptor(2, 8, BitFlip())
	same := true
	for v := 0; v < 8; v++ {
		for r := 0; r < 8; r++ {
			if !bytes.Equal(a(r, v, m).Data, b(r, v, m).Data) {
				same = false
			}
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 produced identical fault schedules")
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"bitflip", "drop", "equivocate", "nodeswap", "replay", "truncate"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names()[%d] = %q, want %q", i, names[i], n)
		}
		c, ok := ByName(n)
		if !ok || c.Name != n || c.New == nil {
			t.Fatalf("ByName(%q) = %+v, %v", n, c, ok)
		}
		if c.New() == nil {
			t.Fatalf("class %q built a nil injector", n)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName accepted an unknown class")
	}
	swap, _ := ByName("nodeswap")
	if swap.Supports(PlaneExchange) {
		t.Fatal("nodeswap claims exchange-plane support")
	}
	if !swap.Supports(PlaneProver) {
		t.Fatal("nodeswap lost prover-plane support")
	}
}

// TestInjectorsNeverProduceMalformedMessages: whatever an injector emits
// must satisfy the wire invariant len(Data) == ceil(Bits/8) — the engine
// validates prover messages against it, and corrupted messages flow into
// decoders that assume it.
func TestInjectorsNeverProduceMalformedMessages(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, name := range Names() {
		c, _ := ByName(name)
		inj := c.New()
		for trial := 0; trial < 50; trial++ {
			bits := rng.Intn(70)
			m := msg(bits, byte(rng.Intn(256)))
			ctx := Context{Plane: PlaneProver, Round: trial % 3, From: -1, To: trial % 8, Nodes: 8, Seed: 9}
			out := inj(deliveryRNG(ctx), ctx, m)
			if out.Bits < 0 || len(out.Data) != (out.Bits+7)/8 {
				t.Fatalf("%s: malformed output Bits=%d len=%d", name, out.Bits, len(out.Data))
			}
		}
	}
}

func TestEquivocateWithinPrefixOnly(t *testing.T) {
	const width = 9
	inj := EquivocateWithin(width)
	m := msg(64, 0x55)
	// Over many (round, from) pairs, every flipped bit must land inside
	// the first `width` bits, the victim choice must match Equivocate's
	// (same derivation), and exactly one receiver per pair is hit.
	for round := 0; round < 4; round++ {
		for from := 0; from < 8; from++ {
			victims := 0
			for to := 0; to < 8; to++ {
				ctx := ctxAt(PlaneExchange, round, from, to)
				out := inj(deliveryRNG(ctx), ctx, m)
				d := countBitDiff(m, out)
				if d == 0 {
					continue
				}
				if d != 1 {
					t.Fatalf("round=%d from=%d to=%d: diff=%d", round, from, to, d)
				}
				victims++
				for i := width; i < m.Bits; i++ {
					if out.Data[i/8]>>(uint(i)%8)&1 != m.Data[i/8]>>(uint(i)%8)&1 {
						t.Fatalf("round=%d from=%d: flipped bit %d beyond width %d", round, from, i, width)
					}
				}
				// The generic injector must pick the same victim: the
				// width limit narrows the flip position, not the target.
				if d := countBitDiff(m, Equivocate()(deliveryRNG(ctx), ctx, m)); d != 1 {
					t.Fatalf("round=%d from=%d to=%d: generic Equivocate disagrees on victim", round, from, to)
				}
			}
			if victims != 1 {
				t.Fatalf("round=%d from=%d: victims=%d, want 1", round, from, victims)
			}
		}
	}
	// Width beyond the message length degrades to the full-message flip:
	// over all receivers, exactly one copy differs by exactly one bit.
	wide := EquivocateWithin(1 << 20)
	victims := 0
	for to := 0; to < 8; to++ {
		ctx := ctxAt(PlaneExchange, 0, 2, to)
		switch d := countBitDiff(m, wide(deliveryRNG(ctx), ctx, m)); d {
		case 0:
		case 1:
			victims++
		default:
			t.Fatalf("oversized width, to=%d: diff=%d", to, d)
		}
	}
	if victims != 1 {
		t.Fatalf("oversized width: victims=%d, want 1", victims)
	}
}
