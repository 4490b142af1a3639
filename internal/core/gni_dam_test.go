package core

import (
	"math/rand"
	"testing"

	"dip/internal/network"
	"dip/internal/wire"
)

func TestGNIDAMValidation(t *testing.T) {
	if _, err := NewGNIDAM(2, 5, 0); err == nil {
		t.Fatal("n=2 accepted")
	}
	if _, err := NewGNIDAM(6, 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewGNIDAM(maxHashedVertices+1, 1, 0); err == nil {
		t.Fatal("n above the search bound accepted")
	}
	proto, err := NewGNIDAM(6, 12, 0)
	if err != nil {
		t.Fatal(err)
	}
	if proto.N() != 6 || proto.K() != 12 {
		t.Fatal("accessors wrong")
	}
	if th := proto.Threshold(); th < 1 || th > 12 {
		t.Fatalf("threshold %d", th)
	}
}

func TestGNIDAMSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("GNI separation is slow")
	}
	rng := rand.New(rand.NewSource(50))
	proto, err := NewGNIDAM(6, 40, 50)
	if err != nil {
		t.Fatal(err)
	}
	yes, err := NewGNIYesInstance(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	no, err := NewGNINoInstance(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	run := func(inst *GNIInstance, seed0 int64, trials int) float64 {
		accepts := 0
		for i := 0; i < trials; i++ {
			res, err := proto.Run(inst.G0, inst.G1, proto.HonestProver(), seed0+int64(i))
			if err != nil {
				t.Fatal(err)
			}
			if res.Accepted {
				accepts++
			}
		}
		return float64(accepts) / float64(trials)
	}
	yesRate := run(yes, 100, 10)
	noRate := run(no, 200, 10)
	t.Logf("one-exchange GNI: yes %.2f, no %.2f", yesRate, noRate)
	if yesRate <= 1.0/3 {
		t.Fatalf("yes rate %.2f too low", yesRate)
	}
	if noRate >= 1.0/3 {
		t.Fatalf("no rate %.2f too high", noRate)
	}
}

func TestGNIDAMIsOneExchange(t *testing.T) {
	proto, err := NewGNIDAM(6, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := proto.Spec()
	if len(spec.Rounds) != 2 {
		t.Fatalf("round count = %d, want 2 (one AM exchange)", len(spec.Rounds))
	}
	if spec.Rounds[0].Kind != network.Arthur || spec.Rounds[1].Kind != network.Merlin {
		t.Fatal("rounds not Arthur, Merlin")
	}
}

func TestGNIDAMNonPermutationRejected(t *testing.T) {
	// Corrupt the broadcast σ into a non-permutation: every node's local
	// validity check must fire.
	rng := rand.New(rand.NewSource(51))
	proto, err := NewGNIDAM(6, 3, 51)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewGNIYesInstance(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Find a run where at least one repetition succeeded, then corrupt the
	// first σ entry of every node's message identically (so broadcast
	// consistency still holds but σ becomes non-bijective or wrong).
	corrupt := func(round, node int, m wire.Message) wire.Message {
		if m.Bits == 0 {
			return m
		}
		out := wire.Message{Data: append([]byte(nil), m.Data...), Bits: m.Bits}
		// Flip a bit in the area where the first successful rep's σ lives
		// (past success bit + b bit + seed echo). The exact field hit
		// varies, but identical corruption across nodes preserves
		// broadcast consistency while breaking a verified value.
		pos := 2 + proto.echoBits() + 1
		if pos < out.Bits {
			out.Data[pos/8] ^= 1 << (uint(pos) % 8)
		}
		return out
	}
	rejected := false
	for seed := int64(0); seed < 6 && !rejected; seed++ {
		res, err := network.Run(proto.Spec(), inst.G0, EncodeGNIInputs(inst.G1),
			proto.HonestProver(), network.Options{Seed: seed, Corrupt: corrupt})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Accepted {
			rejected = true
		}
	}
	if !rejected {
		t.Fatal("corrupted σ broadcast never rejected")
	}
}

func TestGNIDAMCostComparableToDAMAM(t *testing.T) {
	// The round reduction must not blow up the cost: same asymptotics,
	// and in absolute terms the one-exchange variant stays within 2x.
	rng := rand.New(rand.NewSource(52))
	inst, err := NewGNIYesInstance(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewGNIDAM(6, 6, 52)
	if err != nil {
		t.Fatal(err)
	}
	two, err := NewGNIDAMAM(6, 6, 52)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := one.Run(inst.G0, inst.G1, one.HonestProver(), 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := two.Run(inst.G0, inst.G1, two.HonestProver(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b1, b2 := r1.Cost.MaxProverBits(), r2.Cost.MaxProverBits()
	if b1 > 2*b2 {
		t.Fatalf("one-exchange cost %d vs two-exchange %d: more than 2x", b1, b2)
	}
	t.Logf("bits/node: one-exchange %d, two-exchange %d", b1, b2)
}
