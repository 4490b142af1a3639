package core

import (
	"math/rand"
	"testing"

	"dip/internal/network"
	"dip/internal/wire"
)

// gniAcceptRate runs the protocol `trials` times on the instance and
// returns the acceptance frequency.
func gniAcceptRate(t *testing.T, proto *GNIDAMAM, inst *GNIInstance, trials int, seed0 int64) float64 {
	t.Helper()
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

func TestGNIParamsValidation(t *testing.T) {
	if _, err := NewGNIDAMAM(2, 5, 0); err == nil {
		t.Fatal("n=2 accepted")
	}
	if _, err := NewGNIDAMAM(6, 0, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewGNIDAMAM(maxHashedVertices+1, 1, 0); err == nil {
		t.Fatal("n above the search bound accepted")
	}
	proto, err := NewGNIDAMAM(6, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if proto.N() != 6 || proto.K() != 10 {
		t.Fatal("accessors wrong")
	}
	yes, no := proto.SingleShotBounds()
	if !(0 < no && no < yes && yes < 1) {
		t.Fatalf("single-shot bounds (%.3f, %.3f) not ordered", yes, no)
	}
	if th := proto.Threshold(); th < 1 || th > 10 {
		t.Fatalf("threshold %d out of range", th)
	}
}

func TestGNIEncodeInputsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	inst, err := NewGNIYesInstance(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	inputs := EncodeGNIInputs(inst.G1)
	for v := 0; v < 6; v++ {
		open, err := decodeGNIInput(inputs[v], 6)
		if err != nil {
			t.Fatal(err)
		}
		if len(open) != inst.G1.Degree(v) {
			t.Fatalf("node %d: decoded %d neighbors, degree %d",
				v, len(open), inst.G1.Degree(v))
		}
		for _, u := range open {
			if !inst.G1.HasEdge(v, u) {
				t.Fatalf("node %d: phantom neighbor %d", v, u)
			}
		}
	}
}

func TestGNISeparation(t *testing.T) {
	// The heart of Theorem 1.5: non-isomorphic pairs must be accepted
	// noticeably more often than isomorphic pairs, with the threshold
	// between them. Uses small n and few trials to stay fast; the full
	// experiment with confidence intervals is E5 in the bench harness.
	if testing.Short() {
		t.Skip("GNI separation is slow")
	}
	rng := rand.New(rand.NewSource(2))
	proto, err := NewGNIDAMAM(6, 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	yesInst, err := NewGNIYesInstance(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	noInst, err := NewGNINoInstance(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	const trials = 12
	yesRate := gniAcceptRate(t, proto, yesInst, trials, 100)
	noRate := gniAcceptRate(t, proto, noInst, trials, 200)
	t.Logf("yes rate %.2f, no rate %.2f (threshold %d/%d)",
		yesRate, noRate, proto.Threshold(), proto.K())
	if yesRate <= 1.0/3 {
		t.Fatalf("yes-instance acceptance %.2f too low", yesRate)
	}
	if noRate >= 1.0/3 {
		t.Fatalf("no-instance acceptance %.2f too high", noRate)
	}
}

func TestGNICostIsNearLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	proto, err := NewGNIDAMAM(6, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewGNIYesInstance(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := proto.Run(inst.G0, inst.G1, proto.HonestProver(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Whatever the acceptance outcome, cost is measured. Per node, per
	// repetition, the dominant term is the seed echo: n·⌈SeedBits/n⌉ bits.
	// Sanity bound: ≤ 40·k·n·log n bits.
	n, k := 6, 2
	logn := wire.WidthFor(n)
	if got := res.Cost.MaxProverBits(); got > 40*k*n*logn {
		t.Fatalf("MaxProverBits = %d, want O(k·n log n) = %d·40", got, k*n*logn)
	}
	if got := res.Cost.MaxProverBits(); got == 0 {
		t.Fatal("no communication measured")
	}
}

func TestGNITamperingWithSeedEchoRejected(t *testing.T) {
	// A prover that flips one bit of the seed echo is caught by the node
	// whose slice was altered (or by broadcast consistency).
	rng := rand.New(rand.NewSource(5))
	proto, err := NewGNIDAMAM(6, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewGNIYesInstance(6, rng)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(round, node int, m wire.Message) wire.Message {
		if round != 0 || node != 2 || m.Bits == 0 {
			return m
		}
		out := wire.Message{Data: append([]byte(nil), m.Data...), Bits: m.Bits}
		out.Data[0] ^= 0x02 // flips the b-bit/seed area of the first claim
		return out
	}
	res, err := network.Run(proto.Spec(), inst.G0, EncodeGNIInputs(inst.G1),
		proto.HonestProver(), network.Options{Seed: 6, Corrupt: corrupt})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("tampered run accepted")
	}
}

func TestGNIInstanceGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	yes, err := NewGNIYesInstance(7, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !yes.NonIsomorphic {
		t.Fatal("yes-instance mislabeled")
	}
	no, err := NewGNINoInstance(7, rng)
	if err != nil {
		t.Fatal(err)
	}
	if no.NonIsomorphic {
		t.Fatal("no-instance mislabeled")
	}
	if yes.G0.N() != 7 || yes.G1.N() != 7 {
		t.Fatal("wrong sizes")
	}
}
