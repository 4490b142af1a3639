package lower

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"dip/internal/graph"
)

// family6 caches the 6-vertex family across tests (enumeration scans 2^15
// graphs).
var (
	family6     []*graph.Graph
	family6Once sync.Once
)

func getFamily6(t *testing.T) []*graph.Graph {
	t.Helper()
	family6Once.Do(func() {
		f, err := Family(6)
		if err != nil {
			t.Fatal(err)
		}
		family6 = f
	})
	if family6 == nil {
		t.Fatal("family enumeration failed earlier")
	}
	return family6
}

func TestFamilyValidation(t *testing.T) {
	if _, err := Family(0); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := Family(7); err == nil {
		t.Fatal("m beyond exact-enumeration bound accepted")
	}
}

func TestFamilyBelowSixIsTrivial(t *testing.T) {
	// The one-vertex graph is the only asymmetric graph below 6 vertices.
	for m := 2; m <= 5; m++ {
		f, err := Family(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(f) != 0 {
			t.Fatalf("m=%d: found %d asymmetric graphs, want 0", m, len(f))
		}
	}
	f1, err := Family(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1) != 1 {
		t.Fatalf("m=1: %d graphs, want 1 (K1)", len(f1))
	}
}

func TestFamilySix(t *testing.T) {
	fam := getFamily6(t)
	// There are exactly 8 asymmetric graphs on 6 vertices; the connected
	// ones among them number at least 6.
	if len(fam) < 6 || len(fam) > 8 {
		t.Fatalf("|F(6)| = %d, expected 6..8 connected asymmetric graphs", len(fam))
	}
	for i, f := range fam {
		if f.N() != 6 || !f.IsConnected() {
			t.Fatalf("member %d malformed", i)
		}
		if graph.FindNontrivialAutomorphism(f) != nil {
			t.Fatalf("member %d not asymmetric", i)
		}
		for j := i + 1; j < len(fam); j++ {
			if graph.AreIsomorphic(f, fam[j]) {
				t.Fatalf("members %d and %d isomorphic", i, j)
			}
		}
	}
}

func TestVerifySymmetryCriterion(t *testing.T) {
	fam := getFamily6(t)
	if err := VerifySymmetryCriterion(fam); err != nil {
		t.Fatal(err)
	}
}

func TestVerifySymmetryCriterionCatchesBadFamily(t *testing.T) {
	// A family containing two isomorphic graphs violates the criterion
	// when the isomorphism preserves the attachment vertex 0: then
	// G(F, σ(F)) is symmetric although the indices differ.
	fam := getFamily6(t)
	relabeled := fam[0].Relabel(mustPerm(t, []int{0, 2, 1, 3, 4, 5}))
	if relabeled.Equal(fam[0]) {
		t.Fatal("relabeling fixed the graph — not asymmetric?")
	}
	bad := []*graph.Graph{fam[0], relabeled}
	if err := VerifySymmetryCriterion(bad); err == nil {
		t.Fatal("isomorphic family members not detected")
	}
}

func mustPerm(t *testing.T, s []int) []int {
	t.Helper()
	return s
}

func TestFamilyLogSize(t *testing.T) {
	if FamilyLogSize(2) != 0 {
		t.Fatal("tiny n should clamp to 0")
	}
	// n=64: C(64,2) - 64·6 = 2016 - 384 = 1632.
	if got := FamilyLogSize(64); math.Abs(got-1632) > 1e-6 {
		t.Fatalf("FamilyLogSize(64) = %v", got)
	}
	if FamilyLogSize(128) <= FamilyLogSize(64) {
		t.Fatal("log size not growing")
	}
}

func TestSimpleHashProtocolValidate(t *testing.T) {
	if err := (SimpleHashProtocol{L: 2, R: 64}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []SimpleHashProtocol{{L: 0, R: 4}, {L: 20, R: 4}, {L: 2, R: 0}} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%+v accepted", bad)
		}
	}
}

func TestMessageIsIsomorphismInvariant(t *testing.T) {
	fam := getFamily6(t)
	p := SimpleHashProtocol{L: 3, R: 32}
	relabeled := MakeSide(fam[0].Relabel(mustPerm(t, []int{5, 4, 3, 2, 1, 0})))
	original := MakeSide(fam[0])
	for r := 0; r < p.R; r++ {
		if p.Message(original, r) != p.Message(relabeled, r) {
			t.Fatal("message differs across isomorphic graphs")
		}
	}
}

func TestCompletenessIsAutomatic(t *testing.T) {
	fam := getFamily6(t)
	p := SimpleHashProtocol{L: 2, R: 64}
	s := MakeSide(fam[0])
	if got := p.OptimalAcceptance(s, s); got != 1 {
		t.Fatalf("same-side acceptance %v, want 1", got)
	}
}

func TestSoundnessImprovesWithResponseLength(t *testing.T) {
	// The experiment behind E4: longer responses drive the optimal
	// cheating acceptance down (≈ 2^-L), exactly as Lemma 3.9 predicts,
	// and matched-challenge disagreement correspondingly up (the
	// shared-randomness form of Lemma 3.11).
	sides := MakeSides(getFamily6(t))
	prev := 1.0
	for _, L := range []int{1, 3, 6} {
		p := SimpleHashProtocol{L: L, R: 256}
		worst := p.MaxNoAcceptance(sides)
		if worst > prev+0.15 {
			t.Fatalf("L=%d: soundness error %v did not improve (prev %v)", L, worst, prev)
		}
		prev = worst
	}
	// At L = 6 the collision probability is ≈ 1/64 ≪ 1/3: a correct
	// protocol; every distinct pair must then disagree on ≥ 2/3 of the
	// challenges.
	p := SimpleHashProtocol{L: 6, R: 256}
	if worst := p.MaxNoAcceptance(sides); worst >= 1.0/3 {
		t.Fatalf("L=6 protocol not sound: %v", worst)
	}
	if d := p.MinPairwiseDisagreement(sides); d < 2.0/3 {
		t.Fatalf("correct protocol with pairwise disagreement %v < 2/3", d)
	}
}

func TestUnsound1BitProtocol(t *testing.T) {
	// With 1-bit responses the optimal cheater succeeds on about half the
	// challenges for some pair: the protocol cannot be sound — the L = 0..1
	// regime the packing bound rules out.
	sides := MakeSides(getFamily6(t))
	p := SimpleHashProtocol{L: 1, R: 256}
	if p.MaxNoAcceptance(sides) < 1.0/3 {
		t.Fatal("1-bit protocol claims soundness")
	}
}

func TestL1Distance(t *testing.T) {
	if got := L1Distance([]float64{1, 0}, []float64{0, 1}); got != 2 {
		t.Fatalf("L1 = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch accepted")
		}
	}()
	L1Distance([]float64{1}, []float64{1, 0})
}

func TestPackingCapacity(t *testing.T) {
	if PackingCapacity(1).Int64() != 5 || PackingCapacity(3).Int64() != 125 {
		t.Fatal("5^d wrong")
	}
}

func TestMinResponseBoundGrowth(t *testing.T) {
	// The bound must be Θ(log log n): non-decreasing, unbounded, tiny.
	prev := 0
	for _, n := range []int{8, 64, 1 << 10, 1 << 16, 1 << 24} {
		b := MinResponseBound(n)
		if b < prev {
			t.Fatalf("bound decreased at n=%d: %d < %d", n, b, prev)
		}
		prev = b
	}
	if MinResponseBound(4) != 0 {
		t.Fatal("tiny n should give 0")
	}
	if b := MinResponseBound(1 << 24); b < 1 {
		t.Fatal("bound never becomes positive")
	}
	if b := MinResponseBound(1 << 24); b > 4 {
		t.Fatalf("bound %d implausibly large for a log log", b)
	}
}

func TestGreedyPackingRespectsLemma312(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for _, d := range []int{1, 2, 3, 4} {
		got := GreedyPacking(d, 3000, rng)
		cap5d := PackingCapacity(d).Int64()
		if int64(got) > cap5d {
			t.Fatalf("d=%d: greedy packing %d exceeds 5^d = %d — Lemma 3.12 violated",
				d, got, cap5d)
		}
		if got < 1 {
			t.Fatalf("d=%d: empty packing", d)
		}
	}
	// On one point there is only one distribution.
	if got := GreedyPacking(1, 100, rng); got != 1 {
		t.Fatalf("d=1 packing = %d, want 1", got)
	}
	// Packings grow with dimension.
	small := GreedyPacking(2, 3000, rng)
	large := GreedyPacking(8, 3000, rng)
	if large <= small {
		t.Fatalf("packing did not grow with dimension: %d then %d", small, large)
	}
}

func TestGreedyPackingPanicsOnBadDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GreedyPacking(0, 10, rand.New(rand.NewSource(1)))
}
