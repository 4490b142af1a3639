// Package lower implements the computational side of the paper's Section
// 3.4 lower bound: Theorem 1.4, "any dAM protocol for Sym has length
// Ω(log log n)".
//
// The proof has four ingredients, each of which this package makes
// executable:
//
//  1. a large family F of asymmetric, pairwise non-isomorphic graphs
//     (Family enumerates it exactly for small sizes; FamilyLogSize gives
//     the asymptotic count);
//  2. the dumbbell construction G(F_A, F_B) with the key property that
//     G(F_A, F_B) ∈ Sym iff F_A = F_B (VerifySymmetryCriterion checks it
//     exhaustively);
//  3. the response-set semantics of simple protocols (Definition 6,
//     Lemmas 3.9–3.11): for each side graph F, the challenge induces a
//     distribution μ_A(F) over prover-response sets, and correctness
//     forces these distributions pairwise far apart in L1
//     (SimpleHashProtocol realizes a concrete simple protocol family, and
//     its matched-challenge disagreement measures the separation);
//  4. the packing bound (Lemma 3.12): at most 5^d distributions with
//     pairwise L1 distance > 1/2 fit in dimension d (PackingCapacity),
//     which combined with |F| = 2^Ω(n²) yields L = Ω(log log n)
//     (MinResponseBound tabulates the bound).
package lower

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/big"
	"math/rand"

	"dip/internal/graph"
	"dip/internal/stats"
)

// MaxFamilyVertices bounds the exact enumeration: beyond 7 vertices the
// 2^{m(m-1)/2} graph space is out of reach for a test-suite-friendly scan.
const MaxFamilyVertices = 6

// Family enumerates all connected asymmetric graphs on m vertices up to
// isomorphism, in a deterministic order. The smallest m with a non-empty
// family is 6 (asymmetric graphs do not exist on 2..5 vertices).
func Family(m int) ([]*graph.Graph, error) {
	if m < 1 || m > MaxFamilyVertices {
		return nil, fmt.Errorf("lower: family size %d outside [1, %d]", m, MaxFamilyVertices)
	}
	var reps []*graph.Graph
	edges := m * (m - 1) / 2
	total := 1 << uint(edges)
	for code := 0; code < total; code++ {
		g := graphFromCode(m, code)
		if !g.IsConnected() {
			continue
		}
		if graph.FindNontrivialAutomorphism(g) != nil {
			continue
		}
		fresh := true
		for _, r := range reps {
			if graph.AreIsomorphic(g, r) {
				fresh = false
				break
			}
		}
		if fresh {
			reps = append(reps, g)
		}
	}
	return reps, nil
}

// graphFromCode decodes an upper-triangle bitmask into a graph.
func graphFromCode(m, code int) *graph.Graph {
	g := graph.New(m)
	idx := 0
	for u := 0; u < m; u++ {
		for v := u + 1; v < m; v++ {
			if code&(1<<uint(idx)) != 0 {
				g.AddEdge(u, v)
			}
			idx++
		}
	}
	return g
}

// FamilyLogSize returns log2 of the asymptotic lower bound on |F(n)| used
// in the proof of Theorem 1.4: almost all of the 2^{C(n,2)} graphs are
// asymmetric, and each isomorphism class has at most n! members, so
// log2 |F| ≥ C(n,2) - log2(n!) ≥ C(n,2) - n·log2 n. Negative values are
// clamped to zero (tiny n).
func FamilyLogSize(n int) float64 {
	v := float64(n)*(float64(n)-1)/2 - float64(n)*math.Log2(float64(n))
	if v < 0 {
		return 0
	}
	return v
}

// VerifySymmetryCriterion checks, exhaustively over the family, the
// structural lemma the lower bound rests on: the dumbbell G(F_A, F_B) has a
// non-trivial automorphism iff F_A = F_B. It returns an error describing
// the first violation, if any.
func VerifySymmetryCriterion(family []*graph.Graph) error {
	for a, fa := range family {
		for b, fb := range family {
			g := graph.LowerBoundDumbbell(fa, fb)
			symmetric := graph.FindNontrivialAutomorphism(g) != nil
			if (a == b) != symmetric {
				return fmt.Errorf("lower: dumbbell (%d,%d): symmetric=%v, want %v",
					a, b, symmetric, a == b)
			}
		}
	}
	return nil
}

// SimpleHashProtocol is a concrete family of simple protocols (Definition
// 6) on the dumbbell graphs: the challenge is one of R equally likely
// values; the prover must hand both bridge nodes the same L-bit message m,
// and the bridge decision functions accept iff m equals a public hash of
// the (canonical form of the) side graph and the challenge. The sets
// M_A(F, r) of Lemma 3.8 are then singletons {hash_r(F)}, which makes every
// quantity of Section 3.4 exactly computable:
//
//   - OptimalAcceptance(F_A, F_B) is the best prover's acceptance
//     probability on G(F_A, F_B) (Lemma 3.9): the probability that the two
//     sides demand the same message;
//   - a protocol in the family decides Sym on the dumbbell family iff
//     OptimalAcceptance < 1/3 for every pair F_A ≠ F_B (completeness is
//     automatic: identical sides always agree).
type SimpleHashProtocol struct {
	// L is the response length in bits; the response domain is [2^L].
	L int
	// R is the number of distinct challenge values (2^ℓ for an ℓ-bit
	// challenge).
	R int
}

// Validate checks the parameters are usable.
func (p SimpleHashProtocol) Validate() error {
	if p.L < 1 || p.L > 16 {
		return fmt.Errorf("lower: response length %d outside [1,16]", p.L)
	}
	if p.R < 1 || p.R > 1<<20 {
		return fmt.Errorf("lower: challenge space %d outside [1, 2^20]", p.R)
	}
	return nil
}

// Side is a dumbbell side prepared for hashing: the canonical form of the
// graph is digested once, so that per-challenge message computation is
// constant time.
type Side struct {
	key uint64
}

// MakeSide digests a side graph. Isomorphic graphs digest identically.
func MakeSide(f *graph.Graph) Side {
	h := fnv.New64a()
	_, _ = h.Write([]byte(graph.CanonicalKey(f)))
	return Side{key: h.Sum64()}
}

// MakeSides digests a whole family.
func MakeSides(family []*graph.Graph) []Side {
	out := make([]Side, len(family))
	for i, f := range family {
		out[i] = MakeSide(f)
	}
	return out
}

// Message returns the message hash_r(F) ∈ [2^L] that both bridge nodes
// demand when the side graph is F and the challenge is r. It depends on F
// only through its isomorphism class.
func (p SimpleHashProtocol) Message(f Side, r int) uint64 {
	return stats.Mix64(f.key+0x9E3779B97F4A7C15*uint64(r+1)) & ((1 << uint(p.L)) - 1)
}

// OptimalAcceptance returns the best prover's probability of making every
// node of G(F_A, F_B) accept: by Lemma 3.9 this is exactly the probability
// that M_A(F_A, r) ∩ M_B(F_B, r) ≠ ∅, i.e. that the two singleton demands
// coincide at the same challenge.
func (p SimpleHashProtocol) OptimalAcceptance(fa, fb Side) float64 {
	agree := 0
	for r := 0; r < p.R; r++ {
		if p.Message(fa, r) == p.Message(fb, r) {
			agree++
		}
	}
	return float64(agree) / float64(p.R)
}

// MaxNoAcceptance returns the worst-case (largest) optimal-prover
// acceptance over all non-equal pairs in the family: the protocol's
// soundness error on the dumbbell family.
func (p SimpleHashProtocol) MaxNoAcceptance(sides []Side) float64 {
	worst := 0.0
	for a, fa := range sides {
		for b, fb := range sides {
			if a == b {
				continue
			}
			if acc := p.OptimalAcceptance(fa, fb); acc > worst {
				worst = acc
			}
		}
	}
	return worst
}

// MinPairwiseDisagreement returns the smallest matched-challenge
// disagreement rate between distinct family members: the probability, over
// the shared challenge, that the two sides demand different messages. For
// any protocol in this family, soundness error ε implies disagreement
// ≥ 1 - ε for every pair — the shared-randomness form of the Lemma 3.11
// separation (yes-pairs agree with probability 1, no-pairs must disagree
// with probability ≥ 2/3).
func (p SimpleHashProtocol) MinPairwiseDisagreement(sides []Side) float64 {
	best := math.Inf(1)
	for a, fa := range sides {
		for b, fb := range sides {
			if a >= b {
				continue
			}
			if d := 1 - p.OptimalAcceptance(fa, fb); d < best {
				best = d
			}
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// L1Distance returns ‖a − b‖₁.
func L1Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("lower: L1 of dimensions %d and %d", len(a), len(b)))
	}
	sum := 0.0
	for i := range a {
		sum += math.Abs(a[i] - b[i])
	}
	return sum
}

// PackingCapacity returns the Lemma 3.12 bound 5^d: the maximum number of
// distributions on [d] with pairwise L1 distance > 1/2.
func PackingCapacity(d int) *big.Int {
	return new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(d)), nil)
}

// MinResponseBound returns the Theorem 1.4 lower bound on the response
// length L of any dAM protocol for Sym on n-vertex-side dumbbells:
// the simple-protocol transform (Lemma 3.7) turns length L into 4L, the
// response-set domain has size d = 2^{2^{4L}}, and the packing bound forces
// 5^d ≥ |F(n)|, i.e.
//
//	L ≥ (1/4)·log2 log2 ( log2|F(n)| / log2 5 ).
//
// The returned value is the smallest non-negative integer satisfying the
// inequality; its Θ(log log n) growth is the content of the theorem.
func MinResponseBound(n int) int {
	logF := FamilyLogSize(n)
	if logF <= 0 {
		return 0
	}
	inner := logF / math.Log2(5)
	if inner <= 1 {
		return 0
	}
	mid := math.Log2(inner)
	if mid <= 1 {
		return 0
	}
	l := math.Log2(mid) / 4
	if l <= 0 {
		return 0
	}
	return int(math.Ceil(l))
}

// GreedyPacking empirically exercises Lemma 3.12: it samples `samples`
// uniform distributions on [d] (normalized exponential variates, i.e.
// uniform on the simplex) and greedily keeps each one whose L1 distance to
// every kept distribution exceeds 1/2. The lemma guarantees the resulting
// packing can never exceed 5^d, whatever the sampling or selection
// strategy; the experiment shows how quickly the greedy packing saturates
// far below that cap.
func GreedyPacking(d, samples int, rng *rand.Rand) int {
	if d < 1 {
		panic(fmt.Sprintf("lower: packing dimension %d < 1", d))
	}
	var kept [][]float64
	for s := 0; s < samples; s++ {
		mu := make([]float64, d)
		total := 0.0
		for i := range mu {
			mu[i] = rng.ExpFloat64()
			total += mu[i]
		}
		for i := range mu {
			mu[i] /= total
		}
		ok := true
		for _, nu := range kept {
			if L1Distance(mu, nu) <= 0.5 {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, mu)
		}
	}
	return len(kept)
}
