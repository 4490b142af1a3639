package experiments

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"sync"

	"dip/internal/core"
	"dip/internal/graph"
	"dip/internal/lower"
	"dip/internal/network"
	"dip/internal/perm"
	"dip/internal/prime"
	"dip/internal/wire"
)

// symInstance builds a connected symmetric graph on 2·base+2 vertices.
func symInstance(base int, rng *rand.Rand) (*graph.Graph, error) {
	core, err := graph.RandomAsymmetricConnected(base, rng)
	if err != nil {
		return nil, err
	}
	return graph.Doubled(core, 0), nil
}

// E1SymDMAMCost measures Theorem 1.1: Protocol 1 decides Sym with O(log n)
// bits per node. For each n it reports the exact per-node cost, the ratio
// to lg n, and estimated completeness / soundness.
func E1SymDMAMCost(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E1",
		Title:   "Sym ∈ dMAM[O(log n)] (Theorem 1.1, Protocol 1)",
		Columns: []string{"n", "bits/node", "bits/lg n", "completeness", "soundness(adv)"},
		Notes: []string{
			"bits/node = max over nodes of prover-communication bits (challenge included)",
			"soundness measured against the random-mapping adversary on asymmetric graphs",
			"paper: cost O(log n); completeness > 2/3; soundness error < 1/3",
		},
	}
	bases := []int{7, 15, 31, 63, 127}
	trials := cfg.TrialCount(DefaultTrials, 4)
	if cfg.Quick {
		bases = []int{7, 15}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for bi, base := range bases {
		g, err := symInstance(base, rng)
		if err != nil {
			return nil, err
		}
		n := g.N()
		proto, err := core.NewSymDMAM(n, cfg.Seed)
		if err != nil {
			return nil, err
		}

		honest, err := RunTrials(cfg, int64(1100+bi), trials, func(_ int, rng *rand.Rand) (*network.Result, error) {
			return proto.Run(g, proto.HonestProver(), rng.Int63())
		})
		if err != nil {
			return nil, err
		}
		bits := honest.Sample.Cost.MaxProverBits()

		// Soundness: asymmetric graph of the same size, cheating prover.
		asym, err := graph.RandomAsymmetricConnected(n, rng)
		if err != nil {
			return nil, err
		}
		cheat, err := RunTrials(cfg, int64(1200+bi), trials, func(_ int, rng *rand.Rand) (*network.Result, error) {
			return proto.Run(asym, proto.RandomMappingProver(rng), rng.Int63())
		})
		if err != nil {
			return nil, err
		}

		t.AddRow(n, bits,
			float64(bits)/math.Log2(float64(n)),
			honest.Estimate().String(),
			cheat.Estimate().String())
	}
	return t, nil
}

// E2SymDAMCost measures Theorem 1.3: Protocol 2 decides Sym with
// O(n log n) bits per node.
func E2SymDAMCost(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E2",
		Title:   "Sym ∈ dAM[O(n log n)] (Theorem 1.3, Protocol 2)",
		Columns: []string{"n", "bits/node", "bits/(n·lg n)", "completeness", "soundness(adv)"},
		Notes: []string{
			"the modulus p ∈ [10·n^{n+2}, 100·n^{n+2}] alone is Θ(n log n) bits",
			"paper: cost O(n log n)",
		},
	}
	bases := []int{6, 10, 16, 24}
	trials := cfg.TrialCount(DefaultTrials, 3)
	if cfg.Quick {
		bases = []int{6, 10}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	for bi, base := range bases {
		g, err := symInstance(base, rng)
		if err != nil {
			return nil, err
		}
		n := g.N()
		proto, err := core.NewSymDAM(n, cfg.Seed)
		if err != nil {
			return nil, err
		}
		honest, err := RunTrials(cfg, int64(2100+bi), trials, func(_ int, rng *rand.Rand) (*network.Result, error) {
			return proto.Run(g, proto.HonestProver(), rng.Int63())
		})
		if err != nil {
			return nil, err
		}
		bits := honest.Sample.Cost.MaxProverBits()
		asym, err := graph.RandomAsymmetricConnected(n, rng)
		if err != nil {
			return nil, err
		}
		cheat, err := RunTrials(cfg, int64(2200+bi), trials, func(_ int, rng *rand.Rand) (*network.Result, error) {
			rho := perm.RandomNonIdentity(n, rng)
			return proto.Run(asym, proto.ProverWithMapping(rho, rho.Moved()), rng.Int63())
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(n, bits,
			float64(bits)/(float64(n)*math.Log2(float64(n))),
			honest.Estimate().String(),
			cheat.Estimate().String())
	}
	return t, nil
}

// E14ModulusChoice asks whether Protocol 2's modulus needs randomness.
// NewSymDAM takes the least prime of [10·n^{n+2}, 100·n^{n+2}], a
// function of n alone; before, every instance drew a seed-keyed prime of
// the window. Theorem 3.2 bounds a collision of two distinct matrices by
// n²/p over the random hash index alone, for every prime p, so the choice
// of prime should move no rate. E14 runs sym-dam's honest prover, E2's
// wrong-mapping prover and the post-hoc collision search under the per-n
// prime and under a fresh seed-keyed prime per trial, each beside its
// bound. The post-hoc search runs at n = 6, the smallest n with an
// asymmetric connected graph, where p is smallest and budget·n²/p largest.
func E14ModulusChoice(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "Protocol 2's modulus: the least prime per n vs a seed-keyed prime per trial (Theorem 3.2)",
		Columns: []string{"prover", "n", "modulus", "lg p", "acceptance", "Theorem 3.2 bound"},
		Notes: []string{
			"per n: the least prime ≥ 10·n^{n+2}, NewSymDAM's modulus; seed-keyed: prime.InWindow from a fresh seed each trial, the modulus before it",
			"bounds: the honest prover always convinces; a fixed wrong mapping collides with probability ≤ n²/p, a post-hoc search over B mappings with ≤ B·n²/p (the least p of the row)",
			"every prime of the window has n^n·n²/p ≤ 1/10, the paper's union bound; the least prime is the window's worst case",
		},
	}
	bases := []int{6, 31}
	trials := cfg.TrialCount(DefaultTrials, 20)
	budget := 600
	if cfg.Quick {
		bases = []int{6}
		budget = 100
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 14))

	// measure runs one prover on g under the per-n prime (cells salt) and
	// under a fresh seed-keyed prime per trial (salt+50), one row each.
	measure := func(prover string, g *graph.Graph, salt int64, bound func(p *big.Int) string,
		run func(dam *core.SymDAM, rng *rand.Rand) (*network.Result, error)) error {
		n := g.N()
		perN, err := core.NewSymDAM(n, cfg.Seed)
		if err != nil {
			return err
		}
		st, err := RunTrials(cfg, salt, trials, func(_ int, rng *rand.Rand) (*network.Result, error) {
			return run(perN, rng)
		})
		if err != nil {
			return err
		}
		t.AddRow(prover, n, "least prime (per n)", wire.WidthForBig(perN.P()), st.Estimate().String(), bound(perN.P()))

		lo, hi, err := prime.PowerWindow(n)
		if err != nil {
			return err
		}
		var mu sync.Mutex
		var least, most *big.Int
		st, err = RunTrials(cfg, salt+50, trials, func(_ int, rng *rand.Rand) (*network.Result, error) {
			p, err := prime.InWindow(lo, hi, rng.Int63())
			if err != nil {
				return nil, err
			}
			mu.Lock()
			if least == nil || p.Cmp(least) < 0 {
				least = p
			}
			if most == nil || p.Cmp(most) > 0 {
				most = p
			}
			mu.Unlock()
			dam, err := core.NewSymDAMWithPrime(n, p)
			if err != nil {
				return nil, err
			}
			return run(dam, rng)
		})
		if err != nil {
			return err
		}
		widths := fmt.Sprint(wire.WidthForBig(least))
		if w := wire.WidthForBig(most); w != wire.WidthForBig(least) {
			widths += fmt.Sprintf("–%d", w)
		}
		t.AddRow(prover, n, "seed-keyed, fresh per trial", widths, st.Estimate().String(), bound(least))
		return nil
	}
	// atMost formats the bound k·n²/p.
	atMost := func(k, n int) func(p *big.Int) string {
		return func(p *big.Int) string {
			r, _ := new(big.Float).Quo(new(big.Float).SetInt64(int64(k*n*n)), new(big.Float).SetInt(p)).Float64()
			return fmt.Sprintf("≤ %.1e", r)
		}
	}
	complete := func(*big.Int) string { return "= 1" }

	for bi, base := range bases {
		g, err := symInstance(base, rng)
		if err != nil {
			return nil, err
		}
		n := g.N()
		if err := measure("honest", g, int64(14100+bi), complete, func(dam *core.SymDAM, rng *rand.Rand) (*network.Result, error) {
			return dam.Run(g, dam.HonestProver(), rng.Int63())
		}); err != nil {
			return nil, err
		}
		asym, err := graph.RandomAsymmetricConnected(n, rng)
		if err != nil {
			return nil, err
		}
		if err := measure("wrong mapping", asym, int64(14200+bi), atMost(1, n), func(dam *core.SymDAM, rng *rand.Rand) (*network.Result, error) {
			rho := perm.RandomNonIdentity(n, rng)
			return dam.Run(asym, dam.ProverWithMapping(rho, rho.Moved()), rng.Int63())
		}); err != nil {
			return nil, err
		}
	}
	small, err := graph.RandomAsymmetricConnected(6, rng)
	if err != nil {
		return nil, err
	}
	if err := measure(fmt.Sprintf("post-hoc search (budget %d)", budget), small, 14300, atMost(budget, small.N()),
		func(dam *core.SymDAM, rng *rand.Rand) (*network.Result, error) {
			return dam.Run(small, dam.PostHocCollisionProver(budget, rng), rng.Int63())
		}); err != nil {
		return nil, err
	}
	return t, nil
}

// E3Separation measures Theorem 1.2: on DSym instances, the dAM protocol
// costs O(log n) bits while the locally-checkable-proof baseline needs
// Θ(n²); the ratio grows without bound — the exponential separation.
func E3Separation(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E3",
		Title:   "Exponential NP vs AM separation on DSym (Theorem 1.2)",
		Columns: []string{"n", "dAM bits/node", "LCP advice bits", "ratio LCP/dAM"},
		Notes: []string{
			"LCP baseline: full adjacency matrix + mapping at every node (Θ(n²); optimal by [17])",
			"both verified to accept their honest provers on the same instance",
		},
	}
	sides := []int{6, 12, 24, 48, 96}
	if cfg.Quick {
		sides = []int{6, 12}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	const half = 1
	for _, side := range sides {
		f := graph.ConnectedGNP(side, 0.5, rng)
		g := graph.DSymGraph(f, half)
		n := g.N()

		proto, err := core.NewDSymDAM(side, half, cfg.Seed)
		if err != nil {
			return nil, err
		}
		res, err := proto.Run(g, proto.HonestProver(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		if !res.Accepted {
			return nil, fmt.Errorf("E3: dAM rejected a DSym instance (side=%d)", side)
		}
		damBits := res.Cost.MaxProverBits()

		lcp, err := core.NewSymLCP(n)
		if err != nil {
			return nil, err
		}
		lres, err := lcp.Run(g, lcp.HonestProver(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		if !lres.Accepted {
			return nil, fmt.Errorf("E3: LCP rejected a symmetric instance (side=%d)", side)
		}
		lcpBits := lcp.AdviceBits()

		t.AddRow(n, damBits, lcpBits, float64(lcpBits)/float64(damBits))
	}
	return t, nil
}

// E4Packing runs the computational side of Theorem 1.4: it verifies the
// dumbbell symmetry criterion exhaustively on the 6-vertex family, sweeps
// the response length of the concrete simple-protocol family (soundness
// error ≈ 2^-L, matched-challenge disagreement ≥ 2/3 once sound), and
// tabulates the packing lower bound L = Ω(log log n).
func E4Packing(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Packing lower bound machinery (Theorem 1.4, Section 3.4)",
		Columns: []string{"quantity", "value"},
	}
	fam, err := lower.Family(6)
	if err != nil {
		return nil, err
	}
	t.AddRow("|F(6)| (connected asymmetric graphs on 6 vertices, up to iso)", len(fam))
	if err := lower.VerifySymmetryCriterion(fam); err != nil {
		return nil, fmt.Errorf("E4: %w", err)
	}
	t.AddRow(fmt.Sprintf("dumbbell criterion Sym(G(F_A,F_B)) ⟺ F_A=F_B (%d pairs)", len(fam)*len(fam)), "verified")

	sidesList := lower.MakeSides(fam)
	R := 4096
	if cfg.Quick {
		R = 512
	}
	for _, L := range []int{1, 2, 3, 6} {
		p := lower.SimpleHashProtocol{L: L, R: R}
		worst := p.MaxNoAcceptance(sidesList)
		dis := p.MinPairwiseDisagreement(sidesList)
		verdict := "unsound"
		if worst < 1.0/3 {
			verdict = "sound"
		}
		t.AddRow(fmt.Sprintf("simple protocol L=%d: max cheat acceptance / min disagreement", L),
			fmt.Sprintf("%.3f / %.3f (%s)", worst, dis, verdict))
	}

	for _, n := range []int{64, 1 << 10, 1 << 16, 1 << 24, 1 << 30} {
		t.AddRow(fmt.Sprintf("Theorem 1.4 bound: min response length at n=%d", n),
			lower.MinResponseBound(n))
	}
	packRng := rand.New(rand.NewSource(cfg.Seed + 4))
	for _, d := range []int{2, 3, 4} {
		got := lower.GreedyPacking(d, 4000, packRng)
		t.AddRow(fmt.Sprintf("Lemma 3.12 check: greedy 1/2-separated packing in dim %d (cap 5^%d = %v)",
			d, d, lower.PackingCapacity(d)), got)
	}
	t.Notes = append(t.Notes,
		"Lemma 3.12 capacity 5^d with d = 2^{2^{4L}} vs |F(n)| = 2^{Ω(n²)} forces L = Ω(log log n)",
		"the sweep shows soundness appears once 2^-L < 1/3 and disagreement ≥ 2/3 follows (Lemma 3.11)",
	)
	return t, nil
}

// E5GNI measures Theorem 1.5: acceptance separation and per-node cost of
// the distributed Goldwasser–Sipser protocol.
func E5GNI(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "GNI ∈ dAMAM[O(n log n)] (Theorem 1.5, Goldwasser–Sipser)",
		Columns: []string{"n", "k", "yes accept", "no accept", "bits/node", "bits/(k·n·lg n)"},
		Notes: []string{
			"yes = non-isomorphic pair (accept wanted); no = isomorphic pair (reject wanted)",
			"the optimal cheater on no-instances IS the honest search (success ⟺ preimage exists)",
		},
	}
	type pt struct{ n, k int }
	points := []pt{{6, 80}, {7, 60}}
	trials := cfg.TrialCount(DefaultTrials, 6)
	if cfg.Quick {
		points = []pt{{6, 24}}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	for pi, p := range points {
		proto, err := core.NewGNIDAMAM(p.n, p.k, cfg.Seed)
		if err != nil {
			return nil, err
		}
		yes, err := core.NewGNIYesInstance(p.n, rng)
		if err != nil {
			return nil, err
		}
		no, err := core.NewGNINoInstance(p.n, rng)
		if err != nil {
			return nil, err
		}
		run := func(inst *core.GNIInstance, salt int64) (TrialStats, error) {
			return RunTrials(cfg, salt, trials, func(_ int, rng *rand.Rand) (*network.Result, error) {
				return proto.Run(inst.G0, inst.G1, proto.HonestProver(), rng.Int63())
			})
		}
		yesStats, err := run(yes, int64(5100+pi))
		if err != nil {
			return nil, err
		}
		noStats, err := run(no, int64(5200+pi))
		if err != nil {
			return nil, err
		}
		bits := yesStats.Sample.Cost.MaxProverBits()
		norm := float64(bits) / (float64(p.k) * float64(p.n) * math.Log2(float64(p.n)))
		t.AddRow(p.n, p.k,
			yesStats.Estimate().String(),
			noStats.Estimate().String(),
			bits, norm)
	}
	return t, nil
}
