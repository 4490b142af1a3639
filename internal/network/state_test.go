package network

import (
	"errors"
	"sync"
	"testing"

	"dip/internal/graph"
)

// TestPooledStateBitIdentical interleaves runs of different protocols,
// graph sizes, and node sides so that every run after the first executes on a
// recycled runState, and requires each repeat of a configuration to be
// bit-identical to its first (pool-cold) execution. This is the contract
// that makes pooling invisible: reset must leave no residue from the
// previous tenant.
func TestPooledStateBitIdentical(t *testing.T) {
	type cfg struct {
		name string
		spec *Spec
		g    *graph.Graph
		seed int64
		// networked runs over a fresh loopTransport per run.
		networked bool
	}
	cfgs := []cfg{
		{"echo-cycle6", echoSpec(16), graph.Cycle(6), 7, false},
		{"echo-cycle6-net", echoSpec(16), graph.Cycle(6), 7, true},
		{"digest-complete5", digestSpec(), graph.Complete(5), 11, false},
		{"echo-cycle12", echoSpec(32), graph.Cycle(12), 3, false},
	}
	run := func(c cfg) (*Result, error) {
		opts := Options{Seed: c.seed}
		if c.networked {
			opts.Transport = &loopTransport{}
		}
		return Run(c.spec, c.g, nil, echoProver{}, opts)
	}
	first := make([]*Result, len(cfgs))
	for i, c := range cfgs {
		res, err := run(c)
		if err != nil {
			t.Fatalf("%s: first run failed: %v", c.name, err)
		}
		first[i] = res
	}
	// Every run below reuses pooled state left by the runs above, after
	// intervening tenants of different shapes (larger and smaller n,
	// different round counts) have stretched and shrunk the buffers.
	for pass := 0; pass < 3; pass++ {
		for i, c := range cfgs {
			res, err := run(c)
			if err != nil {
				t.Fatalf("%s: pooled run failed: %v", c.name, err)
			}
			resultsIdentical(t, c.name, first[i], res)
		}
	}
}

// TestResultSurvivesPoolReuse checks the retention contract documented on
// Result: everything reachable from a returned Result is freshly
// allocated, so holding one across later runs (as the experiment harness
// does with sampled trials) must not see its contents change.
func TestResultSurvivesPoolReuse(t *testing.T) {
	g := graph.Cycle(8)
	opts := Options{Seed: 42, RecordTranscript: true}
	held, err := Run(echoSpec(24), g, nil, echoProver{}, opts)
	if err != nil {
		t.Fatalf("held run failed: %v", err)
	}
	// Deep-copy the fields we will compare after the pool is churned.
	wantTo := append([]int(nil), held.Cost.ToProver...)
	wantFrom := append([]int(nil), held.Cost.FromProver...)
	wantN2N := append([]int(nil), held.Cost.NodeToNode...)
	wantDec := append([]bool(nil), held.Decisions...)
	var wantBytes [][]byte
	for _, r := range held.Transcript.Rounds {
		for _, m := range r.PerNode {
			wantBytes = append(wantBytes, append([]byte(nil), m.Data...))
		}
	}

	// Churn the pool with runs that would overwrite any shared backing.
	for i := 0; i < 5; i++ {
		if _, err := Run(digestSpec(), graph.Complete(9), nil, echoProver{},
			Options{Seed: int64(100 + i), RecordTranscript: true}); err != nil {
			t.Fatalf("churn run %d failed: %v", i, err)
		}
	}

	for v := range wantTo {
		if held.Cost.ToProver[v] != wantTo[v] ||
			held.Cost.FromProver[v] != wantFrom[v] ||
			held.Cost.NodeToNode[v] != wantN2N[v] {
			t.Fatalf("node %d: held Cost mutated by later runs", v)
		}
	}
	for v := range wantDec {
		if held.Decisions[v] != wantDec[v] {
			t.Fatalf("node %d: held Decision mutated by later runs", v)
		}
	}
	i := 0
	for _, r := range held.Transcript.Rounds {
		for _, m := range r.PerNode {
			for j := range m.Data {
				if m.Data[j] != wantBytes[i][j] {
					t.Fatalf("held Transcript mutated by later runs")
				}
			}
			i++
		}
	}
}

// TestProverErrorDoesNotPoison exercises the failure path: a run that
// aborts mid-protocol releases its state back to the pool, and the next
// run on that state must be clean.
func TestProverErrorDoesNotPoison(t *testing.T) {
	g := graph.Cycle(6)
	bad := proverFunc(func(int, *ProverView) (*Response, error) {
		return nil, errors.New("prover gave up")
	})
	if _, err := Run(echoSpec(16), g, nil, bad, Options{Seed: 1}); err == nil {
		t.Fatalf("bad prover: expected error")
	}
	res, err := Run(echoSpec(16), g, nil, echoProver{}, Options{Seed: 1})
	if err != nil {
		t.Fatalf("run after failed run: %v", err)
	}
	if !res.Accepted {
		t.Fatalf("run after failed run rejected")
	}
}

// TestConcurrentPoolBitIdentical checks the pooling contract under
// contention: 8 goroutines share one small pool, every concurrent run stays
// bit-identical to its pool-cold execution, and the pool retains no more
// than its capacity.
func TestConcurrentPoolBitIdentical(t *testing.T) {
	prev := SetStatePoolCapacity(8)
	t.Cleanup(func() { SetStatePoolCapacity(prev) })

	g := graph.Cycle(10)
	spec := echoSpec(24)
	opts := Options{Seed: 5}
	want, err := Run(spec, g, nil, echoProver{}, opts)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}

	const workers, iters = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := Run(spec, g, nil, echoProver{}, opts)
				if err != nil {
					errs <- err
					return
				}
				for v := range want.Decisions {
					if res.Decisions[v] != want.Decisions[v] ||
						res.Cost.ToProver[v] != want.Cost.ToProver[v] ||
						res.Cost.FromProver[v] != want.Cost.FromProver[v] ||
						res.Cost.NodeToNode[v] != want.Cost.NodeToNode[v] {
						errs <- errMismatch
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent pooled run: %v", err)
	}

	st := StatePoolStats()
	if st.Free > st.Capacity {
		t.Fatalf("pool leaked: %d free > %d capacity", st.Free, st.Capacity)
	}
	if st.Hits+st.Misses < workers*iters+1 {
		t.Fatalf("pool under-counted: %d hits + %d misses for %d runs",
			st.Hits, st.Misses, workers*iters+1)
	}
}

var errMismatch = errors.New("pooled result differs from cold run")

// TestSetStatePoolCapacityRoundTrip pins SetStatePoolCapacity's return
// contract: each call returns the capacity the previous one configured,
// and n <= 0 restores the default.
func TestSetStatePoolCapacityRoundTrip(t *testing.T) {
	orig := SetStatePoolCapacity(0)
	t.Cleanup(func() { SetStatePoolCapacity(orig) })
	if prev := SetStatePoolCapacity(48); prev != defaultPoolCap {
		t.Fatalf("first resize returned %d, want default %d", prev, defaultPoolCap)
	}
	if prev := SetStatePoolCapacity(0); prev != 48 {
		t.Fatalf("second resize returned %d, want 48", prev)
	}
	st := StatePoolStats()
	if st.Capacity != defaultPoolCap {
		t.Fatalf("capacity %d after restore, want %d", st.Capacity, defaultPoolCap)
	}
}
