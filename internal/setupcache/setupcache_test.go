package setupcache

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"dip/internal/graph"
)

func TestDoCachesAndVerifies(t *testing.T) {
	c := New("test-basic", 16)
	key := Key{Kind: "k", A: 1}
	builds := 0
	build := func() (any, error) { builds++; return builds, nil }

	v, err := c.Do(key, nil, build)
	if err != nil || v.(int) != 1 {
		t.Fatalf("first Do: %v %v", v, err)
	}
	v, _ = c.Do(key, nil, build)
	if v.(int) != 1 || builds != 1 {
		t.Fatalf("second Do rebuilt: v=%v builds=%d", v, builds)
	}

	// A rejecting verifier (digest collision) forces a rebuild but serves
	// the fresh value uncached, leaving the incumbent in place.
	v, _ = c.Do(key, func(any) bool { return false }, build)
	if v.(int) != 2 || builds != 2 {
		t.Fatalf("collision path: v=%v builds=%d", v, builds)
	}
	v, _ = c.Do(key, nil, build)
	if v.(int) != 1 {
		t.Fatalf("incumbent evicted by collision: %v", v)
	}
}

func TestDoBuildErrorNotCached(t *testing.T) {
	c := New("test-err", 16)
	boom := errors.New("boom")
	if _, err := c.Do(Key{Kind: "k"}, nil, func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Fatalf("error cached: len %d", c.Len())
	}
	v, err := c.Do(Key{Kind: "k"}, nil, func() (any, error) { return "ok", nil })
	if err != nil || v != "ok" {
		t.Fatalf("recovery: %v %v", v, err)
	}
}

// TestEvictionBounded fills a cache well past its bound and requires it to
// hold, and to report, exactly its capacity, with no rounding of odd
// bounds such as 12.
func TestEvictionBounded(t *testing.T) {
	for _, capacity := range []int{16, 12} {
		t.Run(fmt.Sprint(capacity), func(t *testing.T) {
			c := New(fmt.Sprintf("test-evict-%d", capacity), capacity)
			t.Cleanup(c.Reset) // the meter outlives c under -count
			for i := 0; i < capacity*4; i++ {
				k := Key{Kind: "k", A: int64(i)}
				if _, err := c.Do(k, nil, func() (any, error) { return i, nil }); err != nil {
					t.Fatal(err)
				}
			}
			if n := c.Len(); n != capacity {
				t.Fatalf("cache holds %d entries, want capacity %d", n, capacity)
			}
			if got := c.meter.Capacity.Value(); got != int64(capacity) {
				t.Fatalf("meter reports capacity %d, want %d", got, capacity)
			}
			if got := c.meter.Size.Value(); got != int64(capacity) {
				t.Fatalf("meter reports size %d, want %d", got, capacity)
			}
		})
	}
}

// TestEvictionFIFO: keys that are never hit leave in insertion order.
// Each insert past the bound evicts exactly the oldest key and keeps every
// later one, for three rounds of the ring.
func TestEvictionFIFO(t *testing.T) {
	const capacity = 12
	c := New("test-fifo", capacity)
	t.Cleanup(c.Reset)
	for i := 0; i < 4*capacity; i++ {
		if _, err := c.Do(Key{Kind: "k", A: int64(i)}, nil, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
		for j := 0; j <= i; j++ {
			_, ok := c.index[Key{Kind: "k", A: int64(j)}]
			if want := j > i-capacity; ok != want {
				t.Fatalf("after inserting key %d: key %d cached = %v, want %v", i, j, ok, want)
			}
		}
	}
}

// TestHitEntrySurvivesColdInserts: a key hit between insertions is never
// evicted, however many cold keys are inserted after it; the cold keys
// still leave oldest first, the cache never holds more than its capacity,
// and every eviction is metered.
func TestHitEntrySurvivesColdInserts(t *testing.T) {
	const capacity = 8
	c := New("test-second-chance", capacity)
	t.Cleanup(c.Reset)
	hot := Key{Kind: "hot"}
	builds := 0
	buildHot := func() (any, error) { builds++; return "hot", nil }
	if _, err := c.Do(hot, nil, buildHot); err != nil {
		t.Fatal(err)
	}
	evictions := c.meter.Evictions.Value()
	const cold = 50 * capacity
	for i := 0; i < cold; i++ {
		if _, err := c.Do(Key{Kind: "cold", A: int64(i)}, nil, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
		if v, err := c.Do(hot, nil, buildHot); err != nil || v != "hot" {
			t.Fatalf("hot key: %v %v", v, err)
		}
		if n := c.Len(); n > capacity {
			t.Fatalf("cache holds %d entries, capacity %d", n, capacity)
		}
		// The hot key and the capacity-1 latest cold keys.
		for j := 0; j <= i; j++ {
			_, ok := c.index[Key{Kind: "cold", A: int64(j)}]
			if want := j > i-capacity+1; ok != want {
				t.Fatalf("after cold insert %d: cold key %d cached = %v, want %v", i, j, ok, want)
			}
		}
	}
	if builds != 1 {
		t.Fatalf("hot key built %d times, want once", builds)
	}
	if got, want := c.meter.Evictions.Value()-evictions, int64(cold-(capacity-1)); got != want {
		t.Fatalf("%d evictions metered, want %d", got, want)
	}
	if got := c.meter.Size.Value(); got != capacity {
		t.Fatalf("meter reports size %d, want %d", got, capacity)
	}
}

// TestDoConcurrent runs hits, misses and evictions from eight goroutines
// at once: ten keys share four slots, so hits set reference bits while
// the clock hand clears them and refills slots (run it under -race).
func TestDoConcurrent(t *testing.T) {
	c := New("test-conc", 4)
	t.Cleanup(c.Reset)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{Kind: "k", A: int64(i % 10)}
				v, err := c.Do(k, nil, func() (any, error) { return k.A, nil })
				if err != nil || v.(int64) != k.A {
					t.Errorf("worker %d: %v %v", w, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestForGraphSharesAndVerifies(t *testing.T) {
	ResetAll()
	g := graph.Cycle(8)
	a1 := ForGraph(g)
	a2 := ForGraph(graph.Cycle(8)) // equal content, distinct object
	if a1 != a2 {
		t.Fatal("equal graphs got distinct artifact bundles")
	}
	if a1.g == g {
		t.Fatal("artifact aliases the caller's graph")
	}

	rho := a1.Automorphism()
	if rho == nil {
		t.Fatal("cycle reported rigid")
	}
	rho[0] = -1 // mutate the returned copy
	if again := a1.Automorphism(); again[0] == -1 {
		t.Fatal("returned automorphism aliases the memo")
	}

	adv, err := a1.SpanTree(3)
	if err != nil {
		t.Fatal(err)
	}
	adv[0].Parent = -99
	again, _ := a1.SpanTree(3)
	if again[0].Parent == -99 {
		t.Fatal("returned span tree aliases the memo")
	}

	// A different labeled graph must not share the bundle.
	other := graph.Cycle(8)
	other.AddEdge(0, 4)
	if ForGraph(other) == a1 {
		t.Fatal("different graphs share a bundle")
	}
}

func TestForGraphConcurrent(t *testing.T) {
	ResetAll()
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				n := 6 + (i%3)*2
				art := ForGraph(graph.Cycle(n))
				if rho := art.Automorphism(); rho == nil {
					errCh <- fmt.Errorf("cycle n=%d reported rigid", n)
					return
				}
				if _, err := art.SpanTree(i % n); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
