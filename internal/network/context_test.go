package network

import (
	"context"
	"errors"
	"testing"
	"time"

	"dip/internal/graph"
)

// TestRunContextCompletes: an undisturbed context changes nothing — the
// result is bit-identical to a plain Run at the same seed.
func TestRunContextCompletes(t *testing.T) {
	g := graph.Cycle(6)
	want, err := Run(echoSpec(16), g, nil, echoProver{}, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), echoSpec(16), g, nil, echoProver{}, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got.Accepted != want.Accepted || got.Cost.MaxProverBits() != want.Cost.MaxProverBits() {
		t.Fatalf("RunContext diverged from Run: %+v vs %+v", got, want)
	}
}

// TestRunContextAlreadyCanceled: a context that is done before the run
// starts fails in PhaseCanceled without touching the engine, and the
// context's own error stays reachable through errors.Is.
func TestRunContextAlreadyCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, echoSpec(8), graph.Cycle(4), nil, echoProver{}, Options{Seed: 1})
	rerr := wantRunError(t, err, PhaseCanceled, -1, -1)
	if !errors.Is(rerr, context.Canceled) {
		t.Fatalf("cause = %v, want context.Canceled", rerr.Err)
	}
}

// TestRunContextExpiredDeadline: same for a deadline already in the past.
func TestRunContextExpiredDeadline(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := RunContext(ctx, echoSpec(8), graph.Cycle(4), nil, echoProver{}, Options{Seed: 1})
	rerr := wantRunError(t, err, PhaseCanceled, -1, -1)
	if !errors.Is(rerr, context.DeadlineExceeded) {
		t.Fatalf("cause = %v, want context.DeadlineExceeded", rerr.Err)
	}
}

// cancelingProver cancels the run's own context from inside Respond, so
// the cancellation is guaranteed to land mid-run, before the next step
// boundary — on both node sides.
type cancelingProver struct{ cancel context.CancelFunc }

func (p *cancelingProver) Respond(_ int, view *ProverView) (*Response, error) {
	p.cancel()
	return echoProver{}.Respond(0, view)
}

// TestRunContextCancelMidRun: a context canceled while the run is in
// flight aborts it at the next step boundary with PhaseCanceled, under
// both node sides.
func TestRunContextCancelMidRun(t *testing.T) {
	g := graph.Path(4)
	engineModes(t, func(t *testing.T, opts Options) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opts.Seed = 3
		_, err := RunContext(ctx, echoSpec(8), g, nil, &cancelingProver{cancel: cancel}, opts)
		var rerr *RunError
		if !errors.As(err, &rerr) || rerr.Phase != PhaseCanceled {
			t.Fatalf("err = %v, want PhaseCanceled RunError", err)
		}
	})
}

// TestRunContextDeadlineClampsProverTimeout: a context deadline bounds a
// hung prover even when Options.ProverTimeout was never set.
func TestRunContextDeadlineClampsProverTimeout(t *testing.T) {
	g := graph.Path(3)
	spec := &Spec{
		Name:   "hung",
		Rounds: []Round{challengeRound(4), {Kind: Merlin}},
		Decide: func(int, *NodeView) bool { return true },
	}
	p := &blockingProver{release: make(chan struct{})}
	defer close(p.release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := RunContext(ctx, spec, g, nil, p, Options{Seed: 1})
	var rerr *RunError
	if !errors.As(err, &rerr) {
		t.Fatalf("err = %v, want *RunError", err)
	}
	if rerr.Phase != PhaseDeadline && rerr.Phase != PhaseCanceled {
		t.Fatalf("phase = %q, want deadline or canceled", rerr.Phase)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run hung for %v despite context deadline", elapsed)
	}
}

// TestStatePoolStats: acquisitions are counted as hits or misses, releases
// beyond capacity as drops, and SetStatePoolCapacity resizes the list.
func TestStatePoolStats(t *testing.T) {
	prev := SetStatePoolCapacity(4)
	defer SetStatePoolCapacity(prev)

	g := graph.Cycle(5)
	before := StatePoolStats()
	for i := 0; i < 8; i++ {
		if _, err := Run(echoSpec(8), g, nil, echoProver{}, Options{Seed: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	after := StatePoolStats()
	if after.Capacity != 4 {
		t.Fatalf("capacity = %d, want 4", after.Capacity)
	}
	if got := (after.Hits + after.Misses) - (before.Hits + before.Misses); got != 8 {
		t.Fatalf("hits+misses advanced by %d, want 8 (one per run)", got)
	}
	// Sequential runs release before the next acquire, so after the first
	// run every acquisition is a pool hit.
	if after.Hits < before.Hits+7 {
		t.Fatalf("hits advanced by %d, want >= 7", after.Hits-before.Hits)
	}
	if after.Free < 1 || after.Free > after.Capacity {
		t.Fatalf("free = %d, want within [1, %d]", after.Free, after.Capacity)
	}

	// Drive the pool to its bound: with capacity+3 states checked out at
	// once, releasing them all fills the list and drops exactly three.
	held := make([]*runState, after.Capacity+3)
	for i := range held {
		held[i] = acquireState()
	}
	for _, s := range held {
		s.release()
	}
	full := StatePoolStats()
	if full.Free != full.Capacity {
		t.Fatalf("free = %d after releasing %d states, want capacity %d", full.Free, len(held), full.Capacity)
	}
	if got := full.Drops - after.Drops; got != 3 {
		t.Fatalf("drops advanced by %d, want 3", got)
	}

	// Shrinking below the current free count drops the excess immediately.
	SetStatePoolCapacity(1)
	if s := StatePoolStats(); s.Capacity != 1 || s.Free != 1 {
		t.Fatalf("after shrink: %+v, want capacity 1 and 1 free", s)
	}
}
