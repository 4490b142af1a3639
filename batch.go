package dip

import "context"

// BatchResult is one item's outcome in a RunBatch call: exactly one of
// Report (Err == nil) or Err is meaningful.
type BatchResult struct {
	Report Report
	Err    error
}

// RunBatch executes the requests in order and returns one result per
// request. A failed item does not abort the batch: later items still run,
// and the caller pairs results with requests by index.
//
// Batching exists for throughput: items that share an instance (same
// graph, same protocol parameters, same seed) hit the setup caches after
// the first item, so the per-item cost drops to the engine run itself.
// The reports are identical to running each request alone — batching
// changes scheduling, never semantics.
func RunBatch(reqs []Request) []BatchResult {
	return RunBatchContext(context.Background(), reqs)
}

// RunBatchContext is RunBatch bounded by a context. Cancellation marks
// every not-yet-started item with the context error; the in-flight item
// aborts at the engine's next step, as in RunContext.
func RunBatchContext(ctx context.Context, reqs []Request) []BatchResult {
	out := make([]BatchResult, len(reqs))
	for i := range reqs {
		if err := ctx.Err(); err != nil {
			out[i].Err = err
			continue
		}
		out[i].Report, out[i].Err = RunContext(ctx, reqs[i])
	}
	return out
}
