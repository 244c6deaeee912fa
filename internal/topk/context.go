package topk

import "context"

// Cooperative cancellation: the streaming loops in this package test a
// caller-supplied context at a fixed entry stride and return ctx.Err()
// instead of running to completion. The stride keeps the check off the
// per-entry hot path while still stopping a canceled query within
// microseconds-to-a-millisecond at typical per-entry costs: NRA piggybacks
// on its maintenance batch (opt.BatchSize entry reads), SMJ and ScanGroupsCtx
// count merge pops against cancelCheckInterval. A run never returns a
// partially computed answer — cancellation yields (nil, stats, ctx.Err()),
// so callers either get the full result or an error.

// cancelCheckInterval is the cancellation-test stride of the merge loops
// (SMJ, ScanGroupsCtx): one context check per this many consumed entries,
// matching NRA's default maintenance batch.
const cancelCheckInterval = DefaultBatchSize

// ctxErr reports the context's cancellation state, treating a nil context
// as "never canceled" so the zero options keep their old behavior.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
