// Package bad violates the limiter discipline: it takes limiter slots
// from outside the admission layer.
package bad

import (
	"context"

	"sunmap/internal/engine"
	"sunmap/internal/pool"
)

// Nested blocks on the session limiter from nested code — the shape of
// the old internal/sim/routes.go deadlock.
func Nested(ctx context.Context, limit *pool.Limiter) error {
	if err := limit.Acquire(ctx); err != nil { // want "limiter slot taken by Acquire outside the admission layer"
		return err
	}
	defer limit.Release()
	return nil
}

// Indirect is still a violation inside a statement expression.
func Indirect(ctx context.Context, limit *pool.Limiter) {
	_ = limit.Acquire(ctx) // want "limiter slot taken by Acquire"
}

// Opportunistic takes a slot only if one is free — the hand-rolled
// helper shape engine.Fan replaces.
func Opportunistic(limit *pool.Limiter) bool {
	if limit.TryAcquire() { // want "limiter slot taken by TryAcquire"
		limit.Release()
		return true
	}
	return false
}

// Polled uses the poll helper outside the engine.
func Polled(ctx context.Context, limit *pool.Limiter) bool {
	if !engine.PollAcquire(ctx, limit, nil) { // want "limiter slot taken by PollAcquire"
		return false
	}
	limit.Release()
	return true
}
