// Package clean exercises the legal limiter shapes outside the
// admission layer: fanning work through engine.Fan, reading the
// limiter's load, Release, and an unrelated type that happens to have
// Acquire and TryAcquire methods of its own.
package clean

import (
	"context"

	"sunmap/internal/engine"
	"sunmap/internal/pool"
)

// Fanned runs its units through engine.Fan — the sanctioned pattern.
func Fanned(ctx context.Context, limit *pool.Limiter) error {
	return engine.Fan(ctx, 4, engine.Options{Limit: limit}, func(context.Context, int) error { return nil })
}

// Load reads the limiter's pressure without taking a slot.
func Load(limit *pool.Limiter) int {
	return limit.InFlight() + limit.Waiting()
}

// lock is an unrelated type with its own Acquire and TryAcquire;
// calling them is fine.
type lock struct{}

func (lock) Acquire(context.Context) error { return nil }
func (lock) TryAcquire() bool              { return true }

// Unrelated calls same-named methods on a different type.
func Unrelated(ctx context.Context) error {
	var l lock
	if l.TryAcquire() {
		return nil
	}
	return l.Acquire(ctx)
}
