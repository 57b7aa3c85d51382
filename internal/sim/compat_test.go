package sim

// Test-only entry points: the shipped package exposes only the
// context-taking RunContext (ctxdiscipline forbids library code from
// minting a context) and has no rate sweep of its own; the in-package
// tests keep the shorter spellings and fan rate sweeps through
// engine.Fan the way Session.Simulate does.

import (
	"context"
	"fmt"

	"sunmap/internal/engine"
)

// Run simulates the configured network under a background context.
func Run(cfg Config) (*Stats, error) {
	return RunContext(context.Background(), cfg)
}

// Sweep runs the sequential injection-rate sweep under a background
// context.
func Sweep(cfg Config, rates []float64) ([]*Stats, error) {
	return sweep(context.Background(), cfg, rates, engine.Options{Parallelism: 1})
}

// sweep simulates cfg at every rate as the units of one engine.Fan and
// returns the stats in rate order.
func sweep(ctx context.Context, cfg Config, rates []float64, eo engine.Options) ([]*Stats, error) {
	out := make([]*Stats, len(rates))
	err := engine.Fan(ctx, len(rates), eo, func(ctx context.Context, i int) error {
		c := cfg
		c.InjectionRate = rates[i]
		st, err := RunContext(ctx, c)
		if err != nil {
			return fmt.Errorf("sim: sweep at rate %g: %w", rates[i], err)
		}
		out[i] = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
