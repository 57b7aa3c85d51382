package sim

// Test-only ctx-less entry points: the shipped package exposes only
// context-taking forms (ctxdiscipline forbids library code from minting a
// context); the in-package tests keep the shorter spellings.

import "context"

// Run simulates the configured network under a background context.
func Run(cfg Config) (*Stats, error) {
	return RunContext(context.Background(), cfg)
}

// Sweep runs the sequential injection-rate sweep under a background
// context.
func Sweep(cfg Config, rates []float64) ([]*Stats, error) {
	return SweepLimited(context.Background(), cfg, rates, 1, nil)
}
