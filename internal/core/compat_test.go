package core

// Test-only ctx-less entry points. The shipped package exposes only the
// *Context forms (ctxdiscipline forbids library code from minting a
// context); the in-package tests keep the shorter spellings via these
// wrappers, which exist only in the test binary.

import (
	"context"

	"sunmap/internal/engine"
	"sunmap/internal/graph"
	"sunmap/internal/mapping"
	"sunmap/internal/topology"
)

// Select runs SelectContext under a background context.
func Select(cfg Config) (*Selection, error) {
	return SelectContext(context.Background(), cfg)
}

// RoutingSweep runs RoutingSweepContext under a background context with
// default exploration options.
func RoutingSweep(app *graph.CoreGraph, topo topology.Topology, opts mapping.Options) ([]RoutingSweepRow, error) {
	return RoutingSweepContext(context.Background(), app, topo, opts, engine.Options{})
}

// ParetoExplore runs ParetoExploreFault without a fault model under a
// background context with default exploration options.
func ParetoExplore(app *graph.CoreGraph, topo topology.Topology, opts mapping.Options, steps int) ([]ParetoPoint, error) {
	return ParetoExploreFault(context.Background(), app, topo, opts, steps, nil, engine.Options{})
}
