package mapping

// Test-only ctx-less entry point: the shipped package exposes only
// MapContextWith (ctxdiscipline forbids library code from minting a
// context); the in-package tests keep the shorter spelling.

import (
	"context"

	"sunmap/internal/graph"
	"sunmap/internal/topology"
)

// Map runs MapContextWith under a background context with private
// scratch.
func Map(g *graph.CoreGraph, topo topology.Topology, opts Options) (*Result, error) {
	return MapContextWith(context.Background(), g, topo, opts, nil)
}
