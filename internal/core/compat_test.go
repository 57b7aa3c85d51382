package core

// Test-only helpers. The shipped package exposes only SelectContext
// (ctxdiscipline forbids library code from minting a context); the
// in-package tests keep the shorter spelling and a few counts over the
// candidate list via these helpers, which exist only in the test binary.

import (
	"context"

	"sunmap/internal/topology"
)

// Select runs SelectContext under a background context.
func Select(cfg Config) (*Selection, error) {
	return SelectContext(context.Background(), cfg)
}

// candName returns a candidate's topology name, even for a failed one.
func candName(c Candidate) string {
	if c.Result != nil {
		return c.Result.Topology.Name()
	}
	return "unmappable"
}

// countCandidates counts the mapped candidates of sel that keep holds
// for.
func countCandidates(sel *Selection, keep func(Candidate) bool) int {
	n := 0
	for _, c := range sel.Candidates {
		if c.Result != nil && keep(c) {
			n++
		}
	}
	return n
}

// feasible reports whether a mapped candidate is feasible.
func feasible(c Candidate) bool { return c.Feasible() }

// synthesized reports whether a mapped candidate is a synthesized
// topology.
func synthesized(c Candidate) bool { return c.Result.Topology.Kind() == topology.Synth }
