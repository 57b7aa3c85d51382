// Package synth generates application-specific candidate topologies from
// a core graph — SUNMAP's follow-on direction: instead of only choosing
// among the fixed library of Definition 2, synthesize networks shaped by
// the application's communication structure and let Phase 2 judge them
// against the standard families on equal terms (cf. "Floorplanning and
// Topology Generation for Application-Specific Network-on-Chip",
// arXiv:1402.2462, and "Sparse Hamming Graph", arXiv:2211.13980).
//
// Three deterministic generators are provided:
//
//   - Cluster: recursive Kernighan–Lin-style min-cut bipartitioning of the
//     communication graph into core clusters mapped onto switches, wired
//     by a degree-bounded maximum-bandwidth spanning tree plus direct
//     links for the heaviest inter-cluster flows.
//   - TrimmedMesh: the squarest mesh for the core count with every link
//     the application's dimension-ordered flow paths never touch deleted
//     (connectivity preserving).
//   - SparseHamming: a dense two-dimensional Hamming (rook's) graph pruned
//     to a switch-radix bound by deleting the links the application uses
//     least.
//
// Every candidate implements topology.Topology via topology.NewCustom
// (Kind Synth, validated where it is built) and carries the structural
// digest internal/engine keys its evaluation cache on — so synthesized
// candidates flow through Library/Select, the concurrent engine, the
// cache and the simulator exactly like library members. No name can
// rebuild a candidate: the package registers nothing, and the sunmap
// Session that asked for them registers them in its own topology.Scope.
// Synthesis is pure and deterministic: the same core graph and options
// always produce byte-identical candidates, keeping Select results
// independent of parallelism and cache state.
package synth

import (
	"fmt"

	"sunmap/internal/graph"
	"sunmap/internal/topology"
)

// Options tunes candidate synthesis. The zero value selects the defaults.
type Options struct {
	// MaxRadix bounds the inter-router links per synthesized switch
	// (default 4, mesh-class switches). 0 selects the default; values
	// below 2 are invalid. Generators whose structure cannot honor a small
	// bound are skipped rather than violating it: TrimmedMesh needs a
	// budget of at least 4 (its base mesh has radix-4 interior routers)
	// and SparseHamming at least 3 (its spanning skeleton).
	MaxRadix int
	// ClusterSizes lists the cores-per-switch targets the Cluster
	// generator synthesizes one candidate for (default {2, 4}). Sizes that
	// would collapse the application into a single cluster are skipped.
	ClusterSizes []int
}

func (o Options) withDefaults() (Options, error) {
	switch {
	case o.MaxRadix == 0:
		o.MaxRadix = 4
	case o.MaxRadix < 2:
		return o, fmt.Errorf("synth: MaxRadix %d is invalid (want 0 for the default, or >= 2)", o.MaxRadix)
	}
	if len(o.ClusterSizes) == 0 {
		o.ClusterSizes = []int{2, 4}
	}
	for _, s := range o.ClusterSizes {
		if s < 1 {
			return o, fmt.Errorf("synth: cluster size %d is invalid (want >= 1)", s)
		}
	}
	return o, nil
}

// Candidates synthesizes every applicable candidate topology for the
// application. Candidates are returned in deterministic order: cluster
// candidates in ClusterSizes order, then the trimmed mesh, then the
// sparse Hamming graph. Candidates whose names repeat (e.g. duplicate
// cluster sizes) are emitted once.
func Candidates(g *graph.CoreGraph, opts Options) ([]topology.Topology, error) {
	if g == nil {
		return nil, fmt.Errorf("synth: nil application")
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("synth: %w", err)
	}
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	var out []topology.Topology
	seen := make(map[string]bool)
	add := func(t topology.Topology, err error) error {
		if err != nil {
			return err
		}
		if seen[t.Name()] {
			return nil
		}
		seen[t.Name()] = true
		out = append(out, t)
		return nil
	}
	for _, s := range opts.ClusterSizes {
		if (g.NumCores()+s-1)/s < 2 {
			continue // a single cluster is no network
		}
		if err := add(Cluster(g, s, opts.MaxRadix)); err != nil {
			return nil, err
		}
	}
	if opts.MaxRadix >= 4 {
		if err := add(TrimmedMesh(g)); err != nil {
			return nil, err
		}
	}
	if opts.MaxRadix >= 3 {
		if err := add(SparseHamming(g, opts.MaxRadix)); err != nil {
			return nil, err
		}
	}
	return out, nil
}
