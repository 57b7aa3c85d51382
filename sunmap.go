// Package sunmap is a Go reproduction of SUNMAP (Murali & De Micheli,
// DAC 2004): a tool for automatic NoC topology selection and generation.
//
// Given an application core graph (cores plus communication bandwidths),
// SUNMAP maps it onto every topology in a library (mesh, torus, hypercube,
// butterfly, Clos — plus octagon and star extensions) under a chosen
// routing function (dimension-ordered, minimum-path, or traffic splitting)
// and design objective (minimum delay, area or power), enforces link
// bandwidth and chip area constraints using built-in area/power models and
// an LP floorplanner, selects the best feasible topology, and generates a
// SystemC description of the resulting network in the ×pipes style. A
// cycle-accurate flit-level simulator validates designs under synthetic or
// trace-driven traffic.
//
// The Session is the package's one entry point: a handle created with
// functional options that owns the evaluation cache and the admission
// pool bounding in-flight mapping work for its lifetime. Its eight
// operations — Select, Map, RoutingSweep, ParetoExplore, Simulate,
// Generate, FaultSweep and Search — each take (ctx, request) and return
// a report. Requests and reports are plain JSON-round-trippable structs
// (routing functions, objectives and technology nodes travel as strings),
// Do dispatches one Request by its op, Batch fans a request list across
// the engine with per-request isolation and deterministic ordering, and
// the serve package (plus the `sunmap serve` subcommand) puts an HTTP/JSON
// front-end on the same schema.
//
// Phase 1 is embarrassingly parallel — every topology maps independently.
// WithParallelism bounds the session's worker pool (default GOMAXPROCS;
// results are identical to the sequential path at every setting), the
// request context's cancellation and deadline reach the mapping inner
// loops, and the session cache memoizes design points so routing
// escalation, RoutingSweep and ParetoExplore never re-map an identical
// configuration. WithProgress streams per-candidate completion events.
//
// Beyond the fixed library, WithSynth (or a request's Synth spec) turns
// on application-specific topology synthesis: clustered min-cut
// partitions of the communication graph, a trimmed mesh shedding the
// links the application never uses, and a radix-bounded sparse Hamming
// graph compete with the library in the same Select. Search discovers a
// topology by simulated annealing instead. Both register their networks
// in the session's scope, so follow-up requests can name them.
//
// The reliability axis: FaultSweep models failure scenarios as masked
// link/switch sets (exhaustive for k <= 2, deterministic Monte Carlo
// above), reroutes every commodity around each mask in degraded mode, and
// reports survivability with worst-case/expected degradation — optionally
// closing the loop with a cycle-accurate fault injection. WithFault (or
// per-request Fault specs) folds the survivability score into Select's
// ranking and into ParetoExplore's front.
//
// Quick start:
//
//	sess, err := sunmap.NewSession(sunmap.WithParallelism(8))
//	rep, err := sess.Select(ctx, sunmap.SelectRequest{
//		App: sunmap.AppSpec{Name: "vopd"},
//		Mapping: sunmap.MapSpec{
//			Routing:      "MP",
//			Objective:    "delay",
//			CapacityMBps: 500,
//		},
//	})
//	// rep.Topology names the chosen network; rep.Rows holds the
//	// per-candidate comparison table.
//
// Follow-up sweeps on the same session replay memoized design points from
// the session cache instead of re-mapping them:
//
//	sweep, err := sess.RoutingSweep(ctx, sunmap.SweepRequest{
//		App:      sunmap.AppSpec{Name: "vopd"},
//		Topology: rep.Topology,
//		Mapping:  sunmap.MapSpec{CapacityMBps: 500},
//	})
//
// See the examples directory for complete programs.
package sunmap

import (
	"fmt"
	"io"
	"os"

	"sunmap/internal/apps"
	"sunmap/internal/engine"
	"sunmap/internal/graph"
	"sunmap/internal/synth"
	"sunmap/internal/topology"
)

// Application-model and topology types.
type (
	// CoreGraph is the application model of Definition 1: cores and
	// directed bandwidth-weighted flows.
	CoreGraph = graph.CoreGraph
	// Core is one IP block (name, area, soft-block aspect bounds).
	Core = graph.Core
	// Commodity is one single-commodity flow d_k.
	Commodity = graph.Commodity
	// Topology is a network from the library (Definition 2).
	Topology = topology.Topology
	// LibraryOptions tunes topology configuration enumeration.
	LibraryOptions = topology.LibraryOptions
)

// Session engine types.
type (
	// EvalCacheStats snapshots the session cache's effectiveness.
	EvalCacheStats = engine.CacheStats
	// ProgressEvent is one streaming per-candidate completion event.
	ProgressEvent = engine.Event
	// Progress receives streaming ProgressEvents (serialized, never
	// concurrent).
	Progress = engine.Progress
	// SynthOptions tunes application-specific topology synthesis (see
	// WithSynth and Session.SynthCandidates).
	SynthOptions = synth.Options
)

// AppNames lists the built-in applications.
func AppNames() []string { return apps.Names() }

// LoadApp parses a core graph from SUNMAP's text format.
func LoadApp(r io.Reader) (*CoreGraph, error) { return graph.Parse(r) }

// LoadAppFile parses a core-graph file. File-system and parse failures are
// wrapped with %w, so errors.Is(err, fs.ErrNotExist) and friends work.
func LoadAppFile(path string) (*CoreGraph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sunmap: %w", err)
	}
	defer f.Close()
	g, err := graph.Parse(f)
	if err != nil {
		return nil, fmt.Errorf("sunmap: %s: %w", path, err)
	}
	return g, nil
}

// Library enumerates the topology configurations able to host n cores.
func Library(n int, opts LibraryOptions) ([]Topology, error) {
	return topology.Library(n, opts)
}

// PhysicalLinks counts a topology's bidirectional router-router channels
// (each modeled internally as two directed links).
func PhysicalLinks(t Topology) int { return topology.PhysicalLinks(t) }
