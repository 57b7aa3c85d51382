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
// Beyond the fixed library, SelectConfig.Synth turns on application-
// specific topology synthesis (internal/synth): clustered min-cut
// partitions of the communication graph, a trimmed mesh shedding the
// links the application never uses, and a radix-bounded sparse Hamming
// graph are generated from the core graph and compete with the library
// in the same Select call. See SynthOptions and Session.SynthCandidates.
//
// Phase 1 is embarrassingly parallel — every topology maps independently —
// and runs on a concurrent evaluation engine: SelectConfig.Parallelism
// bounds the worker pool (default GOMAXPROCS; results are deterministic
// and identical to the sequential path at every setting), SelectContext
// threads cancellation and deadlines down into the mapping inner loops,
// and a shared content-addressed EvalCache memoizes design points so
// routing escalation, RoutingSweep and ParetoExplore never re-map an
// identical configuration. A Progress callback streams per-candidate
// completion events to interactive consumers.
//
// A fault-tolerance subsystem (internal/fault) adds the reliability
// axis: Session.FaultSweep models failure scenarios as masked
// link/switch sets (exhaustive for k <= 2, deterministic Monte Carlo
// above), reroutes every commodity around each mask in degraded mode,
// and reports survivability with worst-case/expected degradation —
// optionally closing the loop with a cycle-accurate fault injection.
// WithFault (or per-request Fault specs) folds the survivability score
// into Select's ranking and into ParetoExplore's front.
//
// The context-first entry point is the Session: a handle created with
// functional options that owns the engine pool and evaluation cache for
// its lifetime and exposes the whole pipeline — Select, Map, RoutingSweep,
// ParetoExplore, Simulate, Generate — as methods taking (ctx, request).
// Requests and reports are plain JSON-round-trippable structs, Batch fans
// a request list across the engine with per-request isolation and
// deterministic ordering, and the serve package (plus the `sunmap serve`
// subcommand) puts an HTTP/JSON front-end on top.
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
// See the examples directory for complete programs. The pre-Session
// top-level wrappers (Select/SelectContext and friends) have been
// removed; the Session methods are the only entry points.
package sunmap

import (
	"fmt"
	"io"
	"os"

	"sunmap/internal/apps"
	"sunmap/internal/core"
	"sunmap/internal/engine"
	"sunmap/internal/graph"
	"sunmap/internal/mapping"
	"sunmap/internal/route"
	"sunmap/internal/sim"
	"sunmap/internal/synth"
	"sunmap/internal/tech"
	"sunmap/internal/topology"
	"sunmap/internal/traffic"
	"sunmap/internal/xpipes"
)

// Core application-model types.
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
	// Tech is a technology operating point for the area/power models.
	Tech = tech.Tech
)

// Mapping and selection types.
type (
	// MapOptions configures one mapping run (Fig. 5 of the paper).
	MapOptions = mapping.Options
	// MapResult is a mapped, evaluated design point.
	MapResult = mapping.Result
	// Weights are the coefficients of the weighted objective.
	Weights = mapping.Weights
	// SelectConfig drives the two-phase topology selection.
	SelectConfig = core.Config
	// Selection is the outcome: all candidates plus the chosen one.
	Selection = core.Selection
	// SummaryRow is one per-topology comparison line.
	SummaryRow = core.SummaryRow
	// RoutingSweepRow is one Fig. 9(a) bar.
	RoutingSweepRow = core.RoutingSweepRow
	// ParetoPoint is one Fig. 9(b) design point.
	ParetoPoint = core.ParetoPoint
)

// Concurrent evaluation engine types.
type (
	// EvalCache is the content-addressed mapping-evaluation cache shared
	// across Select, RoutingSweep and ParetoExplore calls.
	EvalCache = engine.Cache
	// EvalCacheStats snapshots cache effectiveness.
	EvalCacheStats = engine.CacheStats
	// ProgressEvent is one streaming per-candidate completion event.
	ProgressEvent = engine.Event
	// Progress receives streaming ProgressEvents (serialized, never
	// concurrent).
	Progress = engine.Progress
	// ExploreOptions tunes the engine run behind the explorer functions.
	ExploreOptions = core.ExploreOptions
)

// Application-specific topology synthesis types.
type (
	// SynthOptions tunes application-specific topology synthesis. Set
	// SelectConfig.Synth to a non-nil SynthOptions to have Select append
	// synthesized candidates — clustered min-cut partitions, a trimmed
	// mesh and a sparse Hamming graph — to the library sweep.
	SynthOptions = synth.Options
)

// NewEvalCache returns an empty evaluation cache for sharing design-point
// evaluations across selection and exploration calls.
func NewEvalCache() *EvalCache { return engine.NewCache() }

// Simulation and generation types.
type (
	// SimConfig parameterizes the cycle-accurate simulator.
	SimConfig = sim.Config
	// SimStats is one simulation outcome.
	SimStats = sim.Stats
	// RouteTable holds static simulator routes.
	RouteTable = sim.RouteTable
	// TrafficPattern generates packet destinations.
	TrafficPattern = traffic.Pattern
	// SystemC is a generated ×pipes design.
	SystemC = xpipes.Output
)

// Routing functions (Sections 1, 6.3).
const (
	DimensionOrdered = route.DimensionOrdered
	MinPath          = route.MinPath
	SplitMin         = route.SplitMin
	SplitAll         = route.SplitAll
)

// Design objectives (Section 4.1).
const (
	MinDelay = mapping.MinDelay
	MinArea  = mapping.MinArea
	MinPower = mapping.MinPower
	Weighted = mapping.Weighted
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

// Tech100nm returns the paper's 0.1 µm technology point.
func Tech100nm() Tech { return tech.Tech100nm() }

// BuildRoutes precomputes simulator routes for synthetic traffic.
func BuildRoutes(topo Topology) (*RouteTable, error) { return sim.BuildRoutes(topo) }

// AdversarialPattern returns the stress pattern Section 6.2 would use for
// a topology.
func AdversarialPattern(topo Topology) TrafficPattern { return traffic.Adversarial(topo) }

// UniformPattern returns uniform random traffic.
func UniformPattern() TrafficPattern { return traffic.Uniform{} }
