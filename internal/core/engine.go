// Package core is SUNMAP's selection policy layer: Phase 1 maps the
// application onto every topology in the library under the chosen routing
// function and objective; Phase 2 evaluates the candidates and selects the
// best feasible topology (Section 3 of the paper). The actual Phase-1
// evaluations run on internal/engine's concurrent worker pool with a
// shared content-addressed cache; core decides what to evaluate (library
// enumeration, application-specific synthesis via internal/synth, routing
// escalation) and how to rank the outcomes, the reliability re-pick
// included. It is selection policy only: the Session in the root package
// orchestrates every other operation, the Fig. 9 explorers included,
// builds every report row, and measures the survivability the re-pick
// ranks by (Config.Survive).
package core

import (
	"context"
	"fmt"
	"math"

	"sunmap/internal/engine"
	"sunmap/internal/graph"
	"sunmap/internal/mapping"
	"sunmap/internal/rank"
	"sunmap/internal/route"
	"sunmap/internal/synth"
	"sunmap/internal/topology"
)

// Config drives one Select run.
type Config struct {
	// App is the application core graph.
	App *graph.CoreGraph
	// Library lists the candidate topologies. Nil selects the default
	// library for the app's core count (all mesh/torus/hypercube/
	// butterfly/clos configurations).
	Library []topology.Topology
	// Synth, when non-nil, augments the candidate set with
	// application-specific topologies synthesized from the core graph
	// (internal/synth): clustered min-cut partitions, a trimmed mesh and a
	// sparse Hamming graph. Synthesized candidates are appended after the
	// library (or after an explicit Library) and compete in Phase 2 on
	// equal terms. Synthesis is deterministic, so results remain
	// independent of Parallelism, and the candidates carry structural
	// digests so Cache memoizes them like any library member.
	Synth *synth.Options
	// Mapping carries the routing function, objective, constraints and
	// technology shared by every Phase 1 mapping.
	Mapping mapping.Options
	// EscalateRouting retries with more flexible routing functions
	// (MP -> SM -> SA) when no topology produces a feasible mapping,
	// mirroring Section 6.1's MPEG4 flow ("So we apply multi-path
	// routing, splitting the traffic across many paths").
	EscalateRouting bool
	// Parallelism bounds the engine worker pool for Phase 1. 0 selects
	// GOMAXPROCS; 1 forces the sequential path. Results are identical at
	// every setting.
	Parallelism int
	// Cache, when non-nil, memoizes Phase-1 evaluations so repeated
	// Select calls, and the Session's other ops on the same app, share
	// work. Nil disables memoization (a single Select never revisits a
	// design point — escalation changes the routing function — so a
	// private cache would buy nothing).
	Cache *engine.Cache
	// Progress, when non-nil, streams one event per evaluated candidate.
	Progress engine.Progress
	// Limit, when non-nil, bounds in-flight mapping evaluations across
	// concurrent calls sharing it (see engine.Options.Limit).
	Limit *engine.Limiter
	// Scratch, when non-nil, is the mapping scratch free list shared
	// with other runs (see engine.Options.Scratch).
	Scratch *engine.Free[mapping.Scratch]
	// Survive, when non-nil, adds a reliability axis to Phase 2: it
	// measures a feasible candidate's survivability in [0, 1] under the
	// routing function the selection settled on, and the scores fold
	// into the final ranking — see ReliabilityWeight. Candidates fan out
	// on the engine pool within the same Parallelism/Limit budget as the
	// mapping evaluations, one call per unit, so a Survive that fans out
	// itself under Limit nests in the unit's slot.
	Survive func(ctx context.Context, res *mapping.Result, fn route.Function) (float64, error)
	// ReliabilityWeight scales the reliability term of the fault-aware
	// ranking: feasible candidates order by
	// cost/bestCost + w·(1 − survivability), so w ≈ 1 trades a full
	// connectivity loss against a doubling of the design objective.
	// Zero or negative selects 1.
	ReliabilityWeight float64
}

// Candidate is one evaluated (topology, mapping) pair.
type Candidate struct {
	*mapping.Result
	// MapErr records a hard mapping failure (e.g. too few terminals);
	// the Result is nil in that case.
	MapErr error
	// Survivability is the candidate's Config.Survive score, set for
	// feasible candidates when Survive is (nil otherwise).
	Survivability *float64
}

// Selection is the outcome of the two SUNMAP phases.
type Selection struct {
	// Candidates holds every evaluated mapping, feasible or not, in
	// library order.
	Candidates []Candidate
	// Best points at the selected candidate (nil when nothing feasible).
	Best *mapping.Result
	// RoutingUsed is the routing function the selection was made under
	// (it differs from Config.Mapping.Routing after escalation).
	RoutingUsed route.Function
}

// Escalation orders the routing functions by increasing flexibility: the
// ladder an escalated selection climbs, and the rows of the routing sweep.
var Escalation = []route.Function{route.DimensionOrdered, route.MinPath, route.SplitMin, route.SplitAll}

// SelectContext is the selection entry point with cancellation: it runs
// Phase 1 (map onto every library topology) and Phase 2 (choose the best
// feasible candidate under the objective). ctx aborts the Phase-1 sweep
// (including evaluations already in flight on the worker pool) and the
// routing-escalation retries, returning the context's error.
func SelectContext(ctx context.Context, cfg Config) (*Selection, error) {
	if cfg.App == nil {
		return nil, fmt.Errorf("core: nil application")
	}
	if err := cfg.App.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	lib := cfg.Library
	if lib == nil {
		var err error
		lib, err = topology.Library(cfg.App.NumCores(), topology.LibraryOptions{})
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	if cfg.Synth != nil {
		cands, err := synth.Candidates(cfg.App, *cfg.Synth)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		lib = append(append([]topology.Topology(nil), lib...), cands...)
	}
	if len(lib) == 0 {
		return nil, fmt.Errorf("core: empty topology library")
	}
	eo := engine.Options{Parallelism: cfg.Parallelism, Cache: cfg.Cache, Progress: cfg.Progress, Limit: cfg.Limit, Scratch: cfg.Scratch}

	fns := []route.Function{cfg.Mapping.Routing}
	if cfg.EscalateRouting {
		for _, f := range Escalation {
			if f > cfg.Mapping.Routing {
				fns = append(fns, f)
			}
		}
	}
	var sel *Selection
	for _, fn := range fns {
		opts := cfg.Mapping
		opts.Routing = fn
		outcomes, err := engine.Sweep(ctx, cfg.App, lib, opts, eo)
		if err != nil {
			return nil, err
		}
		s, err := phase2(outcomes)
		if err != nil {
			return nil, err
		}
		s.RoutingUsed = fn
		sel = s
		if s.Best != nil {
			break
		}
	}
	if cfg.Survive != nil && sel != nil {
		if err := applyReliability(ctx, cfg, sel, eo); err != nil {
			return nil, err
		}
	}
	return sel, nil
}

// applyReliability is the fault-aware half of Phase 2: score every
// feasible candidate's survivability under the selection's routing
// function and re-pick Best by the composite cost/bestCost + w·(1 −
// survivability) score. Candidates fan out through engine.Fan, one per
// unit. Scores are index-addressed and folded sequentially, so results
// stay byte-identical at every parallelism setting.
func applyReliability(ctx context.Context, cfg Config, sel *Selection, eo engine.Options) error {
	var idxs []int
	for i, c := range sel.Candidates {
		if c.Result != nil && c.Feasible() {
			idxs = append(idxs, i)
		}
	}
	err := engine.Fan(ctx, len(idxs), eo, func(ctx context.Context, j int) error {
		c := &sel.Candidates[idxs[j]]
		surv, err := cfg.Survive(ctx, c.Result, sel.RoutingUsed)
		if err != nil {
			return fmt.Errorf("core: reliability of %s: %w", c.Result.Topology.Name(), err)
		}
		c.Survivability = &surv
		return nil
	})
	if err != nil {
		return err
	}
	minCost := math.Inf(1)
	for _, i := range idxs {
		if c := sel.Candidates[i].Result; c.Cost < minCost {
			minCost = c.Cost
		}
	}
	best, bestScore := -1, math.Inf(1)
	const scoreTol = 1e-12
	for _, i := range idxs {
		c := sel.Candidates[i]
		score := rank.ReliabilityScore(c.Result.Cost, minCost, *c.Survivability, cfg.ReliabilityWeight)
		switch {
		case best == -1 || score < bestScore-scoreTol:
			best, bestScore = i, score
		case score <= bestScore+scoreTol && rank.Less(point(c.Result), point(sel.Candidates[best].Result)):
			best = i // score tie: fall back to the fault-free ordering
		}
	}
	if best >= 0 {
		sel.Best = sel.Candidates[best].Result
	}
	return nil
}

// phase2 ranks one routing function's library-ordered outcomes by
// rank.Less, folded in library order.
func phase2(outcomes []engine.Outcome) (*Selection, error) {
	s := &Selection{Candidates: make([]Candidate, 0, len(outcomes))}
	for _, o := range outcomes {
		// A per-topology error (too few terminals, structural mismatch) is
		// recorded and skipped; a configuration error in the options
		// themselves fails every topology and surfaces below.
		s.Candidates = append(s.Candidates, Candidate{Result: o.Result, MapErr: o.Err})
	}
	allFailed := true
	for _, c := range s.Candidates {
		if c.Result != nil {
			allFailed = false
			break
		}
	}
	if allFailed {
		return nil, fmt.Errorf("core: every topology failed to map: %w", s.Candidates[0].MapErr)
	}
	best := -1
	for i, c := range s.Candidates {
		if c.Result == nil || !c.Feasible() {
			continue
		}
		if best == -1 || rank.Less(point(c.Result), point(s.Candidates[best].Result)) {
			best = i
		}
	}
	if best >= 0 {
		s.Best = s.Candidates[best].Result
	}
	return s, nil
}

// point is what Phase 2 ranks a mapped candidate by (see rank.Less).
func point(r *mapping.Result) rank.Point {
	return rank.Point{Cost: r.Cost, PowerMW: r.PowerMW, AreaMM2: r.DesignAreaMM2, Routers: r.Topology.NumRouters(), Name: r.Topology.Name()}
}
