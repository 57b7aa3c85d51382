package core

// Tests for the reliability axis of Phase 2: fault-aware selection must
// score candidates exactly as documented and stay deterministic across
// parallelism.

import (
	"context"
	"math"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/fault"
	"sunmap/internal/mapping"
	"sunmap/internal/route"
)

func vopdMinPathConfig(par int) Config {
	return Config{
		App: apps.VOPD(),
		Mapping: mapping.Options{
			Routing:      route.MinPath,
			Objective:    mapping.MinDelay,
			CapacityMBps: 500,
		},
		Parallelism: par,
	}
}

func faultSelectConfig(par int) Config { return withLinkFaults(vopdMinPathConfig(par)) }

// withLinkFaults turns on cfg's reliability axis at weight 1: Survive
// sweeps every single-link failure of a candidate with fault.SweepContext
// in degraded mode, under cfg's parallelism and limiter, as the Session's
// scorer does.
func withLinkFaults(cfg Config) Config {
	comms := cfg.App.Commodities()
	model := fault.Model{K: 1, Elements: fault.Links}
	cfg.Survive = func(ctx context.Context, res *mapping.Result, fn route.Function) (float64, error) {
		opts := cfg.Mapping
		opts.Routing = fn
		scenarios, exhaustive, err := fault.Scenarios(res.Topology, model)
		if err != nil {
			return 0, err
		}
		rep, err := fault.SweepContext(ctx, res.Topology, res.Assign, comms, fault.Degraded(opts.RouteOptions()), scenarios, exhaustive, cfg.Parallelism, cfg.Limit)
		if err != nil {
			return 0, err
		}
		return rep.Survivability(), nil
	}
	cfg.ReliabilityWeight = 1
	return cfg
}

// TestReliabilityAwareSelection checks every feasible candidate carries
// a survivability and that Best is the argmin of the documented
// composite score cost/bestCost + w·(1 − survivability).
func TestReliabilityAwareSelection(t *testing.T) {
	sel, err := SelectContext(context.Background(), faultSelectConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best == nil {
		t.Fatal("no feasible candidate")
	}
	minCost := math.Inf(1)
	for _, c := range sel.Candidates {
		if c.Result == nil || !c.Feasible() {
			if c.Survivability != nil {
				t.Errorf("%s: infeasible candidate swept for reliability", candName(c))
			}
			continue
		}
		if c.Survivability == nil {
			t.Fatalf("%s: feasible candidate missing survivability", candName(c))
		}
		if s := *c.Survivability; s < 0 || s > 1 {
			t.Errorf("%s: survivability %g outside [0,1]", candName(c), s)
		}
		if c.Result.Cost < minCost {
			minCost = c.Result.Cost
		}
	}
	bestScore := math.Inf(1)
	var bestName string
	for _, c := range sel.Candidates {
		if c.Result == nil || !c.Feasible() {
			continue
		}
		score := c.Result.Cost/minCost + (1 - *c.Survivability)
		if score < bestScore-1e-12 {
			bestScore = score
			bestName = c.Result.Topology.Name()
		}
	}
	selScore := math.Inf(1)
	for _, c := range sel.Candidates {
		if c.Result == sel.Best {
			selScore = c.Result.Cost/minCost + (1 - *c.Survivability)
		}
	}
	if selScore > bestScore+1e-9 {
		t.Errorf("selected %s scores %g, but %s scores %g",
			sel.Best.Topology.Name(), selScore, bestName, bestScore)
	}
}

// TestReliabilitySelectionDeterministic pins byte-identical selections
// across parallelism, fault sweeps included.
func TestReliabilitySelectionDeterministic(t *testing.T) {
	seq, err := SelectContext(context.Background(), faultSelectConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := SelectContext(context.Background(), faultSelectConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	sameSelection(t, par, seq)
	sameSurvivability(t, par, seq)
}
