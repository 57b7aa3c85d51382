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

func faultSelectConfig(par int) Config {
	return Config{
		App: apps.VOPD(),
		Mapping: mapping.Options{
			Routing:      route.MinPath,
			Objective:    mapping.MinDelay,
			CapacityMBps: 500,
		},
		Parallelism:       par,
		Fault:             &fault.Model{K: 1, Elements: fault.Links},
		ReliabilityWeight: 1,
	}
}

// TestReliabilityAwareSelection checks every feasible candidate carries
// a fault report and that Best is the argmin of the documented
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
			t.Fatalf("%s: feasible candidate missing fault report", candName(c))
		}
		if s := c.Survivability.Survivability(); s < 0 || s > 1 {
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
		score := c.Result.Cost/minCost + (1 - c.Survivability.Survivability())
		if score < bestScore-1e-12 {
			bestScore = score
			bestName = c.Result.Topology.Name()
		}
	}
	selScore := math.Inf(1)
	for _, c := range sel.Candidates {
		if c.Result == sel.Best {
			selScore = c.Result.Cost/minCost + (1 - c.Survivability.Survivability())
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
