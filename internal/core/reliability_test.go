package core

// Tests for the reliability axis of Phase 2 and the Pareto explorer:
// fault-aware selection must score candidates exactly as documented,
// stay deterministic across parallelism, and mark the three-objective
// front correctly.

import (
	"context"
	"math"
	"reflect"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/fault"
	"sunmap/internal/mapping"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

func mustMesh34(t *testing.T) topology.Topology {
	t.Helper()
	topo, err := topology.NewMesh(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

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
				t.Errorf("%s: infeasible candidate swept for reliability", c.Name())
			}
			continue
		}
		if c.Survivability == nil {
			t.Fatalf("%s: feasible candidate missing fault report", c.Name())
		}
		if s := c.Survivability.Survivability(); s < 0 || s > 1 {
			t.Errorf("%s: survivability %g outside [0,1]", c.Name(), s)
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
	// The per-candidate table rows surface the score.
	rows := sel.Summaries()
	withScore := 0
	for _, r := range rows {
		if r.HasSurvivability {
			withScore++
		}
	}
	if withScore == 0 {
		t.Error("no summary row carries a survivability score")
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
	if seq.Best.Topology.Name() != par.Best.Topology.Name() {
		t.Errorf("winner differs: %s (sequential) vs %s (parallel)",
			seq.Best.Topology.Name(), par.Best.Topology.Name())
	}
	if !reflect.DeepEqual(seq.Summaries(), par.Summaries()) {
		t.Error("summary tables differ across parallelism")
	}
}

// TestParetoReliabilityAxis checks the fault-aware exploration: every
// point carries a survivability, the plain exploration carries none, and
// three-objective dominance is internally consistent.
func TestParetoReliabilityAxis(t *testing.T) {
	app := apps.VOPD()
	topo := mustMesh34(t)
	opts := mapping.Options{Routing: route.MinPath, CapacityMBps: 500}

	plain, err := ParetoExploreFault(context.Background(), app, topo, opts, 3, nil, ExploreOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plain {
		if p.HasSurvivability {
			t.Fatal("fault-free exploration reports survivability")
		}
	}

	fm := &fault.Model{K: 1, Elements: fault.Links}
	pts, err := ParetoExploreFault(context.Background(), app, topo, opts, 3, fm, ExploreOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no design points")
	}
	front := 0
	for _, p := range pts {
		if !p.HasSurvivability {
			t.Fatalf("point %+v missing survivability", p)
		}
		if p.Survivability < 0 || p.Survivability > 1 {
			t.Errorf("survivability %g outside [0,1]", p.Survivability)
		}
		if p.Dominant {
			front++
		}
	}
	if front == 0 {
		t.Fatal("empty Pareto front")
	}
	// No point on the front may be dominated in all three objectives.
	for i, p := range pts {
		if !p.Dominant {
			continue
		}
		for j, q := range pts {
			if i == j {
				continue
			}
			if q.AreaMM2 < p.AreaMM2-1e-9 && q.PowerMW < p.PowerMW-1e-9 && q.Survivability > p.Survivability+1e-9 {
				t.Errorf("front point %d strictly dominated by %d", i, j)
			}
		}
	}
}
