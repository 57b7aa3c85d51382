package mapping

import (
	"context"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/graph"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

// TestIncrementalMatchesReference is the regression gate for the
// incremental swap evaluator: over every library topology and three real
// applications, the optimized mapper must reproduce the retained naive
// reference evaluator *exactly* — same assignment, same number of accepted
// swaps, bitwise-equal cost and link loads. Any divergence means the
// splice/dirty-link reasoning in incremental.go is broken for some
// topology shape, so the comparisons use ==, not tolerances.
func TestIncrementalMatchesReference(t *testing.T) {
	cases := []struct {
		app  string
		g    *graph.CoreGraph
		opts []Options
	}{
		{"vopd", apps.VOPD(), []Options{
			{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 500},
			{Routing: route.MinPath, Objective: Weighted, Weights: Weights{Delay: 1, Area: 1, Power: 1}, CapacityMBps: 500},
			{Routing: route.DimensionOrdered, Objective: MinPower, CapacityMBps: 500},
		}},
		{"dsp", apps.DSPFilter(), []Options{
			{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 500},
			{Routing: route.MinPath, Objective: MinArea},
			{Routing: route.SplitMin, Objective: MinDelay, CapacityMBps: 500},
		}},
		{"mpeg4", apps.MPEG4(), []Options{
			{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 500},
			{Routing: route.MinPath, Objective: MinPower, CapacityMBps: 500},
		}},
		// The escalation workload of Section 6.1: split routing, where the
		// incremental evaluator splices whole chunk decompositions.
		{"mpeg4-split", apps.MPEG4(), []Options{
			{Routing: route.SplitMin, Objective: MinDelay, CapacityMBps: 500, SwapPasses: 2},
			{Routing: route.SplitAll, Objective: MinDelay, CapacityMBps: 500, SwapPasses: 1},
		}},
		// Capacity far below vopd's heaviest flows: candidate loads cross
		// the capacity mid-sweep, so the prune bound's overload term is
		// live rather than exactly 0.
		{"vopd-tight", apps.VOPD(), []Options{
			{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 150},
			{Routing: route.SplitMin, Objective: MinDelay, CapacityMBps: 150, SwapPasses: 2},
		}},
	}
	ctx := context.Background()
	// One shared Scratch across every fast-side run: reuse across apps,
	// topologies and option sets must never leak state between calls.
	sc := NewScratch()
	for _, tc := range cases {
		lib, err := topology.Library(tc.g.NumCores(), topology.LibraryOptions{IncludeExtras: true})
		if err != nil {
			t.Fatalf("%s: library: %v", tc.app, err)
		}
		for _, topo := range lib {
			for _, opts := range tc.opts {
				fast, err := MapContextWith(ctx, tc.g, topo, opts, sc)
				if err != nil {
					t.Fatalf("%s on %s (%v): incremental: %v", tc.app, topo.Name(), opts.Routing, err)
				}
				ref, err := mapContext(ctx, tc.g, topo, opts, nil, true)
				if err != nil {
					t.Fatalf("%s on %s (%v): reference: %v", tc.app, topo.Name(), opts.Routing, err)
				}
				compareResults(t, tc.app, topo.Name(), opts, fast, ref)
			}
		}
	}
}

func compareResults(t *testing.T, app, topo string, opts Options, fast, ref *Result) {
	t.Helper()
	tag := app + " on " + topo + " (" + opts.Routing.String() + "/" + opts.Objective.String() + ")"
	if len(fast.Assign) != len(ref.Assign) {
		t.Fatalf("%s: assign lengths differ", tag)
	}
	for i := range fast.Assign {
		if fast.Assign[i] != ref.Assign[i] {
			t.Fatalf("%s: assignment differs: %v vs %v", tag, fast.Assign, ref.Assign)
		}
	}
	if fast.SwapsApplied != ref.SwapsApplied {
		t.Errorf("%s: swaps applied %d vs %d", tag, fast.SwapsApplied, ref.SwapsApplied)
	}
	if fast.Cost != ref.Cost {
		t.Errorf("%s: cost %v vs %v", tag, fast.Cost, ref.Cost)
	}
	if fast.AvgHops != ref.AvgHops {
		t.Errorf("%s: avg hops %v vs %v", tag, fast.AvgHops, ref.AvgHops)
	}
	if fast.PowerMW != ref.PowerMW {
		t.Errorf("%s: power %v vs %v", tag, fast.PowerMW, ref.PowerMW)
	}
	if fast.DesignAreaMM2 != ref.DesignAreaMM2 {
		t.Errorf("%s: design area %v vs %v", tag, fast.DesignAreaMM2, ref.DesignAreaMM2)
	}
	if len(fast.Route.LinkLoads) != len(ref.Route.LinkLoads) {
		t.Fatalf("%s: link-load lengths differ", tag)
	}
	for i := range fast.Route.LinkLoads {
		if fast.Route.LinkLoads[i] != ref.Route.LinkLoads[i] {
			t.Fatalf("%s: link %d load %v vs %v", tag, i, fast.Route.LinkLoads[i], ref.Route.LinkLoads[i])
		}
	}
	if fast.BandwidthOK != ref.BandwidthOK || fast.AreaOK != ref.AreaOK || fast.AspectOK != ref.AspectOK {
		t.Errorf("%s: feasibility verdicts differ", tag)
	}
}

// TestIncrementalMatchesReferenceSynthetic widens the shape coverage with
// random applications at partial occupancy (free terminals make
// occupied-free swaps common, the case where a commodity's endpoints move
// without a partner core).
func TestIncrementalMatchesReferenceSynthetic(t *testing.T) {
	ctx := context.Background()
	sc := NewScratch()
	for seed := int64(1); seed <= 4; seed++ {
		g := apps.Synthetic(7+int(seed), 0.3, 600, seed)
		for _, mk := range []struct {
			name string
			topo topology.Topology
		}{
			{"mesh", mustTopo(topology.NewMesh(3, 4))},
			{"hypercube", mustTopo(topology.NewHypercube(4))},
			{"clos", mustTopo(topology.NewClos(4, 4, 4))},
			{"star", mustTopo(topology.NewStar(13))},
		} {
			opts := Options{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 400}
			fast, err := MapContextWith(ctx, g, mk.topo, opts, sc)
			if err != nil {
				t.Fatalf("seed %d on %s: incremental: %v", seed, mk.name, err)
			}
			ref, err := mapContext(ctx, g, mk.topo, opts, nil, true)
			if err != nil {
				t.Fatalf("seed %d on %s: reference: %v", seed, mk.name, err)
			}
			compareResults(t, g.Name(), mk.topo.Name(), opts, fast, ref)
		}
	}
}
