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
	weighted := Weights{Delay: 1, Area: 1, Power: 1}
	cases := []struct {
		app   string
		g     *graph.CoreGraph
		topos []string // nil: the whole library
		opts  []Options
	}{
		{"vopd", apps.VOPD(), nil, []Options{
			{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 500},
			{Routing: route.MinPath, Objective: Weighted, Weights: weighted, CapacityMBps: 500},
			{Routing: route.DimensionOrdered, Objective: MinPower, CapacityMBps: 500},
		}},
		{"dsp", apps.DSPFilter(), nil, []Options{
			{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 500},
			{Routing: route.MinPath, Objective: MinArea},
			{Routing: route.SplitMin, Objective: MinDelay, CapacityMBps: 500},
			// Internal callers skip request validation. A negative weight
			// makes the score non-monotone, so the bound must stay off.
			{Routing: route.MinPath, Objective: Weighted, Weights: Weights{Delay: 1, Area: -2, Power: 1}, CapacityMBps: 500},
		}},
		{"mpeg4", apps.MPEG4(), nil, []Options{
			{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 500},
			{Routing: route.MinPath, Objective: MinPower, CapacityMBps: 500},
		}},
		// The escalation workload of Section 6.1: split routing, where the
		// incremental evaluator splices whole chunk decompositions.
		{"mpeg4-split", apps.MPEG4(), nil, []Options{
			{Routing: route.SplitMin, Objective: MinDelay, CapacityMBps: 500, SwapPasses: 2},
			{Routing: route.SplitAll, Objective: MinDelay, CapacityMBps: 500, SwapPasses: 1},
		}},
		// Every objective's bound under split routing, whose chunk
		// structure the bound's power and load terms read.
		{"vopd-split", apps.VOPD(), nil, []Options{
			{Routing: route.SplitMin, Objective: Weighted, Weights: weighted, CapacityMBps: 500},
			{Routing: route.SplitMin, Objective: MinArea, CapacityMBps: 500},
			{Routing: route.SplitMin, Objective: MinPower, CapacityMBps: 500},
		}},
		// Capacity far below vopd's heaviest flows: candidate loads cross
		// the capacity mid-sweep, so the bound's overload term is live
		// rather than exactly 0.
		{"vopd-tight", apps.VOPD(), nil, []Options{
			{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 150},
			{Routing: route.SplitMin, Objective: MinDelay, CapacityMBps: 150, SwapPasses: 2},
			{Routing: route.MinPath, Objective: Weighted, Weights: weighted, CapacityMBps: 150},
			{Routing: route.MinPath, Objective: MinArea, CapacityMBps: 150},
			{Routing: route.MinPath, Objective: MinPower, CapacityMBps: 150},
		}},
		// Clos DO picks the middle switch from the terminal IDs, so a
		// swap between two terminals of one edge switch changes the
		// design: the sweep must evaluate it, not skip it as it does
		// under the load-aware functions.
		{"netproc-do", apps.NetProc(), []string{"clos-m4n4r4", "butterfly-4ary2fly"}, []Options{
			{Routing: route.DimensionOrdered, Objective: MinDelay, CapacityMBps: 500},
			{Routing: route.DimensionOrdered, Objective: Weighted, Weights: weighted, CapacityMBps: 500},
		}},
		// Spare terminals on butterflies and Clos networks, under every
		// routing function and objective: core-core swaps reuse the
		// baseline's switch terms and delta bound suffixes, moves onto a
		// free terminal recompute them and hit the same-design memo, and
		// every butterfly pair (and every Clos pair on one edge switch)
		// has a single path, so MP and SM splice it past diverged links.
		{"vopd-spare", apps.VOPD(), []string{"butterfly-3ary3fly", "clos-m3n4r5"}, everyOption(2)},
		{"netproc-spare", apps.NetProc(), []string{"butterfly-3ary3fly", "clos-m3n4r5"}, everyOption(1)},
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
		if tc.topos != nil {
			lib = lib[:0]
			for _, name := range tc.topos {
				lib = append(lib, mustTopo(topology.ByName(name)))
			}
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

// everyOption lists every routing function under every objective at
// capacity 500, with split routing capped at splitPasses swap passes to
// keep the reference side short.
func everyOption(splitPasses int) []Options {
	var out []Options
	for _, fn := range []route.Function{route.MinPath, route.SplitMin, route.SplitAll, route.DimensionOrdered} {
		for _, obj := range []Objective{MinDelay, MinArea, MinPower, Weighted} {
			o := Options{Routing: fn, Objective: obj, Weights: Weights{Delay: 1, Area: 1, Power: 1}, CapacityMBps: 500}
			if fn == route.SplitMin || fn == route.SplitAll {
				o.SwapPasses = splitPasses
			}
			out = append(out, o)
		}
	}
	return out
}

// TestIncrementalMatchesReferencePassCap covers the SwapPasses cap
// binding before the sweep converges: the incremental sweep's
// convergence stop must never outlast or undercut the cap. It also checks
// that the cap does bind on some topology, so the case stays meaningful.
func TestIncrementalMatchesReferencePassCap(t *testing.T) {
	ctx := context.Background()
	g := apps.MPEG4()
	lib, err := topology.Library(g.NumCores(), topology.LibraryOptions{IncludeExtras: true})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	for _, passes := range []int{1, 2} {
		bound := false
		for _, topo := range lib {
			for _, obj := range []Objective{MinDelay, MinPower} {
				opts := Options{Routing: route.MinPath, Objective: obj, CapacityMBps: 500, SwapPasses: passes}
				fast, err := MapContextWith(ctx, g, topo, opts, sc)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := mapContext(ctx, g, topo, opts, nil, true)
				if err != nil {
					t.Fatal(err)
				}
				compareResults(t, g.Name(), topo.Name(), opts, fast, ref)
				opts.SwapPasses = 0
				free, err := MapContextWith(ctx, g, topo, opts, sc)
				if err != nil {
					t.Fatal(err)
				}
				bound = bound || free.SwapsApplied > fast.SwapsApplied
			}
		}
		if !bound {
			t.Errorf("SwapPasses %d never stops a sweep before convergence on mpeg4's library", passes)
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
// without a partner core), under every objective.
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
			for _, obj := range []Objective{MinDelay, MinArea, MinPower, Weighted} {
				opts := Options{Routing: route.MinPath, Objective: obj, CapacityMBps: 400,
					Weights: Weights{Delay: 1, Area: 0.5, Power: 2}}
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
}

// TestWorkCountsPartitionReference checks the sweep's candidate counters
// against the reference sweep: evaluated, pruned (before or part-way
// through routing), tied (before or part-way through routing) and skipped
// (after convergence, router-equivalent, same design) must sum to the
// candidates the reference evaluates. Each load-aware case must also make
// both skips fire, and the single-path splice on butterflies (a Clos pair
// has one path per middle switch), so the partition covers them. Each
// min-delay case on a Clos network or a butterfly must make a tie
// certificate fire, and never the mid-route one under SM; no other case
// may fire either. FuzzSweepMatchesReference checks the partition on
// random inputs.
func TestWorkCountsPartitionReference(t *testing.T) {
	ctx := context.Background()
	minDelay := func(fn route.Function) Options {
		return Options{Routing: fn, Objective: MinDelay, CapacityMBps: 500}
	}
	for _, tc := range []struct {
		g    *graph.CoreGraph
		topo string
		opts Options
	}{
		{apps.VOPD(), "butterfly-3ary3fly", minDelay(route.MinPath)},
		{apps.VOPD(), "clos-m3n4r5", Options{Routing: route.SplitMin, Objective: MinPower, CapacityMBps: 500}},
		{apps.NetProc(), "butterfly-3ary3fly", Options{Routing: route.SplitMin, Objective: Weighted,
			Weights: Weights{Delay: 1, Area: 1, Power: 1}, CapacityMBps: 500}},
		{apps.VOPD(), "clos-m3n4r5", minDelay(route.MinPath)},
		{apps.VOPD(), "clos-m3n4r5", minDelay(route.DimensionOrdered)},
		{apps.VOPD(), "butterfly-3ary3fly", minDelay(route.SplitMin)},
		{apps.VOPD(), "butterfly-3ary3fly", minDelay(route.DimensionOrdered)},
	} {
		topo := mustTopo(topology.ByName(tc.topo))
		tag := tc.g.Name() + " on " + tc.topo + " (" + tc.opts.Routing.String() + "/" + tc.opts.Objective.String() + ")"
		fast, ref := NewScratch(), NewScratch()
		if _, err := MapContextWith(ctx, tc.g, topo, tc.opts, fast); err != nil {
			t.Fatal(err)
		}
		if _, err := mapContext(ctx, tc.g, topo, tc.opts, ref, true); err != nil {
			t.Fatal(err)
		}
		w := fast.inc.work
		if tc.opts.Routing != route.DimensionOrdered &&
			(w.routerEquiv == 0 || w.sameDesign == 0 || w.singlePath == 0 && topo.Kind() == topology.Butterfly) {
			t.Errorf("%s: a skip or splice never fired: %+v", tag, w)
		}
		switch {
		case tc.opts.Objective != MinDelay:
			if w.tieEarly+w.tieMid != 0 {
				t.Errorf("%s: a tie certificate fired outside min-delay: %+v", tag, w)
			}
		case w.tieEarly+w.tieMid == 0:
			t.Errorf("%s: no tie certificate fired: %+v", tag, w)
		case tc.opts.Routing == route.SplitMin && w.tieMid != 0:
			t.Errorf("%s: the mid-route tie certificate fired under SM: %+v", tag, w)
		}
		checkPartition(t, tag, w, ref.inc.work.reference)
	}
}

// checkPartition checks that the incremental sweep's candidate counters
// w sum to want, the reference sweep's candidate count.
func checkPartition(t *testing.T, tag string, w workCounts, want int) {
	t.Helper()
	if got := w.evaluated + w.prunedEarly + w.prunedMid + w.converged + w.routerEquiv + w.sameDesign + w.tieEarly + w.tieMid; got != want {
		t.Errorf("%s: counters sum to %d candidates, the reference evaluated %d: %+v", tag, got, want, w)
	}
}
