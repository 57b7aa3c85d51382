package mapping

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sunmap/internal/apps"
	"sunmap/internal/graph"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

func mustTopo(t topology.Topology, err error) topology.Topology {
	if err != nil {
		panic(err)
	}
	return t
}

// checkValidMapping verifies the one-to-one property of Definition 1's map
// function: every core on a distinct, in-range terminal.
func checkValidMapping(t *testing.T, res *Result, numCores int) {
	t.Helper()
	if len(res.Assign) != numCores {
		t.Fatalf("assignment has %d entries, want %d", len(res.Assign), numCores)
	}
	seen := make(map[int]bool)
	for c, term := range res.Assign {
		if term < 0 || term >= res.Topology.NumTerminals() {
			t.Errorf("core %d on invalid terminal %d", c, term)
		}
		if seen[term] {
			t.Errorf("terminal %d hosts two cores", term)
		}
		seen[term] = true
	}
}

func TestMapVOPDOnMesh(t *testing.T) {
	g := apps.VOPD()
	topo := mustTopo(topology.NewMesh(3, 4))
	res, err := Map(g, topo, Options{
		Routing:      route.MinPath,
		Objective:    MinDelay,
		CapacityMBps: apps.DefaultCapacityMBps,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkValidMapping(t, res, 12)
	if !res.BandwidthOK {
		t.Errorf("VOPD on mesh infeasible (max load %g)", res.Route.MaxLinkLoad)
	}
	// Fig. 3(d): mesh average hops around 2.25; allow a generous band.
	if res.AvgHops < 1.8 || res.AvgHops > 3.0 {
		t.Errorf("VOPD mesh avg hops = %g, want ~2.2", res.AvgHops)
	}
	// Fig. 3(d): design area ~55 mm²; allow a generous band.
	if res.DesignAreaMM2 < 40 || res.DesignAreaMM2 > 85 {
		t.Errorf("VOPD mesh design area = %g mm², want ~55", res.DesignAreaMM2)
	}
	// Fig. 3(d): power ~372 mW; allow a generous band.
	if res.PowerMW < 150 || res.PowerMW > 700 {
		t.Errorf("VOPD mesh power = %g mW, want ~370", res.PowerMW)
	}
	if res.Floorplan == nil {
		t.Error("final result missing exact floorplan")
	}
}

func TestSwapImprovesOverGreedy(t *testing.T) {
	// The swap phase must never worsen the seed mapping, and on VOPD it
	// should strictly improve it.
	g := apps.VOPD()
	topo := mustTopo(topology.NewMesh(3, 4))
	seed, err := Map(g, topo, Options{Routing: route.MinPath, Objective: MinDelay, SwapPasses: -1})
	if err != nil {
		t.Fatal(err)
	}
	_ = seed
	zero, err := Map(g, topo, Options{Routing: route.MinPath, Objective: MinDelay, SwapPasses: 1})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Map(g, topo, Options{Routing: route.MinPath, Objective: MinDelay})
	if err != nil {
		t.Fatal(err)
	}
	if full.AvgHops > zero.AvgHops+1e-9 {
		t.Errorf("more passes worsened hops: %g vs %g", full.AvgHops, zero.AvgHops)
	}
}

func TestMapButterflyConstantHops(t *testing.T) {
	g := apps.VOPD()
	topo := mustTopo(topology.NewButterfly(4, 2))
	res, err := Map(g, topo, Options{
		Routing:      route.MinPath,
		Objective:    MinDelay,
		CapacityMBps: apps.DefaultCapacityMBps,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkValidMapping(t, res, 12)
	// Every butterfly route is exactly 2 hops (Section 6.1).
	if res.AvgHops != 2.0 {
		t.Errorf("butterfly avg hops = %g, want exactly 2", res.AvgHops)
	}
	if !res.BandwidthOK {
		t.Errorf("VOPD on 4-ary 2-fly must be feasible (max load %g)", res.Route.MaxLinkLoad)
	}
}

func TestMPEG4SinglePathInfeasibleSplitFeasible(t *testing.T) {
	// Section 6.1: all topologies violate bandwidth under min-path; the
	// mesh becomes feasible with split traffic; the butterfly never does.
	g := apps.MPEG4()
	mesh := mustTopo(topology.NewMesh(3, 4))
	mp, err := Map(g, mesh, Options{
		Routing:      route.MinPath,
		Objective:    MinDelay,
		CapacityMBps: apps.DefaultCapacityMBps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if mp.BandwidthOK {
		t.Errorf("MPEG4 min-path on mesh reported feasible (max load %g); 910 > 500", mp.Route.MaxLinkLoad)
	}
	sm, err := Map(g, mesh, Options{
		Routing:      route.SplitMin,
		Objective:    MinDelay,
		CapacityMBps: apps.DefaultCapacityMBps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sm.BandwidthOK {
		t.Errorf("MPEG4 split-min on mesh infeasible (max load %g), paper finds a mapping", sm.Route.MaxLinkLoad)
	}
	bfly := mustTopo(topology.NewButterfly(4, 2))
	bf, err := Map(g, bfly, Options{
		Routing:      route.SplitAll,
		Objective:    MinDelay,
		CapacityMBps: apps.DefaultCapacityMBps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bf.BandwidthOK {
		t.Error("MPEG4 on butterfly reported feasible; no path diversity exists")
	}
}

func TestObjectivesChangeOutcome(t *testing.T) {
	// Different objectives must evaluate (and usually pick) different
	// cost values; at minimum the reported Cost fields follow their
	// metric.
	g := apps.VOPD()
	topo := mustTopo(topology.NewMesh(3, 4))
	delay, err := Map(g, topo, Options{Routing: route.MinPath, Objective: MinDelay})
	if err != nil {
		t.Fatal(err)
	}
	area, err := Map(g, topo, Options{Routing: route.MinPath, Objective: MinArea})
	if err != nil {
		t.Fatal(err)
	}
	power, err := Map(g, topo, Options{Routing: route.MinPath, Objective: MinPower})
	if err != nil {
		t.Fatal(err)
	}
	// Cost tracks the objective's metric up to the tiny load-balance
	// tie-break term (< 1e-3).
	if diff := delay.Cost - delay.AvgHops; diff < 0 || diff > 1e-3 {
		t.Errorf("delay cost %g vs avg hops %g", delay.Cost, delay.AvgHops)
	}
	if diff := area.Cost - area.DesignAreaMM2; diff < 0 || diff > 1e-3 {
		t.Errorf("area cost %g vs design area %g", area.Cost, area.DesignAreaMM2)
	}
	if diff := power.Cost - power.PowerMW; diff < 0 || diff > 1e-3 {
		t.Errorf("power cost %g vs power %g", power.Cost, power.PowerMW)
	}
	// Both searches are heuristic, so min-power may stumble on a slightly
	// lower-hop mapping than min-delay; they must stay within 15% though,
	// since switch power strongly correlates with hop count.
	if delay.AvgHops > power.AvgHops*1.15 {
		t.Errorf("min-delay hops %g far above min-power hops %g", delay.AvgHops, power.AvgHops)
	}
}

func TestWeightedObjective(t *testing.T) {
	g := apps.VOPD()
	topo := mustTopo(topology.NewMesh(3, 4))
	res, err := Map(g, topo, Options{
		Routing:   route.MinPath,
		Objective: Weighted,
		Weights:   Weights{Delay: 1, Area: 1, Power: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	checkValidMapping(t, res, 12)
	if res.Cost <= 0 {
		t.Errorf("weighted cost = %g, want positive", res.Cost)
	}
}

func TestMapErrors(t *testing.T) {
	g := apps.VOPD()
	small := mustTopo(topology.NewMesh(2, 2))
	if _, err := Map(g, small, Options{}); err == nil {
		t.Error("12 cores on 4 terminals accepted")
	}
	var empty graph.CoreGraph
	topo := mustTopo(topology.NewMesh(3, 4))
	if _, err := Map(&empty, topo, Options{}); err == nil {
		t.Error("empty graph accepted")
	}
}

func TestDeterminism(t *testing.T) {
	g := apps.MPEG4()
	topo := mustTopo(topology.NewMesh(3, 4))
	a, err := Map(g, topo, Options{Routing: route.SplitMin, Objective: MinPower, CapacityMBps: 500})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Map(g, topo, Options{Routing: route.SplitMin, Objective: MinPower, CapacityMBps: 500})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("non-deterministic mapping: %v vs %v", a.Assign, b.Assign)
		}
	}
	if a.PowerMW != b.PowerMW || a.AvgHops != b.AvgHops {
		t.Error("non-deterministic metrics")
	}
}

func TestGreedyInitialValidProperty(t *testing.T) {
	// Property: greedy initial mapping is a valid injection for random
	// synthetic apps on random topologies.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(8)
		g := apps.Synthetic(n, 0.25, 400, seed)
		var topo topology.Topology
		var err error
		switch rng.Intn(4) {
		case 0:
			topo, err = topology.NewMesh(3, 4)
		case 1:
			topo, err = topology.NewHypercube(4)
		case 2:
			topo, err = topology.NewButterfly(2, 4)
		default:
			topo, err = topology.NewClos(4, 4, 4)
		}
		if err != nil || g.NumCores() > topo.NumTerminals() {
			return true // skip impossible combos
		}
		assign := greedyInitial(g, topo, NewScratch())
		seen := make(map[int]bool)
		for _, term := range assign {
			if term < 0 || term >= topo.NumTerminals() || seen[term] {
				return false
			}
			seen[term] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPartialOccupancyHypercubeMapping(t *testing.T) {
	g := apps.VOPD() // 12 cores on 16 terminals
	topo := mustTopo(topology.NewHypercube(4))
	res, err := Map(g, topo, Options{
		Routing:      route.MinPath,
		Objective:    MinDelay,
		CapacityMBps: apps.DefaultCapacityMBps,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkValidMapping(t, res, 12)
	if !res.BandwidthOK {
		t.Errorf("VOPD on hypercube infeasible (max load %g)", res.Route.MaxLinkLoad)
	}
}

// TestMapLeavesSharedAppStateIntact maps one application concurrently,
// under every routing function and both sweeps, on workers with their
// own Scratch (run with -race). Every Map call reads the graph's shared
// core and commodity lists; none may change them, and all workers must
// agree.
func TestMapLeavesSharedAppStateIntact(t *testing.T) {
	g := apps.VOPD()
	wantCores, wantComms := g.Cores(), g.Commodities()
	topo := mustTopo(topology.NewMesh(3, 4))
	fns := []route.Function{route.DimensionOrdered, route.MinPath, route.SplitMin, route.SplitAll}
	results := make([][2]*Result, len(fns))
	errs := make(chan error, 2*len(fns))
	for i, fn := range fns {
		for j, reference := range []bool{false, true} {
			go func() {
				opts := Options{Routing: fn, Objective: MinPower, CapacityMBps: 500, SwapPasses: 1}
				res, err := mapContext(context.Background(), g, topo, opts, nil, reference)
				results[i][j] = res
				errs <- err
			}()
		}
	}
	for range 2 * len(fns) {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range results {
		if !reflect.DeepEqual(r[0].Assign, r[1].Assign) || r[0].Cost != r[1].Cost {
			t.Errorf("%v: incremental and reference sweeps disagree", fns[i])
		}
	}
	cores, comms, _ := g.Shared()
	if !reflect.DeepEqual(cores, wantCores) || !reflect.DeepEqual(comms, wantComms) {
		t.Error("a Map call changed the application's shared core or commodity list")
	}
}
