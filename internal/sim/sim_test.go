package sim

import (
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/route"
	"sunmap/internal/topology"
	"sunmap/internal/traffic"
)

func mustTopo(t topology.Topology, err error) topology.Topology {
	if err != nil {
		panic(err)
	}
	return t
}

func mustRoutes(t *testing.T, topo topology.Topology) *RouteTable {
	t.Helper()
	rt, err := BuildRoutes(topo)
	if err != nil {
		t.Fatalf("BuildRoutes(%s): %v", topo.Name(), err)
	}
	return rt
}

func baseCfg(topo topology.Topology, rt *RouteTable) Config {
	return Config{
		Topo:          topo,
		Routes:        rt,
		Pattern:       traffic.Uniform{},
		InjectionRate: 0.1,
		Seed:          42,
		WarmupCycles:  500,
		MeasureCycles: 2000,
		DrainCycles:   3000,
	}
}

func TestBuildRoutesCoverAllPairs(t *testing.T) {
	for _, topo := range []topology.Topology{
		mustTopo(topology.NewMesh(4, 4)),
		mustTopo(topology.NewTorus(4, 4)),
		mustTopo(topology.NewHypercube(4)),
		mustTopo(topology.NewButterfly(4, 2)),
		mustTopo(topology.NewClos(4, 4, 4)),
	} {
		rt := mustRoutes(t, topo)
		n := topo.NumTerminals()
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				paths := rt.Paths(s, d)
				if len(paths) == 0 {
					t.Fatalf("%s: no route %d->%d", topo.Name(), s, d)
				}
				var w float64
				for _, p := range paths {
					w += p.Weight
					// Path must be link-consistent.
					links := topo.Links()
					cur := topo.InjectRouter(s)
					for _, id := range p.LinkIDs {
						if links[id].From != cur {
							t.Fatalf("%s %d->%d: discontinuous path", topo.Name(), s, d)
						}
						cur = links[id].To
					}
					if cur != topo.EjectRouter(d) {
						t.Fatalf("%s %d->%d: path ends at router %d", topo.Name(), s, d, cur)
					}
				}
				if w < 0.999 || w > 1.001 {
					t.Errorf("%s %d->%d: path weights sum to %g", topo.Name(), s, d, w)
				}
			}
		}
	}
}

func TestClosRoutesUseAllMiddles(t *testing.T) {
	topo := mustTopo(topology.NewClos(4, 4, 4))
	rt := mustRoutes(t, topo)
	if got := len(rt.Paths(0, 15)); got != 4 {
		t.Errorf("clos pair has %d paths, want 4 (one per middle)", got)
	}
}

func TestLowLoadLatencyNearZeroLoad(t *testing.T) {
	// At 2% injection the network is uncontended: latency must be within
	// a small factor of the no-load bound (hops * perHop + serialization).
	topo := mustTopo(topology.NewMesh(4, 4))
	cfg := baseCfg(topo, mustRoutes(t, topo))
	cfg.InjectionRate = 0.02
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.MeasuredPackets == 0 {
		t.Fatal("no packets measured")
	}
	if st.Saturated {
		t.Error("saturated at 2% load")
	}
	// Mesh-4x4 uniform: average ~3.7 links, 2 cycles each, + 4 flits
	// serialization + injection overhead: ~15 cycles no-load.
	if st.AvgLatencyCycles < 5 || st.AvgLatencyCycles > 40 {
		t.Errorf("low-load latency = %g cycles, want ~10-20", st.AvgLatencyCycles)
	}
}

func TestLatencyMonotoneInLoad(t *testing.T) {
	topo := mustTopo(topology.NewMesh(4, 4))
	rt := mustRoutes(t, topo)
	cfg := baseCfg(topo, rt)
	cfg.Pattern = traffic.Transpose{Cols: 4}
	stats, err := Sweep(cfg, []float64{0.05, 0.2, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if !(stats[0].AvgLatencyCycles < stats[1].AvgLatencyCycles &&
		stats[1].AvgLatencyCycles < stats[2].AvgLatencyCycles) {
		t.Errorf("latency not increasing with load: %g, %g, %g",
			stats[0].AvgLatencyCycles, stats[1].AvgLatencyCycles, stats[2].AvgLatencyCycles)
	}
}

func TestDeterministicRuns(t *testing.T) {
	topo := mustTopo(topology.NewTorus(4, 4))
	rt := mustRoutes(t, topo)
	cfg := baseCfg(topo, rt)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgLatencyCycles != b.AvgLatencyCycles || a.MeasuredPackets != b.MeasuredPackets {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
	cfg.Seed = 43
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgLatencyCycles == c.AvgLatencyCycles && a.MeasuredPackets == c.MeasuredPackets {
		t.Error("different seeds produced identical statistics")
	}
}

func TestThroughputTracksOfferedLoadBelowSaturation(t *testing.T) {
	topo := mustTopo(topology.NewMesh(4, 4))
	cfg := baseCfg(topo, mustRoutes(t, topo))
	cfg.InjectionRate = 0.1
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.ThroughputFPC < 0.05 || st.ThroughputFPC > 0.15 {
		t.Errorf("throughput %g flits/cycle/node at 0.1 offered", st.ThroughputFPC)
	}
}

func TestClosOutperformsButterflyUnderAdversarialLoad(t *testing.T) {
	// The headline of Fig. 8(b): with adversarial traffic at high
	// injection, the Clos's middle-stage diversity keeps latency below
	// the butterfly's single-path latency.
	bfly := mustTopo(topology.NewButterfly(4, 2))
	clos := mustTopo(topology.NewClos(4, 4, 4))
	rate := 0.30
	bcfg := baseCfg(bfly, mustRoutes(t, bfly))
	bcfg.Pattern = traffic.Adversarial(bfly)
	bcfg.InjectionRate = rate
	bst, err := Run(bcfg)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := baseCfg(clos, mustRoutes(t, clos))
	ccfg.Pattern = traffic.Adversarial(clos)
	ccfg.InjectionRate = rate
	cst, err := Run(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if cst.AvgLatencyCycles >= bst.AvgLatencyCycles && !bst.Saturated {
		t.Errorf("clos latency %g >= butterfly %g at rate %g",
			cst.AvgLatencyCycles, bst.AvgLatencyCycles, rate)
	}
}

func TestTraceDrivenDSP(t *testing.T) {
	// Trace-driven simulation of the DSP app on a mesh using the
	// optimized mapping's flow paths (the Section 6.4 methodology).
	g := apps.DSPFilter()
	topo := mustTopo(topology.NewMesh(2, 3))
	assign := []int{0, 1, 2, 3, 4, 5}
	res, err := route.Route(topo, assign, g.Commodities(), route.Options{Function: route.MinPath})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := BuildRoutesFromResult(topo, assign, res)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := traffic.NewTrace(g, assign)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg(topo, rt)
	cfg.Pattern = tr
	cfg.SourceShare = tr.SourceShare()
	cfg.ActiveTerminals = assign
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.MeasuredPackets == 0 {
		t.Fatal("trace run measured no packets")
	}
	if st.AvgLatencyCycles <= 0 {
		t.Errorf("latency = %g", st.AvgLatencyCycles)
	}
}

func TestRunValidation(t *testing.T) {
	topo := mustTopo(topology.NewMesh(2, 2))
	rt := mustRoutes(t, topo)
	if _, err := Run(Config{Routes: rt, Pattern: traffic.Uniform{}, InjectionRate: 0.1}); err == nil {
		t.Error("nil topology accepted")
	}
	if _, err := Run(Config{Topo: topo, Pattern: traffic.Uniform{}, InjectionRate: 0.1}); err == nil {
		t.Error("nil routes accepted")
	}
	if _, err := Run(Config{Topo: topo, Routes: rt, InjectionRate: 0.1}); err == nil {
		t.Error("nil pattern accepted")
	}
	cfg := baseCfg(topo, rt)
	cfg.InjectionRate = 1.5
	if _, err := Run(cfg); err == nil {
		t.Error("injection rate > 1 accepted")
	}
	cfg = baseCfg(topo, rt)
	cfg.SourceShare = []float64{0, 0, 0, 0}
	if _, err := Run(cfg); err == nil {
		t.Error("all-zero source share accepted")
	}
}

func TestStarHubSimulation(t *testing.T) {
	// Degenerate topology: no inter-router links at all; packets eject
	// directly at the hub. The simulator must still deliver traffic.
	topo := mustTopo(topology.NewStar(6))
	rt := mustRoutes(t, topo)
	cfg := baseCfg(topo, rt)
	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.MeasuredPackets == 0 {
		t.Error("star delivered no packets")
	}
}

// TestRunContextAllocsFlat pins the simulator's allocations to the run,
// not the cycle: doubling the measurement window may add only the
// amortized growth of the per-run latency and packet slices.
func TestRunContextAllocsFlat(t *testing.T) {
	topo := mustTopo(topology.NewMesh(4, 4))
	cfg := baseCfg(topo, mustRoutes(t, topo))
	cfg.InjectionRate = 0.2
	allocs := func(measure int) float64 {
		c := cfg
		c.MeasureCycles = measure
		return testing.AllocsPerRun(3, func() {
			if _, err := Run(c); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(2000), allocs(4000)
	if long-short > 16 {
		t.Errorf("doubling MeasureCycles added %.0f allocations (%.0f -> %.0f), want <= 16", long-short, short, long)
	}
}

// TestBuildRoutesAllocs pins route-table construction to a few
// allocations per ordered pair: its own path records, not a fresh
// router and terminal-pair cache for every pair.
func TestBuildRoutesAllocs(t *testing.T) {
	topo := mustTopo(topology.NewMesh(4, 4))
	n := topo.NumTerminals()
	pairs := float64(n * (n - 1))
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := BuildRoutes(topo); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3*pairs {
		t.Errorf("BuildRoutes made %.0f allocations for %.0f pairs, want <= %.0f", allocs, pairs, 3*pairs)
	}
}
