package sim

import (
	"math"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/route"
	"sunmap/internal/topology"
	"sunmap/internal/traffic"
)

// goldenCase is one pinned simulation: a config builder and the exact
// Stats it must produce.
type goldenCase struct {
	name string
	cfg  func(t *testing.T) Config
	want Stats
}

// goldenCfg is the short run every golden case starts from.
func goldenCfg(t *testing.T, topo topology.Topology) Config {
	t.Helper()
	return Config{
		Topo:          topo,
		Routes:        mustRoutes(t, topo),
		Pattern:       traffic.Uniform{},
		InjectionRate: 0.1,
		Seed:          7,
		WarmupCycles:  300,
		MeasureCycles: 1500,
		DrainCycles:   1500,
	}
}

func goldenMesh(t *testing.T) Config {
	return goldenCfg(t, mustTopo(topology.NewMesh(4, 4)))
}

func goldenTorus(t *testing.T) Config {
	return goldenCfg(t, mustTopo(topology.NewTorus(4, 4)))
}

// goldenFault fails the four channels around the 3x3 mesh center
// mid-measurement; with reroute set, packets injected after the fault
// take masked MP routes around it.
func goldenFault(t *testing.T, reroute bool) Config {
	t.Helper()
	topo := mustTopo(topology.NewMesh(3, 3))
	cfg := goldenCfg(t, topo)
	cfg.InjectionRate = 0.2
	down := make([]bool, len(topo.Links()))
	for _, l := range topo.Links() {
		if l.From == 4 || l.To == 4 {
			cfg.FaultLinks = append(cfg.FaultLinks, l.ID)
			down[l.ID] = true
		}
	}
	cfg.FaultCycle = cfg.WarmupCycles + cfg.MeasureCycles/2
	if reroute {
		cfg.FaultRoutes = degradedRoutes(topo, down, cfg.Routes)
	}
	return cfg
}

// goldenTrace is the DSP trace-driven run: skewed SourceShare over the
// mapped ActiveTerminals, routes from an MP mapping result.
func goldenTrace(t *testing.T) Config {
	t.Helper()
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
	cfg := goldenCfg(t, topo)
	cfg.Routes = rt
	cfg.Pattern = tr
	cfg.SourceShare = tr.SourceShare()
	cfg.ActiveTerminals = assign
	return cfg
}

var goldenCases = []goldenCase{
	{"mesh-uniform", goldenMesh, Stats{
		AvgLatencyCycles: 9.811764705882354,
		P95LatencyCycles: 15,
		MeasuredPackets:  595,
		ThroughputFPC:    0.099,
		Cycles:           1812,
	}},
	{"mesh-hotspot", func(t *testing.T) Config {
		cfg := goldenMesh(t)
		cfg.Pattern = traffic.Hotspot{Node: 5, Frac: 0.3}
		return cfg
	}, Stats{
		AvgLatencyCycles: 10.366894197952218,
		P95LatencyCycles: 16,
		MeasuredPackets:  586,
		ThroughputFPC:    0.098,
		Cycles:           1812,
	}},
	{"torus-uniform", func(t *testing.T) Config {
		cfg := goldenTorus(t)
		cfg.InjectionRate = 0.15
		return cfg
	}, Stats{
		AvgLatencyCycles: 9.047777777777778,
		P95LatencyCycles: 14,
		MeasuredPackets:  900,
		ThroughputFPC:    0.15033333333333335,
		Cycles:           1813,
	}},
	{"torus-hotspot", func(t *testing.T) Config {
		cfg := goldenTorus(t)
		cfg.Pattern = traffic.Hotspot{Node: 10, Frac: 0.25}
		return cfg
	}, Stats{
		AvgLatencyCycles: 9.20754716981132,
		P95LatencyCycles: 14,
		MeasuredPackets:  583,
		ThroughputFPC:    0.0975,
		Cycles:           1813,
	}},
	{"clos-transpose", func(t *testing.T) Config {
		cfg := goldenCfg(t, mustTopo(topology.NewClos(4, 4, 4)))
		cfg.Pattern = traffic.Transpose{Cols: 4}
		cfg.InjectionRate = 0.2
		return cfg
	}, Stats{
		AvgLatencyCycles: 9.726161369193154,
		P95LatencyCycles: 15,
		MeasuredPackets:  1227,
		ThroughputFPC:    0.2045,
		Cycles:           1808,
	}},
	{"star-hub", func(t *testing.T) Config {
		return goldenCfg(t, mustTopo(topology.NewStar(6)))
	}, Stats{
		AvgLatencyCycles: 4.4298245614035086,
		P95LatencyCycles: 7,
		MeasuredPackets:  228,
		ThroughputFPC:    0.10133333333333333,
		Cycles:           1801,
	}},
	{"fault-stall", func(t *testing.T) Config { return goldenFault(t, false) }, Stats{
		AvgLatencyCycles:  9.249329758713136,
		P95LatencyCycles:  14,
		MeasuredPackets:   373,
		UnfinishedPackets: 320,
		ThroughputFPC:     0.1114074074074074,
		PreFaultFPC:       0.21155555555555555,
		PostFaultFPC:      0.011259259259259259,
		Saturated:         true,
		Cycles:            3300,
	}},
	{"fault-reroute", func(t *testing.T) Config { return goldenFault(t, true) }, Stats{
		AvgLatencyCycles:  9.216358839050132,
		P95LatencyCycles:  14,
		MeasuredPackets:   379,
		UnfinishedPackets: 314,
		ThroughputFPC:     0.11318518518518518,
		PreFaultFPC:       0.21155555555555555,
		PostFaultFPC:      0.014814814814814815,
		Saturated:         true,
		Cycles:            3300,
	}},
	{"packet-1-flit", func(t *testing.T) Config {
		cfg := goldenMesh(t)
		cfg.PacketFlits = 1
		return cfg
	}, Stats{
		AvgLatencyCycles: 6.389089450461292,
		P95LatencyCycles: 11,
		MeasuredPackets:  2493,
		ThroughputFPC:    0.10379166666666667,
		Cycles:           1811,
	}},
	{"buf-depth-1", func(t *testing.T) Config {
		cfg := goldenMesh(t)
		cfg.BufDepthFlits = 1
		return cfg
	}, Stats{
		AvgLatencyCycles: 17.912605042016807,
		P95LatencyCycles: 32,
		MeasuredPackets:  595,
		ThroughputFPC:    0.09833333333333333,
		Cycles:           1826,
	}},
	{"buf-depth-8", func(t *testing.T) Config {
		cfg := goldenMesh(t)
		cfg.BufDepthFlits = 8
		cfg.InjectionRate = 0.25
		return cfg
	}, Stats{
		AvgLatencyCycles: 11.227422544495715,
		P95LatencyCycles: 18,
		MeasuredPackets:  1517,
		ThroughputFPC:    0.25283333333333335,
		Cycles:           1808,
	}},
	{"dsp-trace", goldenTrace, Stats{
		AvgLatencyCycles: 7.418803418803419,
		P95LatencyCycles: 10,
		MeasuredPackets:  234,
		ThroughputFPC:    0.10444444444444445,
		Cycles:           1808,
	}},
	{"mesh-near-idle", func(t *testing.T) Config {
		cfg := goldenMesh(t)
		cfg.InjectionRate = 0.01
		cfg.Pattern = traffic.BitComplement{}
		cfg.ActiveTerminals = []int{0, 5, 10, 15}
		return cfg
	}, Stats{
		AvgLatencyCycles: 12.8,
		P95LatencyCycles: 16,
		MeasuredPackets:  15,
		ThroughputFPC:    0.010666666666666666,
		Cycles:           1801,
	}},
	{"fault-stall-low-rate", func(t *testing.T) Config {
		cfg := goldenFault(t, false)
		cfg.InjectionRate = 0.03
		return cfg
	}, Stats{
		AvgLatencyCycles:  8,
		P95LatencyCycles:  10,
		MeasuredPackets:   65,
		UnfinishedPackets: 22,
		ThroughputFPC:     0.019555555555555555,
		PreFaultFPC:       0.02785185185185185,
		PostFaultFPC:      0.011259259259259259,
		Saturated:         true,
		Cycles:            3300,
	}},
	{"mesh-saturated", func(t *testing.T) Config {
		cfg := goldenMesh(t)
		cfg.InjectionRate = 0.8
		cfg.DrainCycles = 200
		return cfg
	}, Stats{
		AvgLatencyCycles:  382.45769682726205,
		P95LatencyCycles:  726,
		MeasuredPackets:   3404,
		UnfinishedPackets: 1457,
		ThroughputFPC:     0.5588333333333333,
		Saturated:         true,
		Cycles:            2000,
	}},
}

// TestRunContextGolden pins every Stats field of a table of runs bit for
// bit, so changes to the simulator's internals cannot move its output.
// The table covers direct and Clos (multi-path) routing, the hub
// topology's empty paths, fault injection with and without rerouting,
// extreme packet and buffer sizes, a trace-driven skewed-source run, a
// saturated load, and two mostly idle networks (a near-idle mesh with
// four active terminals and a low-rate fault stall), where routers with
// empty input buffers are the common case.
func TestRunContextGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Run(tc.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			if !sameStats(*got, tc.want) {
				t.Errorf("stats drifted:\n got %#v\nwant %#v", *got, tc.want)
			}
		})
	}
}

// sameStats compares Stats exactly, floats by their bit patterns.
func sameStats(a, b Stats) bool {
	bits := math.Float64bits
	return bits(a.AvgLatencyCycles) == bits(b.AvgLatencyCycles) &&
		bits(a.P95LatencyCycles) == bits(b.P95LatencyCycles) &&
		a.MeasuredPackets == b.MeasuredPackets &&
		a.UnfinishedPackets == b.UnfinishedPackets &&
		bits(a.ThroughputFPC) == bits(b.ThroughputFPC) &&
		bits(a.PreFaultFPC) == bits(b.PreFaultFPC) &&
		bits(a.PostFaultFPC) == bits(b.PostFaultFPC) &&
		a.Saturated == b.Saturated &&
		a.Cycles == b.Cycles
}
