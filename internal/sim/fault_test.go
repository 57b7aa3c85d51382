package sim

// Fault-injection and RNG-injection tests: the simulator half of the
// fault subsystem (throughput before/after a mid-run failure) and the
// determinism contract fault experiments lean on.

import (
	"math/rand"
	"reflect"
	"testing"

	"sunmap/internal/graph"
	"sunmap/internal/route"
	"sunmap/internal/topology"
	"sunmap/internal/traffic"
)

func faultTestConfig(t *testing.T) Config {
	t.Helper()
	topo, err := topology.NewMesh(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := BuildRoutes(topo)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Topo:          topo,
		Routes:        rt,
		Pattern:       traffic.Uniform{},
		InjectionRate: 0.2,
		WarmupCycles:  200,
		MeasureCycles: 1200,
		DrainCycles:   600,
		Seed:          5,
	}
}

// TestInjectedRNGReproduces pins that a caller-supplied RNG factory is
// used and reproduces the default source byte-identically when it wraps
// the same generator.
func TestInjectedRNGReproduces(t *testing.T) {
	cfg := faultTestConfig(t)
	def, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	cfg.NewRNG = func(seed int64) RNG {
		calls++
		return rand.New(rand.NewSource(seed))
	}
	injected, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("RNG factory invoked %d times, want 1", calls)
	}
	if !reflect.DeepEqual(def, injected) {
		t.Errorf("injected math/rand source diverged from default:\n%+v\n%+v", def, injected)
	}
	// A different source must actually steer the run.
	cfg.NewRNG = func(seed int64) RNG { return rand.New(rand.NewSource(seed + 999)) }
	other, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(def, other) {
		t.Error("a different RNG source produced identical statistics")
	}
}

// TestFaultInjectionDegradesThroughput fails the four channels around
// the mesh center mid-measurement and checks the before/after split:
// healthy throughput before the fault, a collapse after it, stalled
// packets at the end.
func TestFaultInjectionDegradesThroughput(t *testing.T) {
	cfg := faultTestConfig(t)
	var faulty []int
	for _, l := range cfg.Topo.Links() {
		if l.From == 4 || l.To == 4 {
			faulty = append(faulty, l.ID)
		}
	}
	cfg.FaultCycle = cfg.WarmupCycles + cfg.MeasureCycles/2
	cfg.FaultLinks = faulty

	st, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.PreFaultFPC <= 0 {
		t.Fatalf("no pre-fault throughput: %+v", st)
	}
	if st.PostFaultFPC >= st.PreFaultFPC {
		t.Errorf("post-fault throughput %g did not drop below pre-fault %g",
			st.PostFaultFPC, st.PreFaultFPC)
	}
	if st.UnfinishedPackets == 0 {
		t.Error("severing the mesh center stranded no packets")
	}

	// Sanity: the same run without the fault reports no split and more
	// delivered traffic.
	cfg.FaultCycle = 0
	cfg.FaultLinks = nil
	clean, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if clean.PreFaultFPC != 0 || clean.PostFaultFPC != 0 {
		t.Errorf("fault-free run reports a throughput split: %+v", clean)
	}
	if clean.ThroughputFPC <= st.ThroughputFPC {
		t.Errorf("fault-free throughput %g not above faulted %g",
			clean.ThroughputFPC, st.ThroughputFPC)
	}
}

// TestFaultReroutesRecover checks degraded-mode rerouting: with a
// FaultRoutes table routed around the down links (the same masked MP
// rerouting the fault subsystem's sweep performs), packets injected
// after the fault keep flowing, beating the stall-only run.
func TestFaultReroutesRecover(t *testing.T) {
	cfg := faultTestConfig(t)
	topo := cfg.Topo
	var faulty []int
	downMask := make([]bool, len(topo.Links()))
	for _, l := range topo.Links() {
		if l.From == 4 || l.To == 4 {
			faulty = append(faulty, l.ID)
			downMask[l.ID] = true
		}
	}
	cfg.FaultCycle = cfg.WarmupCycles + cfg.MeasureCycles/2
	cfg.FaultLinks = faulty

	stalled, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.FaultRoutes = degradedRoutes(topo, downMask, cfg.Routes)
	rerouted, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rerouted.PostFaultFPC <= stalled.PostFaultFPC {
		t.Errorf("rerouted post-fault throughput %g not above stall-only %g",
			rerouted.PostFaultFPC, stalled.PostFaultFPC)
	}
	if rerouted.UnfinishedPackets > stalled.UnfinishedPackets {
		t.Errorf("rerouting stranded more packets (%d) than stalling (%d)",
			rerouted.UnfinishedPackets, stalled.UnfinishedPackets)
	}
}

// degradedRoutes is the degraded-mode table around the down links:
// masked MP rerouting per pair. Pairs that cannot avoid the failure keep
// their fallback paths and stall.
func degradedRoutes(topo topology.Topology, down []bool, fallback *RouteTable) *RouteTable {
	n := topo.NumTerminals()
	degraded := &RouteTable{n: n, paths: make([][]Path, n*n)}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			res, err := route.Route(topo, []int{s, d},
				[]graph.Commodity{{ID: 0, Src: 0, Dst: 1, ValueMBps: 1}},
				route.Options{Function: route.MinPath, DownLinks: down})
			if err != nil {
				degraded.paths[s*n+d] = fallback.Paths(s, d)
				continue
			}
			for _, p := range res.Paths {
				degraded.paths[s*n+d] = append(degraded.paths[s*n+d], Path{
					LinkIDs: append([]int(nil), p.LinkIDs...),
					Weight:  p.Fraction,
				})
			}
		}
	}
	return degraded
}

// TestFaultLinkValidation rejects out-of-range fault links.
func TestFaultLinkValidation(t *testing.T) {
	cfg := faultTestConfig(t)
	cfg.FaultCycle = 100
	cfg.FaultLinks = []int{len(cfg.Topo.Links())}
	if _, err := Run(cfg); err == nil {
		t.Fatal("out-of-range fault link accepted")
	}
}
