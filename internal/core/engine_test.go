package core

import (
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/graph"
	"sunmap/internal/mapping"
	"sunmap/internal/rank"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

// bestPerKind returns each topology family's Phase-2 winner among the
// feasible candidates, folded in library order.
func bestPerKind(sel *Selection) map[topology.Kind]*mapping.Result {
	out := make(map[topology.Kind]*mapping.Result)
	for _, c := range sel.Candidates {
		if c.Result == nil || !c.Feasible() {
			continue
		}
		k := c.Result.Topology.Kind()
		if cur, ok := out[k]; !ok || rank.Less(point(c.Result), point(cur)) {
			out[k] = c.Result
		}
	}
	return out
}

func vopdConfig(obj mapping.Objective) Config {
	return Config{
		App: apps.VOPD(),
		Mapping: mapping.Options{
			Routing:      route.MinPath,
			Objective:    obj,
			CapacityMBps: apps.DefaultCapacityMBps,
		},
	}
}

func TestSelectVOPDMinDelayPicksButterfly(t *testing.T) {
	// Section 6.1 / Fig. 6(a): the 4-ary 2-fly has the least communication
	// delay (2 hops flat) and is feasible for VOPD.
	sel, err := Select(vopdConfig(mapping.MinDelay))
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best == nil {
		t.Fatal("no feasible topology for VOPD")
	}
	if sel.Best.Topology.Kind() != topology.Butterfly {
		t.Errorf("best topology = %s, want a butterfly (Fig. 6)", sel.Best.Topology.Name())
	}
	if sel.Best.AvgHops != 2.0 {
		t.Errorf("winning butterfly hops = %g, want 2", sel.Best.AvgHops)
	}
}

func TestSelectVOPDPowerAndAreaFavorButterfly(t *testing.T) {
	// Fig. 6(c,d): the butterfly also wins area and power for VOPD.
	for _, obj := range []mapping.Objective{mapping.MinPower, mapping.MinArea} {
		sel, err := Select(vopdConfig(obj))
		if err != nil {
			t.Fatalf("%v: %v", obj, err)
		}
		if sel.Best == nil {
			t.Fatalf("%v: nothing feasible", obj)
		}
		if sel.Best.Topology.Kind() != topology.Butterfly {
			t.Errorf("%v: best = %s, want butterfly", obj, sel.Best.Topology.Name())
		}
	}
}

func TestVOPDPerKindShape(t *testing.T) {
	// Fig. 6 cross-checks: butterfly has the fewest switches but more
	// links than mesh; mesh/torus/hypercube hops exceed 2; clos is 3.
	sel, err := Select(vopdConfig(mapping.MinDelay))
	if err != nil {
		t.Fatal(err)
	}
	best := bestPerKind(sel)
	for _, k := range []topology.Kind{topology.Mesh, topology.Torus, topology.Hypercube, topology.Butterfly, topology.Clos} {
		if best[k] == nil {
			t.Fatalf("no feasible %v mapping for VOPD", k)
		}
	}
	if best[topology.Butterfly].AvgHops >= best[topology.Mesh].AvgHops {
		t.Error("butterfly hops not below mesh hops")
	}
	if h := best[topology.Clos].AvgHops; h != 3.0 {
		t.Errorf("clos hops = %g, want 3", h)
	}
	if best[topology.Mesh].AvgHops <= 2.0 {
		t.Errorf("mesh hops = %g, want > 2 (adjacent nodes are already 2)", best[topology.Mesh].AvgHops)
	}
	bflySwitches := best[topology.Butterfly].Topology.NumRouters()
	meshSwitches := best[topology.Mesh].Topology.NumRouters()
	if bflySwitches >= meshSwitches {
		t.Errorf("butterfly switches %d >= mesh %d", bflySwitches, meshSwitches)
	}
	// Fig. 6(b): counting NI hookups (two per core for indirect
	// topologies), the butterfly uses more links than the mesh despite
	// fewer switches.
	bflyLinks := topology.PhysicalLinks(best[topology.Butterfly].Topology) + 2*12
	meshLinks := topology.PhysicalLinks(best[topology.Mesh].Topology) + 12
	if bflyLinks <= meshLinks {
		t.Errorf("butterfly links %d <= mesh links %d, Fig. 6(b) shows more", bflyLinks, meshLinks)
	}
	// Power and area: butterfly strictly below mesh (Fig. 6c/d).
	if best[topology.Butterfly].PowerMW >= best[topology.Mesh].PowerMW {
		t.Errorf("butterfly power %g >= mesh %g", best[topology.Butterfly].PowerMW, best[topology.Mesh].PowerMW)
	}
	if best[topology.Butterfly].DesignAreaMM2 >= best[topology.Mesh].DesignAreaMM2 {
		t.Errorf("butterfly area %g >= mesh %g", best[topology.Butterfly].DesignAreaMM2, best[topology.Mesh].DesignAreaMM2)
	}
}

func TestMPEG4EscalatesToSplitAndDropsButterfly(t *testing.T) {
	// Section 6.1: min-path is infeasible everywhere for MPEG4; the tool
	// escalates to split routing, under which every family except the
	// butterfly produces a feasible mapping.
	sel, err := Select(Config{
		App: apps.MPEG4(),
		Mapping: mapping.Options{
			Routing:      route.MinPath,
			Objective:    mapping.MinDelay,
			CapacityMBps: apps.DefaultCapacityMBps,
		},
		EscalateRouting: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best == nil {
		t.Fatal("MPEG4 found nothing feasible even after escalation")
	}
	if sel.RoutingUsed == route.MinPath || sel.RoutingUsed == route.DimensionOrdered {
		t.Errorf("routing used = %v, want a splitting function", sel.RoutingUsed)
	}
	best := bestPerKind(sel)
	if best[topology.Butterfly] != nil {
		t.Errorf("butterfly feasible for MPEG4 (%s), paper says no feasible mapping",
			best[topology.Butterfly].Topology.Name())
	}
	for _, k := range []topology.Kind{topology.Mesh, topology.Torus, topology.Hypercube, topology.Clos} {
		if best[k] == nil {
			t.Errorf("no feasible %v mapping for MPEG4 under split routing", k)
		}
	}
}

func TestSummariesSortedAndComplete(t *testing.T) {
	sel, err := Select(vopdConfig(mapping.MinDelay))
	if err != nil {
		t.Fatal(err)
	}
	rows := sel.Summaries()
	if len(rows) == 0 {
		t.Fatal("no summary rows")
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Kind < rows[i-1].Kind {
			t.Error("summaries not sorted by kind")
		}
	}
	for _, r := range rows {
		if r.Switches <= 0 || r.Links <= 0 || r.AvgHops <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
}

func TestSelectErrors(t *testing.T) {
	if _, err := Select(Config{}); err == nil {
		t.Error("nil app accepted")
	}
	var empty graph.CoreGraph
	if _, err := Select(Config{App: &empty}); err == nil {
		t.Error("empty app accepted")
	}
	// A library whose every topology is too small must fail loudly.
	small, err := topology.NewMesh(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Select(Config{App: apps.VOPD(), Library: []topology.Topology{small}}); err == nil {
		t.Error("library of too-small topologies accepted")
	}
}

func TestFeasibleCountAndExtras(t *testing.T) {
	cfg := vopdConfig(mapping.MinDelay)
	lib, err := topology.Library(cfg.App.NumCores(), topology.LibraryOptions{IncludeExtras: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Library = lib
	sel, err := Select(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sel.FeasibleCount() < 5 {
		t.Errorf("only %d feasible candidates for VOPD", sel.FeasibleCount())
	}
	// The star (one giant hub crossbar) must appear among candidates.
	found := false
	for _, c := range sel.Candidates {
		if c.Result != nil && c.Result.Topology.Kind() == topology.Star {
			found = true
		}
	}
	if !found {
		t.Error("extras requested but star missing")
	}
}
