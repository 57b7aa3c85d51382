package exp

import (
	"context"
	"strings"
	"testing"

	"sunmap"
)

// session returns a fresh Session for one test.
func session(t *testing.T) *sunmap.Session {
	t.Helper()
	s, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFig3dShape(t *testing.T) {
	r, err := Fig3d(context.Background(), session(t))
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: torus hops <= mesh hops; mesh area and power below
	// torus.
	if r.Torus.AvgHops > r.Mesh.AvgHops {
		t.Errorf("torus hops %g > mesh hops %g", r.Torus.AvgHops, r.Mesh.AvgHops)
	}
	if r.Mesh.DesignAreaMM2 >= r.Torus.DesignAreaMM2 {
		t.Errorf("mesh area %g >= torus area %g", r.Mesh.DesignAreaMM2, r.Torus.DesignAreaMM2)
	}
	if r.Mesh.PowerMW >= r.Torus.PowerMW {
		t.Errorf("mesh power %g >= torus power %g", r.Mesh.PowerMW, r.Torus.PowerMW)
	}
	// Absolute ranges: within 2x of the paper's numbers.
	if r.Mesh.AvgHops < 1.8 || r.Mesh.AvgHops > 3.0 {
		t.Errorf("mesh hops %g, paper 2.25", r.Mesh.AvgHops)
	}
	if r.Mesh.DesignAreaMM2 < 27 || r.Mesh.DesignAreaMM2 > 110 {
		t.Errorf("mesh area %g, paper 54.59", r.Mesh.DesignAreaMM2)
	}
	if r.Mesh.PowerMW < 180 || r.Mesh.PowerMW > 750 {
		t.Errorf("mesh power %g, paper 372.1", r.Mesh.PowerMW)
	}
	if !strings.Contains(r.String(), "torus/mesh") {
		t.Error("rendering missing ratio column")
	}
}

func TestFig6Shape(t *testing.T) {
	r, err := Fig6(context.Background(), session(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows, want 5 families", len(r.Rows))
	}
	byName := make(map[string]sunmap.TopologyRow)
	var bfly, mesh sunmap.TopologyRow
	for _, row := range r.Rows {
		byName[row.Topology] = row
		if strings.HasPrefix(row.Topology, "butterfly") {
			bfly = row
		}
		if strings.HasPrefix(row.Topology, "mesh") {
			mesh = row
		}
	}
	if !strings.HasPrefix(r.Best, "butterfly") {
		t.Errorf("selected %s, paper picks the butterfly", r.Best)
	}
	if bfly.AvgHops != 2.0 {
		t.Errorf("butterfly hops %g, want 2.0 flat", bfly.AvgHops)
	}
	if bfly.Switches >= mesh.Switches {
		t.Errorf("butterfly switches %d >= mesh %d", bfly.Switches, mesh.Switches)
	}
	if bfly.Links <= mesh.Links {
		t.Errorf("butterfly links %d <= mesh %d (Fig 6b: more links)", bfly.Links, mesh.Links)
	}
	if bfly.PowerMW >= mesh.PowerMW {
		t.Errorf("butterfly power %g >= mesh %g", bfly.PowerMW, mesh.PowerMW)
	}
	if bfly.AreaMM2 >= mesh.AreaMM2 {
		t.Errorf("butterfly area %g >= mesh %g", bfly.AreaMM2, mesh.AreaMM2)
	}
}

func TestFig7bShape(t *testing.T) {
	r, err := Fig7b(context.Background(), session(t))
	if err != nil {
		t.Fatal(err)
	}
	if !r.ButterflyInfeasible {
		t.Error("butterfly feasible for MPEG4; paper reports no feasible mapping")
	}
	if r.RoutingUsed != "SM" && r.RoutingUsed != "SA" {
		t.Errorf("routing used %v, want a splitting function", r.RoutingUsed)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d feasible families, want 4 (all but butterfly)", len(r.Rows))
	}
	var mesh, torus sunmap.TopologyRow
	for _, row := range r.Rows {
		if strings.HasPrefix(row.Topology, "mesh") {
			mesh = row
		}
		if strings.HasPrefix(row.Topology, "torus") {
			torus = row
		}
	}
	// Paper: torus hop delay below mesh; mesh saves area.
	if torus.AvgHops > mesh.AvgHops+0.3 {
		t.Errorf("torus hops %g far above mesh %g", torus.AvgHops, mesh.AvgHops)
	}
	if mesh.AreaMM2 >= torus.AreaMM2 {
		t.Errorf("mesh area %g >= torus %g", mesh.AreaMM2, torus.AreaMM2)
	}
	// Paper's Phase 2 verdict under the composite judgement: mesh.
	if !strings.HasPrefix(r.Best, "mesh") {
		t.Errorf("composite selection picked %s, paper picks mesh", r.Best)
	}
}

func TestFig9aShape(t *testing.T) {
	r, err := Fig9a(context.Background(), session(t))
	if err != nil {
		t.Fatal(err)
	}
	byFn := make(map[string]float64)
	for _, row := range r.Rows {
		byFn[row.Function] = row.RequiredMBps
	}
	if byFn["DO"] < 910 || byFn["MP"] < 910 {
		t.Errorf("single-path required BW below the 910 flow: DO=%g MP=%g",
			byFn["DO"], byFn["MP"])
	}
	if byFn["SM"] > 500 || byFn["SA"] > 500 {
		t.Errorf("splitting functions exceed 500: SM=%g SA=%g",
			byFn["SM"], byFn["SA"])
	}
}

func TestFig9bShape(t *testing.T) {
	r, err := Fig9b(context.Background(), session(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 2 {
		t.Fatalf("only %d distinct design points", len(r.Points))
	}
	hasFront := false
	for _, p := range r.Points {
		if p.Dominant {
			hasFront = true
		}
	}
	if !hasFront {
		t.Error("no Pareto-dominant point marked")
	}
}

func TestFig8bShape(t *testing.T) {
	// Short rate axis keeps the test fast while covering the crossover.
	r, err := Fig8b(context.Background(), session(t), []float64{0.1, 0.4})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range r.Order {
		if len(r.Curves[name]) != 2 {
			t.Fatalf("%s curve has %d points", name, len(r.Curves[name]))
		}
	}
	// At 0.4 the butterfly is saturated under its adversarial pattern
	// while the clos is not; clos latency beats butterfly.
	clos := r.Curves["clos"][1]
	bfly := r.Curves["butterfly"][1]
	if !bfly.Saturated && clos.AvgLatencyCycles >= bfly.AvgLatencyCycles {
		t.Errorf("clos %g >= butterfly %g at 0.4 and butterfly not saturated",
			clos.AvgLatencyCycles, bfly.AvgLatencyCycles)
	}
	if clos.Saturated {
		t.Error("clos saturated at 0.4 under transpose; paper shows it handling 0.5")
	}
}

func TestFig8cdShape(t *testing.T) {
	r, err := Fig8cd(context.Background(), session(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d rows, want 5", len(r.Rows))
	}
	var clos, bfly sunmap.TopologyRow
	for _, row := range r.Rows {
		if strings.HasPrefix(row.Topology, "clos") {
			clos = row
		}
		if strings.HasPrefix(row.Topology, "butterfly") {
			bfly = row
		}
	}
	// Paper: clos area/power only slightly above the butterfly's.
	if clos.AreaMM2 < bfly.AreaMM2 {
		t.Logf("note: clos area %g below butterfly %g (paper: slightly above)", clos.AreaMM2, bfly.AreaMM2)
	}
	if clos.AreaMM2 > bfly.AreaMM2*1.5 {
		t.Errorf("clos area %g far above butterfly %g", clos.AreaMM2, bfly.AreaMM2)
	}
	if clos.PowerMW > bfly.PowerMW*2.0 {
		t.Errorf("clos power %g far above butterfly %g", clos.PowerMW, bfly.PowerMW)
	}
}

func TestFig10Shape(t *testing.T) {
	r, err := Fig10(context.Background(), session(t))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(r.Best, "butterfly") {
		t.Errorf("DSP selected %s, paper picks a butterfly", r.Best)
	}
	if r.BestHops != 2.0 {
		t.Errorf("best hops %g, want 2.0 (3-ary 2-fly)", r.BestHops)
	}
	if len(r.Latency) < 4 {
		t.Fatalf("latency measured for %d families", len(r.Latency))
	}
	// Fig 10(c): the butterfly has the minimum simulated latency.
	bfly := r.Latency["butterfly"]
	for name, l := range r.Latency {
		if name == "butterfly" {
			continue
		}
		if bfly > l {
			t.Errorf("butterfly latency %g above %s latency %g", bfly, name, l)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	r, err := Fig11(context.Background(), session(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Files) < 5 {
		t.Fatalf("only %d generated files", len(r.Files))
	}
	found := false
	for _, f := range r.Files {
		if strings.HasSuffix(f, ".cpp") {
			found = true
		}
	}
	if !found {
		t.Error("no top-level .cpp generated")
	}
}

func TestRenderingsNonEmpty(t *testing.T) {
	r3, err := Fig3d(context.Background(), session(t))
	if err != nil {
		t.Fatal(err)
	}
	r9a, err := Fig9a(context.Background(), session(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{r3.String(), r9a.String()} {
		if len(s) < 50 || !strings.Contains(s, "\n") {
			t.Errorf("suspicious rendering: %q", s)
		}
	}
}
