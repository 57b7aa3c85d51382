package floorplan

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sunmap/internal/area"
	"sunmap/internal/graph"
	"sunmap/internal/tech"
	"sunmap/internal/topology"
)

func mustTopo(t topology.Topology, err error) topology.Topology {
	if err != nil {
		panic(err)
	}
	return t
}

func squareCores(n int, areaMM2 float64) []graph.Core {
	cores := make([]graph.Core, n)
	for i := range cores {
		cores[i] = graph.Core{Name: string(rune('a' + i)), AreaMM2: areaMM2}
	}
	return cores
}

func identity(n int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	return a
}

func switchAreas(topo topology.Topology, assign []int) []float64 {
	tc := tech.Tech100nm()
	cfgs := area.SwitchConfigs(topo, assign, tc)
	out := make([]float64, len(cfgs))
	for i, c := range cfgs {
		out[i] = area.SwitchAreaMM2(c, tc)
	}
	return out
}

// checkNoOverlap verifies no two placed blocks overlap.
func checkNoOverlap(t *testing.T, res *Result) {
	t.Helper()
	for i := 0; i < len(res.Blocks); i++ {
		for j := i + 1; j < len(res.Blocks); j++ {
			a, b := res.Blocks[i], res.Blocks[j]
			overlapX := a.X < b.X+b.W-1e-9 && b.X < a.X+a.W-1e-9
			overlapY := a.Y < b.Y+b.H-1e-9 && b.Y < a.Y+a.H-1e-9
			if overlapX && overlapY {
				t.Errorf("blocks %s and %s overlap: %+v vs %+v", a.Name, b.Name, a, b)
			}
		}
	}
}

// checkInsideChip verifies every block lies in the chip bounding box.
func checkInsideChip(t *testing.T, res *Result) {
	t.Helper()
	for _, b := range res.Blocks {
		if b.X < -1e-9 || b.Y < -1e-9 || b.X+b.W > res.ChipWMM+1e-9 || b.Y+b.H > res.ChipHMM+1e-9 {
			t.Errorf("block %s outside chip: %+v (chip %g x %g)", b.Name, b, res.ChipWMM, res.ChipHMM)
		}
	}
}

func TestMeshFloorplanBasics(t *testing.T) {
	topo := mustTopo(topology.NewMesh(3, 4))
	cores := squareCores(12, 4.0)
	assign := identity(12)
	res, err := Floorplan(topo, assign, cores, switchAreas(topo, assign), Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkNoOverlap(t, res)
	checkInsideChip(t, res)
	// Chip must hold at least the summed block area.
	var blockArea float64
	for _, b := range res.Blocks {
		blockArea += b.W * b.H
	}
	if res.ChipAreaMM2() < blockArea-1e-6 {
		t.Errorf("chip area %g < total block area %g", res.ChipAreaMM2(), blockArea)
	}
	// With 12 4mm² cores plus switches, a sane floorplan lands between
	// 48 (core lower bound) and ~120 mm².
	if a := res.ChipAreaMM2(); a < 48 || a > 120 {
		t.Errorf("chip area = %g mm², want in [48, 120]", a)
	}
	// All link lengths positive and roughly one pitch (~2 mm) for a mesh.
	for id, l := range res.LinkLengthsMM {
		if l <= 0 || l > 10 {
			t.Errorf("link %d length = %g mm, want in (0, 10)", id, l)
		}
	}
	if len(res.AccessLengthsMM) != 12 {
		t.Fatalf("%d access lengths, want 12", len(res.AccessLengthsMM))
	}
	for i, l := range res.AccessLengthsMM {
		if l < 0 || l > 10 {
			t.Errorf("access %d length = %g", i, l)
		}
	}
}

func TestSoftBlocksKeepAreaAndAspect(t *testing.T) {
	topo := mustTopo(topology.NewMesh(2, 2))
	cores := []graph.Core{
		{Name: "a", AreaMM2: 4, Soft: true},
		{Name: "b", AreaMM2: 9, Soft: true, MinAspect: 0.25, MaxAspect: 4},
		{Name: "c", AreaMM2: 1},
		{Name: "d", AreaMM2: 2, Soft: true},
	}
	assign := identity(4)
	res, err := Floorplan(topo, assign, cores, switchAreas(topo, assign), Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkNoOverlap(t, res)
	for i, c := range cores {
		b := res.Blocks[res.CoreBlocks[i]]
		if got := b.W * b.H; math.Abs(got-c.AreaMM2) > 1e-6 {
			t.Errorf("core %s area = %g, want %g", c.Name, got, c.AreaMM2)
		}
		if c.Soft {
			lo, hi := c.AspectBounds()
			ar := b.W / b.H
			if ar < lo-1e-6 || ar > hi+1e-6 {
				t.Errorf("core %s aspect = %g, want in [%g,%g]", c.Name, ar, lo, hi)
			}
		}
	}
}

func TestSoftBlocksShrinkChip(t *testing.T) {
	// A row of mismatched hard blocks wastes slot space; letting them
	// flex must not increase chip area.
	topo := mustTopo(topology.NewMesh(2, 2))
	hard := []graph.Core{
		{Name: "a", AreaMM2: 8}, {Name: "b", AreaMM2: 2},
		{Name: "c", AreaMM2: 8}, {Name: "d", AreaMM2: 2},
	}
	soft := make([]graph.Core, len(hard))
	copy(soft, hard)
	for i := range soft {
		soft[i].Soft = true
		soft[i].MinAspect = 0.25
		soft[i].MaxAspect = 4
	}
	assign := identity(4)
	sa := switchAreas(topo, assign)
	rh, err := Floorplan(topo, assign, hard, sa, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Floorplan(topo, assign, soft, sa, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rs.ChipAreaMM2() > rh.ChipAreaMM2()+1e-6 {
		t.Errorf("soft plan %g mm² worse than hard plan %g mm²", rs.ChipAreaMM2(), rh.ChipAreaMM2())
	}
}

func TestButterflyFloorplanLongerLinks(t *testing.T) {
	// Section 6.1: butterfly links come out ~1.5x longer than mesh links
	// because cores sit in columns flanking the switch stages.
	meshT := mustTopo(topology.NewMesh(3, 4))
	bflyT := mustTopo(topology.NewButterfly(4, 2))
	cores := squareCores(12, 4.0)
	ma := identity(12)
	meshRes, err := Floorplan(meshT, ma, cores, switchAreas(meshT, ma), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bflyRes, err := Floorplan(bflyT, ma, cores, switchAreas(bflyT, ma), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bflyRes.AvgLinkLengthMM() <= meshRes.AvgLinkLengthMM() {
		t.Errorf("butterfly avg link %g mm <= mesh %g mm",
			bflyRes.AvgLinkLengthMM(), meshRes.AvgLinkLengthMM())
	}
	checkNoOverlap(t, bflyRes)
	checkInsideChip(t, bflyRes)
}

func TestPartialOccupancyHypercube(t *testing.T) {
	// 12 cores on a 16-node hypercube: empty terminals leave switches
	// without core blocks; plan must still be valid.
	topo := mustTopo(topology.NewHypercube(4))
	cores := squareCores(12, 3.0)
	assign := identity(12)
	res, err := Floorplan(topo, assign, cores, switchAreas(topo, assign), Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkNoOverlap(t, res)
	checkInsideChip(t, res)
	if len(res.RouterBlocks) != 16 {
		t.Errorf("%d router blocks, want 16", len(res.RouterBlocks))
	}
}

// TestLargestFloorplanLPConverges plans a die far beyond the library's
// sizes: a 16x16 mesh carrying 256 soft cores of random area and aspect
// range, with random switch areas — a 544-variable, 2,560-row LP. The
// LP solver has no fallback, so a dual-simplex stall fails the plan.
func TestLargestFloorplanLPConverges(t *testing.T) {
	topo := mustTopo(topology.NewMesh(16, 16))
	rng := rand.New(rand.NewSource(1))
	cores := make([]graph.Core, topo.NumTerminals())
	for i := range cores {
		lo := 0.25 + rng.Float64()*0.5
		cores[i] = graph.Core{
			Name:      fmt.Sprintf("c%d", i),
			AreaMM2:   0.5 + rng.Float64()*4,
			Soft:      true,
			MinAspect: lo,
			MaxAspect: 1/lo + rng.Float64(),
		}
	}
	sw := make([]float64, topo.NumRouters())
	for i := range sw {
		sw[i] = 0.05 + rng.Float64()*0.5
	}
	res, err := Floorplan(topo, rng.Perm(len(cores)), cores, sw, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkNoOverlap(t, res)
	checkInsideChip(t, res)
}

func TestFloorplanErrors(t *testing.T) {
	topo := mustTopo(topology.NewMesh(2, 2))
	cores := squareCores(4, 1)
	if _, err := Floorplan(topo, identity(3), cores, make([]float64, 4), Options{}); err == nil {
		t.Error("mismatched assignment accepted")
	}
	if _, err := Floorplan(topo, identity(4), cores, make([]float64, 3), Options{}); err == nil {
		t.Error("mismatched switch areas accepted")
	}
	bad := identity(4)
	bad[2] = 99
	if _, err := Floorplan(topo, bad, cores, make([]float64, 4), Options{}); err == nil {
		t.Error("invalid terminal accepted")
	}
}

func TestTorusLinksLongerThanMesh(t *testing.T) {
	// Wrap-around channels span the die, so average torus link length
	// must exceed the mesh's on the same shape.
	meshT := mustTopo(topology.NewMesh(3, 4))
	torusT := mustTopo(topology.NewTorus(3, 4))
	cores := squareCores(12, 4.0)
	a := identity(12)
	mr, err := Floorplan(meshT, a, cores, switchAreas(meshT, a), Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Floorplan(torusT, a, cores, switchAreas(torusT, a), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.AvgLinkLengthMM() <= mr.AvgLinkLengthMM() {
		t.Errorf("torus avg link %g <= mesh %g", tr.AvgLinkLengthMM(), mr.AvgLinkLengthMM())
	}
}

func TestEstimateTracksExactFloorplan(t *testing.T) {
	// The fast estimator should agree with the LP floorplan within a
	// factor of ~2 on average link length for a regular mesh.
	topo := mustTopo(topology.NewMesh(3, 4))
	cores := squareCores(12, 4.0)
	assign := identity(12)
	exact, err := Floorplan(topo, assign, cores, switchAreas(topo, assign), Options{})
	if err != nil {
		t.Fatal(err)
	}
	est, access := EstimateLinkLengthsMM(topo, assign, cores, Options{})
	if len(est) != len(exact.LinkLengthsMM) {
		t.Fatalf("estimator returned %d links, want %d", len(est), len(exact.LinkLengthsMM))
	}
	var estAvg, exAvg float64
	for i := range est {
		estAvg += est[i]
		exAvg += exact.LinkLengthsMM[i]
	}
	estAvg /= float64(len(est))
	exAvg /= float64(len(est))
	if ratio := estAvg / exAvg; ratio < 0.5 || ratio > 2.0 {
		t.Errorf("estimate/exact avg link ratio = %g, want within [0.5, 2]", ratio)
	}
	for i, l := range access {
		if l <= 0 {
			t.Errorf("estimated access length %d = %g", i, l)
		}
	}
}

func TestEstimatePitch(t *testing.T) {
	if p := EstimatePitchMM(nil, Options{}); p != 1 {
		t.Errorf("empty pitch = %g, want 1", p)
	}
	p := EstimatePitchMM(squareCores(4, 4), Options{})
	if p < 2 || p > 2.5 {
		t.Errorf("pitch for 4mm² cores = %g, want ~2.1", p)
	}
}

func TestAspectRatioAndChipArea(t *testing.T) {
	r := &Result{ChipWMM: 8, ChipHMM: 2}
	if got := r.AspectRatio(); got != 4 {
		t.Errorf("AspectRatio = %g, want 4", got)
	}
	r2 := &Result{ChipWMM: 2, ChipHMM: 8}
	if got := r2.AspectRatio(); got != 4 {
		t.Errorf("AspectRatio = %g, want 4 (orientation-free)", got)
	}
	if got := r.ChipAreaMM2(); got != 16 {
		t.Errorf("ChipAreaMM2 = %g, want 16", got)
	}
	empty := &Result{}
	if !math.IsInf(empty.AspectRatio(), 1) {
		t.Error("degenerate chip aspect not infinite")
	}
}
