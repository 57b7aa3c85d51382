package apps

import (
	"fmt"
	"testing"

	"sunmap/internal/graph"
)

func TestAllAppsValidate(t *testing.T) {
	for _, name := range Names() {
		g, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestVOPDShape(t *testing.T) {
	g := VOPD()
	if g.NumCores() != 12 {
		t.Errorf("VOPD has %d cores, want 12 (Section 6.1)", g.NumCores())
	}
	if g.NumEdges() != 14 {
		t.Errorf("VOPD has %d flows, want 14", g.NumEdges())
	}
	// Max flow equals the 500 MB/s link capacity: single-path routing
	// stays feasible (the paper's butterfly result depends on this).
	if got := g.MaxEdgeMBps(); got != 500 {
		t.Errorf("VOPD max flow = %g, want 500", got)
	}
	if a := g.TotalCoreAreaMM2(); a < 40 || a > 55 {
		t.Errorf("VOPD core area = %g mm², want ~45 for the paper's 55 mm² design", a)
	}
}

func TestMPEG4Shape(t *testing.T) {
	g := MPEG4()
	if g.NumCores() != 12 {
		t.Errorf("MPEG4 has %d cores, want 12 (drawn benchmark; see DESIGN.md)", g.NumCores())
	}
	// The infeasibility mechanism of Fig. 7(b)/9(a): at least one flow
	// above 500 MB/s...
	if got := g.MaxEdgeMBps(); got != 910 {
		t.Errorf("MPEG4 max flow = %g, want 910", got)
	}
	over := 0
	for _, e := range g.Edges() {
		if e.BandwidthMBps > 500 {
			over++
		}
	}
	if over != 3 {
		t.Errorf("MPEG4 has %d flows above 500 MB/s, want 3 (910, 670, 600)", over)
	}
	// ...but SDRAM's aggregate in/out each fit within four 500 MB/s links,
	// so split routing on a mesh can be feasible.
	sdram, ok := g.CoreIndex("sdram")
	if !ok {
		t.Fatal("sdram missing")
	}
	var in, out float64
	for _, e := range g.Edges() {
		if e.To == sdram {
			in += e.BandwidthMBps
		}
		if e.From == sdram {
			out += e.BandwidthMBps
		}
	}
	if in > 2000 || out > 2000 {
		t.Errorf("sdram in=%g out=%g MB/s, both must fit 4x500 for split feasibility", in, out)
	}
}

func TestNetProcShape(t *testing.T) {
	g := NetProc()
	if g.NumCores() != 16 {
		t.Errorf("NetProc has %d cores, want 16", g.NumCores())
	}
	if g.NumEdges() != 48 {
		t.Errorf("NetProc has %d flows, want 48", g.NumEdges())
	}
	// Homogeneous nodes: every core has the same traffic volume.
	v0 := g.CommVolume(0)
	for i := 1; i < 16; i++ {
		if g.CommVolume(i) != v0 {
			t.Errorf("node %d volume %g != node 0 volume %g", i, g.CommVolume(i), v0)
		}
	}
}

// TestNetProcMatchesFormattedBuild checks NetProc against the build
// that formatted every name at each use: same graph, same digest.
func TestNetProcMatchesFormattedBuild(t *testing.T) {
	want := graph.NewCoreGraph("netproc")
	const n = 16
	for i := 0; i < n; i++ {
		want.MustAddCore(graph.Core{Name: fmt.Sprintf("node%02d", i), AreaMM2: 4.5})
	}
	name := func(i int) string { return fmt.Sprintf("node%02d", i%n) }
	for i := 0; i < n; i++ {
		want.MustConnect(name(i), name(i+1), 200)
		want.MustConnect(name(i), name(i+4), 200)
		want.MustConnect(name(i), name(i+8), 200)
	}
	got := NetProc()
	if got.Digest() != want.Digest() {
		t.Error("NetProc digest differs from the formatted build's")
	}
	if g, w := graph.Format(got), graph.Format(want); g != w {
		t.Errorf("NetProc graph differs:\n%s\nwant\n%s", g, w)
	}
}

func TestDSPShape(t *testing.T) {
	g := DSPFilter()
	if g.NumCores() != 6 || g.NumEdges() != 8 {
		t.Errorf("DSP = %s, want 6 cores / 8 flows", g)
	}
	if got := g.MaxEdgeMBps(); got != 600 {
		t.Errorf("DSP max flow = %g, want 600 (FFT spine)", got)
	}
	if got := g.TotalBandwidthMBps(); got != 6*200+2*600 {
		t.Errorf("DSP total = %g, want %d", got, 6*200+2*600)
	}
}

func TestSyntheticDeterministicAndValid(t *testing.T) {
	a := Synthetic(10, 0.2, 400, 42)
	b := Synthetic(10, 0.2, 400, 42)
	if graph.Format(a) != graph.Format(b) {
		t.Error("same seed produced different graphs")
	}
	c := Synthetic(10, 0.2, 400, 43)
	if graph.Format(a) == graph.Format(c) {
		t.Error("different seeds produced identical graphs")
	}
	if err := a.Validate(); err != nil {
		t.Errorf("synthetic graph invalid: %v", err)
	}
	// No isolated cores.
	for i := 0; i < a.NumCores(); i++ {
		if a.CommVolume(i) == 0 {
			t.Errorf("core %d isolated", i)
		}
	}
	// Degenerate parameters are clamped, not fatal.
	d := Synthetic(1, -1, -5, 7)
	if d.NumCores() < 2 {
		t.Error("clamping failed")
	}
}
