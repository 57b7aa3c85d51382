package xpipes

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/mapping"
	"sunmap/internal/route"
	"sunmap/internal/tech"
	"sunmap/internal/topology"
)

func generateVOPDMesh(t *testing.T) (*Output, *mapping.Result) {
	t.Helper()
	g := apps.VOPD()
	topo, err := topology.NewMesh(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapping.MapContextWith(context.Background(), g, topo, mapping.Options{
		Routing:      route.MinPath,
		Objective:    mapping.MinDelay,
		CapacityMBps: apps.DefaultCapacityMBps,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(g, res, tech.Tech100nm())
	if err != nil {
		t.Fatal(err)
	}
	return out, res
}

func TestGenerateProducesAllFiles(t *testing.T) {
	out, _ := generateVOPDMesh(t)
	for _, want := range []string{
		"xpipes_switch.h", "xpipes_link.h", "xpipes_ni.h",
		"vopd_noc.cpp", "design.dot", "floorplan.txt", "README.txt",
	} {
		if _, ok := out.Files[want]; !ok {
			t.Errorf("missing generated file %s (have %v)", want, out.FileNames())
		}
	}
	if out.TopModule != "vopd_noc" {
		t.Errorf("top module = %s", out.TopModule)
	}
}

func TestTopModuleInstantiatesEverything(t *testing.T) {
	out, res := generateVOPDMesh(t)
	top := out.Files["vopd_noc.cpp"]
	// One switch instance per router.
	for r := 0; r < res.Topology.NumRouters(); r++ {
		if !strings.Contains(top, fmt.Sprintf("sw%d(\"sw%d\")", r, r)) {
			t.Errorf("switch sw%d not instantiated", r)
		}
	}
	// One link module per directed link.
	if got := strings.Count(top, "xpipes_link<"); got != len(res.Topology.Links()) {
		t.Errorf("%d link instances, want %d", got, len(res.Topology.Links()))
	}
	// One NI per core, bound to the mapped terminal.
	for _, name := range []string{"ni_vld", "ni_idct", "ni_arm"} {
		if !strings.Contains(top, name) {
			t.Errorf("missing %s", name)
		}
	}
	// Switch template parameters must reflect the derived configurations
	// (mesh corners are 3x3 with an attached core).
	if !strings.Contains(top, "xpipes_switch<3, 3,") {
		t.Error("no 3x3 corner switch instantiated")
	}
	if !strings.Contains(top, "xpipes_switch<5, 5,") {
		t.Error("no 5x5 interior switch instantiated")
	}
}

func TestSwitchHeaderListsConfigs(t *testing.T) {
	out, _ := generateVOPDMesh(t)
	h := out.Files["xpipes_switch.h"]
	if !strings.Contains(h, "SC_MODULE(xpipes_switch)") {
		t.Error("switch module missing")
	}
	if !strings.Contains(h, "// Switch configurations instantiated by this design:") {
		t.Error("configuration inventory missing")
	}
}

func TestDesignDOTStructure(t *testing.T) {
	out, res := generateVOPDMesh(t)
	dot := out.Files["design.dot"]
	if got := strings.Count(dot, "[shape=diamond"); got != res.Topology.NumRouters() {
		t.Errorf("%d router nodes in DOT, want %d", got, res.Topology.NumRouters())
	}
	if !strings.Contains(dot, "\"idct\"") {
		t.Error("core idct missing from DOT")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := generateVOPDMesh(t)
	b, _ := generateVOPDMesh(t)
	for name := range a.Files {
		if a.Files[name] != b.Files[name] {
			t.Errorf("file %s differs between runs", name)
		}
	}
}

func TestWriteTo(t *testing.T) {
	out, _ := generateVOPDMesh(t)
	dir := filepath.Join(t.TempDir(), "gen")
	if err := out.WriteTo(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range out.FileNames() {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("reading %s: %v", name, err)
			continue
		}
		if string(data) != out.Files[name] {
			t.Errorf("file %s content mismatch", name)
		}
	}
}

func TestGenerateIndirectTopology(t *testing.T) {
	g := apps.VOPD()
	topo, err := topology.NewButterfly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapping.MapContextWith(context.Background(), g, topo, mapping.Options{
		Routing:      route.MinPath,
		CapacityMBps: apps.DefaultCapacityMBps,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Generate(g, res, tech.Tech100nm())
	if err != nil {
		t.Fatal(err)
	}
	dot := out.Files["design.dot"]
	// Indirect topologies draw separate inject and eject NI edges.
	if strings.Count(dot, "style=dashed") < 2*g.NumCores() {
		t.Error("butterfly DOT missing eject-side NI edges")
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := Generate(nil, nil, tech.Tech100nm()); err == nil {
		t.Error("nil design accepted")
	}
	g := apps.VOPD()
	if _, err := Generate(g, &mapping.Result{Assign: []int{1, 2}}, tech.Tech100nm()); err == nil {
		t.Error("mismatched mapping accepted")
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("dsp-filter"); got != "dsp_filter" {
		t.Errorf("sanitize = %s", got)
	}
	if got := sanitize(""); got != "design" {
		t.Errorf("sanitize empty = %s", got)
	}
}
