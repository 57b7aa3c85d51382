package sunmap_test

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"

	"sunmap"
)

func TestAppByName(t *testing.T) {
	g, err := sunmap.AppByName("vopd")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCores() != 12 {
		t.Errorf("vopd has %d cores", g.NumCores())
	}
	if _, err := sunmap.AppByName("nope"); !errors.Is(err, sunmap.ErrUnknownApp) {
		t.Errorf("AppByName(nope) = %v, want ErrUnknownApp", err)
	}
}

func TestTopologyByNameSentinel(t *testing.T) {
	if _, err := sunmap.TopologyByName("mesh-2x2"); err != nil {
		t.Fatal(err)
	}
	if _, err := sunmap.TopologyByName("bogus-9x9"); !errors.Is(err, sunmap.ErrUnknownTopology) {
		t.Errorf("TopologyByName(bogus) = %v, want ErrUnknownTopology", err)
	}
}

func TestLoadAppFileWrapsErrors(t *testing.T) {
	if _, err := sunmap.LoadAppFile(filepath.Join(t.TempDir(), "missing.cg")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file error %v does not unwrap to fs.ErrNotExist", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.cg")
	if err := os.WriteFile(bad, []byte("nonsense directive\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sunmap.LoadAppFile(bad); err == nil {
		t.Error("bad file parsed without error")
	}
}

func TestSelectInfeasibleSentinel(t *testing.T) {
	sess, err := sunmap.NewSession(sunmap.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	// MPEG4's 910 MB/s flow defeats every topology under single-path
	// routing at 500 MB/s links (Fig. 7b).
	rep, err := sess.Select(context.Background(), sunmap.SelectRequest{
		App:     sunmap.AppSpec{Name: "mpeg4"},
		Mapping: sunmap.MapSpec{Routing: "MP", CapacityMBps: 500},
	})
	if !errors.Is(err, sunmap.ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if rep == nil || len(rep.Rows) == 0 {
		t.Fatal("infeasible selection did not carry the evaluated report")
	}
	if rep.Topology != "" || rep.Best != nil {
		t.Errorf("infeasible report names a winner: %q", rep.Topology)
	}
}

func TestBadRequestSentinels(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := []struct {
		name string
		call func() error
	}{
		{"empty app", func() error {
			_, err := sess.Select(ctx, sunmap.SelectRequest{})
			return err
		}},
		{"two app sources", func() error {
			_, err := sess.Select(ctx, sunmap.SelectRequest{
				App: sunmap.AppSpec{Name: "vopd", Text: "app x\n"},
			})
			return err
		}},
		{"bad routing", func() error {
			_, err := sess.Map(ctx, sunmap.MapRequest{
				App: sunmap.AppSpec{Name: "vopd"}, Topology: "mesh-3x4",
				Mapping: sunmap.MapSpec{Routing: "XX"},
			})
			return err
		}},
		{"bad objective", func() error {
			_, err := sess.Map(ctx, sunmap.MapRequest{
				App: sunmap.AppSpec{Name: "vopd"}, Topology: "mesh-3x4",
				Mapping: sunmap.MapSpec{Objective: "zz"},
			})
			return err
		}},
		{"bad tech", func() error {
			_, err := sess.Map(ctx, sunmap.MapRequest{
				App: sunmap.AppSpec{Name: "vopd"}, Topology: "mesh-3x4",
				Mapping: sunmap.MapSpec{Tech: "28nm"},
			})
			return err
		}},
		{"no rates", func() error {
			_, err := sess.Simulate(ctx, sunmap.SimRequest{Topology: "mesh-2x2"})
			return err
		}},
		{"bad rate", func() error {
			_, err := sess.Simulate(ctx, sunmap.SimRequest{Topology: "mesh-2x2", Rates: []float64{2}})
			return err
		}},
		{"bad pattern", func() error {
			_, err := sess.Simulate(ctx, sunmap.SimRequest{Topology: "mesh-2x2", Pattern: "zz", Rates: []float64{0.1}})
			return err
		}},
		{"negative hotspot node", func() error {
			_, err := sess.Simulate(ctx, sunmap.SimRequest{Topology: "mesh-4x4", Pattern: "hotspot", HotspotNode: -3, Rates: []float64{0.1}})
			return err
		}},
		{"hotspot node past the terminals", func() error {
			_, err := sess.Simulate(ctx, sunmap.SimRequest{Topology: "mesh-4x4", Pattern: "hotspot", HotspotNode: 16, Rates: []float64{0.1}})
			return err
		}},
		{"negative hotspot fraction", func() error {
			_, err := sess.Simulate(ctx, sunmap.SimRequest{Topology: "mesh-4x4", Pattern: "hotspot", HotspotFrac: -0.5, Rates: []float64{0.1}})
			return err
		}},
		{"hotspot fraction above 1", func() error {
			_, err := sess.Simulate(ctx, sunmap.SimRequest{Topology: "mesh-4x4", Pattern: "hotspot", HotspotFrac: 1.5, Rates: []float64{0.1}})
			return err
		}},
		{"NaN hotspot fraction", func() error {
			_, err := sess.Simulate(ctx, sunmap.SimRequest{Topology: "mesh-4x4", Pattern: "hotspot", HotspotFrac: math.NaN(), Rates: []float64{0.1}})
			return err
		}},
		{"app too large for topology", func() error {
			_, err := sess.Map(ctx, sunmap.MapRequest{
				App: sunmap.AppSpec{Name: "vopd"}, Topology: "mesh-2x2",
				Mapping: sunmap.MapSpec{},
			})
			return err
		}},
		{"fault k past the select candidates' elements", func() error {
			_, err := sess.Select(ctx, sunmap.SelectRequest{
				App: sunmap.AppSpec{Name: "vopd"}, Fault: &sunmap.FaultSpec{K: 100000},
			})
			return err
		}},
		{"fault k past the search winner's elements", func() error {
			_, err := sess.Search(ctx, sunmap.SearchRequest{
				App: sunmap.AppSpec{Name: "vopd"}, Search: sunmap.SearchOptions{Budget: 200, Seed: 1},
				Fault: &sunmap.FaultSpec{K: 100000},
			})
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.call(); !errors.Is(err, sunmap.ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", tc.name, err)
		}
	}
}

// TestMappingFailureIsBadRequest: every op that maps an app onto a named
// topology classifies a mapping failure alike — more cores than the
// topology has terminals is the request's fault, not an internal one.
func TestMappingFailureIsBadRequest(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	app := sunmap.AppSpec{Name: "vopd"}
	const topo = "mesh-2x2"
	for _, req := range []sunmap.Request{
		{Op: sunmap.OpMap, Map: &sunmap.MapRequest{App: app, Topology: topo}},
		{Op: sunmap.OpFaultSweep, FaultSweep: &sunmap.FaultSweepRequest{App: app, Topology: topo}},
		{Op: sunmap.OpGenerate, Generate: &sunmap.GenerateRequest{App: app, Topology: topo}},
		{Op: sunmap.OpSimulate, Simulate: &sunmap.SimRequest{App: &app, Topology: topo, Pattern: "trace", Rates: []float64{0.1}}},
		{Op: sunmap.OpRoutingSweep, RoutingSweep: &sunmap.SweepRequest{App: app, Topology: topo}},
		{Op: sunmap.OpPareto, Pareto: &sunmap.ParetoRequest{App: app, Topology: topo}},
	} {
		rep := sess.Do(context.Background(), req)
		if rep.ErrorKind != sunmap.ErrorKindBadRequest {
			t.Errorf("%s: error kind %q (%s), want %q", req.Op, rep.ErrorKind, rep.Error, sunmap.ErrorKindBadRequest)
		}
	}
}
