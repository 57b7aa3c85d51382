package sunmap_test

import (
	"context"
	"strings"
	"testing"

	"sunmap"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	app, err := sunmap.AppByName("vopd")
	if err != nil {
		t.Fatal(err)
	}
	if app.NumCores() != 12 {
		t.Fatalf("vopd has %d cores", app.NumCores())
	}
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	mapping := sunmap.MapSpec{Routing: "MP", Objective: "delay", CapacityMBps: 500}
	sel, err := sess.Select(ctx, sunmap.SelectRequest{App: sunmap.AppSpec{Name: "vopd"}, Mapping: mapping})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best == nil {
		t.Fatal("no feasible topology")
	}
	if !strings.HasPrefix(sel.Topology, "butterfly") {
		t.Errorf("selected %s, want the butterfly (paper Section 6.1)", sel.Topology)
	}
	gen, err := sess.Generate(ctx, sunmap.GenerateRequest{
		App: sunmap.AppSpec{Name: "vopd"}, Topology: sel.Topology, Mapping: mapping,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gen.Files) < 5 {
		t.Errorf("only %d generated files", len(gen.Files))
	}
}

func TestPublicAPILoadApp(t *testing.T) {
	src := `
app tiny
core a area=2
core b area=3
flow a -> b 100
`
	app, err := sunmap.LoadApp(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if app.NumCores() != 2 {
		t.Fatalf("tiny has %d cores", app.NumCores())
	}
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Map(context.Background(), sunmap.MapRequest{
		App:      sunmap.AppSpec{Text: src},
		Topology: "mesh-1x2",
		Mapping:  sunmap.MapSpec{Routing: "MP", CapacityMBps: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgHops != 2 {
		t.Errorf("two adjacent cores: hops = %g, want 2", res.AvgHops)
	}
}

func TestPublicAPISimulation(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	req := sunmap.SimRequest{
		Topology:      "mesh-4x4",
		Pattern:       "uniform",
		Rates:         []float64{0.1},
		Seed:          1,
		WarmupCycles:  200,
		MeasureCycles: 1000,
		DrainCycles:   2000,
	}
	rep, err := sess.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if st := rep.Rows[0]; st.MeasuredPackets == 0 || st.AvgLatencyCycles <= 0 {
		t.Errorf("degenerate sim stats: %+v", st)
	}
	req.Pattern = "adversarial"
	adv, err := sess.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Pattern == "" || adv.Pattern == "adversarial" {
		t.Errorf("adversarial pattern resolved to %q, want the topology's concrete stress pattern", adv.Pattern)
	}
}

func TestPublicAPILibrary(t *testing.T) {
	lib, err := sunmap.Library(12, sunmap.LibraryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(lib) < 5 {
		t.Errorf("library has %d configs", len(lib))
	}
	if len(sunmap.AppNames()) != 4 {
		t.Errorf("AppNames = %v", sunmap.AppNames())
	}
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := sess.RoutingSweep(context.Background(), sunmap.SweepRequest{
		App:      sunmap.AppSpec{Name: "mpeg4"},
		Topology: lib[0].Name(),
		Mapping:  sunmap.MapSpec{CapacityMBps: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Rows) != 4 {
		t.Errorf("routing sweep has %d rows", len(sweep.Rows))
	}
}
