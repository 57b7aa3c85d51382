package sunmap_test

// Cross-module integration tests: full SUNMAP flows on synthetic
// applications across the whole topology library, driven through the
// Session, checking the invariants that individual package tests cannot
// see end to end.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"sunmap"
	"sunmap/internal/apps"
	"sunmap/internal/topology"
)

// inlineApp is a core graph as an inline request app.
func inlineApp(g *sunmap.CoreGraph) sunmap.AppSpec {
	a := sunmap.AppSpec{Label: g.Name()}
	for _, c := range g.Cores() {
		a.Cores = append(a.Cores, sunmap.CoreSpec{
			Name: c.Name, AreaMM2: c.AreaMM2, Soft: c.Soft,
			MinAspect: c.MinAspect, MaxAspect: c.MaxAspect,
		})
	}
	for _, e := range g.Edges() {
		a.Flows = append(a.Flows, sunmap.FlowSpec{From: g.Core(e.From).Name, To: g.Core(e.To).Name, MBps: e.BandwidthMBps})
	}
	return a
}

// newSession is sunmap.NewSession for tests, failing t on error.
func newSession(t testing.TB, opts ...sunmap.SessionOption) *sunmap.Session {
	t.Helper()
	sess, err := sunmap.NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestFullFlowSyntheticApps runs selection end to end on random apps of
// several sizes and validates structural invariants of every candidate:
// each table row re-maps through the same session to the design it
// summarizes, and that design is physically sound.
func TestFullFlowSyntheticApps(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{4, 7, 12} {
		n := n
		t.Run(fmt.Sprintf("cores=%d", n), func(t *testing.T) {
			app := inlineApp(apps.Synthetic(n, 0.2, 450, int64(100+n)))
			sess := newSession(t)
			sel, err := sess.Select(ctx, sunmap.SelectRequest{
				App:      app,
				Mapping:  sunmap.MapSpec{Routing: "SM", Objective: "power", CapacityMBps: 500},
				Escalate: true,
			})
			if err != nil && !errors.Is(err, sunmap.ErrInfeasible) {
				t.Fatal(err)
			}
			if len(sel.Rows) == 0 {
				t.Fatal("no candidate mapped")
			}
			for _, row := range sel.Rows {
				r, err := sess.Map(ctx, sunmap.MapRequest{
					App:      app,
					Topology: row.Topology,
					Mapping:  sunmap.MapSpec{Routing: sel.RoutingUsed, Objective: "power", CapacityMBps: 500},
				})
				if err != nil {
					t.Fatalf("%s: %v", row.Topology, err)
				}
				if r.AvgHops != row.AvgHops || r.MaxLinkLoadMBps != row.MaxLoadMBps || r.Feasible != row.Feasible {
					t.Errorf("%s: row %+v disagrees with its design %+v", row.Topology, row, r)
				}
				topo, err := sunmap.TopologyByName(row.Topology)
				if err != nil {
					t.Fatal(err)
				}
				// Mapping is injective onto valid terminals.
				if len(r.Assign) != n {
					t.Fatalf("%s: %d of %d cores assigned", row.Topology, len(r.Assign), n)
				}
				seen := make(map[int]bool)
				for _, a := range r.Assign {
					if a.Terminal < 0 || a.Terminal >= topo.NumTerminals() || seen[a.Terminal] {
						t.Fatalf("%s: invalid assignment %v", row.Topology, r.Assign)
					}
					seen[a.Terminal] = true
				}
				// Metrics are physical.
				if r.AvgHops < 1 || r.DesignAreaMM2 <= 0 || r.PowerMW <= 0 {
					t.Errorf("%s: non-physical metrics hops=%g area=%g power=%g",
						row.Topology, r.AvgHops, r.DesignAreaMM2, r.PowerMW)
				}
				// Feasibility flag consistent with the measured max load.
				if r.BandwidthOK != (r.MaxLinkLoadMBps <= 500+1e-6) {
					t.Errorf("%s: BandwidthOK=%v but max load %g",
						row.Topology, r.BandwidthOK, r.MaxLinkLoadMBps)
				}
			}
		})
	}
}

// TestMappedDesignSimulates closes the loop: every feasible VOPD candidate
// must be simulable with trace traffic derived from its own mapping, and
// the simulator must deliver packets without saturating at 10% load.
func TestMappedDesignSimulates(t *testing.T) {
	ctx := context.Background()
	sess := newSession(t)
	vopd := sunmap.AppSpec{Name: "vopd"}
	mapping := sunmap.MapSpec{Routing: "MP", Objective: "delay", CapacityMBps: 500}
	sel, err := sess.Select(ctx, sunmap.SelectRequest{App: vopd, Mapping: mapping})
	if err != nil {
		t.Fatal(err)
	}
	tested := 0
	for _, row := range sel.Rows {
		if !row.Feasible || tested >= 4 {
			continue
		}
		rep, err := sess.Simulate(ctx, sunmap.SimRequest{
			Topology:      row.Topology,
			Pattern:       "trace",
			App:           &vopd,
			Mapping:       &mapping,
			Rates:         []float64{0.1},
			Seed:          5,
			WarmupCycles:  300,
			MeasureCycles: 1000,
			DrainCycles:   3000,
		})
		if err != nil {
			t.Fatalf("%s: %v", row.Topology, err)
		}
		st := rep.Rows[0]
		if st.MeasuredPackets == 0 {
			t.Errorf("%s: no packets delivered", row.Topology)
		}
		if st.UnfinishedPackets < 0 {
			t.Errorf("%s: negative unfinished count %d", row.Topology, st.UnfinishedPackets)
		}
		// At 10% offered load a feasible mapping must not saturate.
		if st.Saturated {
			t.Errorf("%s: saturated at 10%% load", row.Topology)
		}
		tested++
	}
	if tested == 0 {
		t.Fatal("no candidates simulated")
	}
}

// TestGenerateForEveryFamily exercises Phase 3 against one mapping of each
// topology family, including the extras.
func TestGenerateForEveryFamily(t *testing.T) {
	app := apps.Synthetic(8, 0.25, 300, 77)
	lib, err := sunmap.Library(8, sunmap.LibraryOptions{IncludeExtras: true})
	if err != nil {
		t.Fatal(err)
	}
	sess := newSession(t)
	families := make(map[topology.Kind]bool)
	for _, topo := range lib {
		if families[topo.Kind()] {
			continue
		}
		families[topo.Kind()] = true
		gen, err := sess.Generate(context.Background(), sunmap.GenerateRequest{
			App:      inlineApp(app),
			Topology: topo.Name(),
			Mapping:  sunmap.MapSpec{Routing: "MP"},
		})
		if err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		var top string
		for _, f := range gen.Files {
			if f.Name == gen.TopModule+".cpp" {
				top = f.Content
			}
		}
		if !strings.Contains(top, "sc_main") {
			t.Errorf("%s: top module missing sc_main", topo.Name())
		}
		// Every router instantiated.
		for r := 0; r < topo.NumRouters(); r++ {
			if !strings.Contains(top, fmt.Sprintf("sw%d(\"sw%d\")", r, r)) {
				t.Errorf("%s: switch %d missing from netlist", topo.Name(), r)
			}
		}
	}
	if len(families) < 7 {
		t.Errorf("only %d families exercised", len(families))
	}
}

// TestRoutingEscalationConsistency verifies that escalation never reports
// a routing function under which the winner would be infeasible.
func TestRoutingEscalationConsistency(t *testing.T) {
	ctx := context.Background()
	mpeg4 := sunmap.AppSpec{Name: "mpeg4"}
	sel, err := newSession(t).Select(ctx, sunmap.SelectRequest{
		App:      mpeg4,
		Mapping:  sunmap.MapSpec{Routing: "DO", Objective: "delay", CapacityMBps: 500},
		Escalate: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best == nil {
		t.Fatal("escalation failed to find a feasible mapping")
	}
	// Re-map the winner under the reported routing function on a fresh
	// session, so nothing replays from the selection's cache: it must
	// still be feasible (determinism check across the escalation loop).
	again, err := newSession(t).Map(ctx, sunmap.MapRequest{
		App:      mpeg4,
		Topology: sel.Topology,
		Mapping:  sunmap.MapSpec{Routing: sel.RoutingUsed, Objective: "delay", CapacityMBps: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !again.BandwidthOK {
		t.Errorf("winner %s infeasible when re-mapped under %s", sel.Topology, sel.RoutingUsed)
	}
	if again.AvgHops != sel.Best.AvgHops {
		t.Errorf("non-deterministic re-map: hops %g vs %g", again.AvgHops, sel.Best.AvgHops)
	}
}
