package exp

import (
	"context"
	"fmt"
	"testing"

	"sunmap"
	"sunmap/internal/apps"
	"sunmap/internal/core"
	"sunmap/internal/graph"
	"sunmap/internal/mapping"
	"sunmap/internal/rank"
	"sunmap/internal/route"
	"sunmap/internal/search"
	"sunmap/internal/tech"
)

// bestPerKind is the reference pick: each topology family's Phase-2
// winner among a selection's feasible candidates, folded in library order.
func bestPerKind(sel *core.Selection) map[string]string {
	best := make(map[string]*mapping.Result)
	for _, c := range sel.Candidates {
		if c.Result == nil || !c.Feasible() {
			continue
		}
		k := c.Result.Topology.Kind().String()
		if cur, ok := best[k]; !ok || rank.Less(resultPoint(c.Result), resultPoint(cur)) {
			best[k] = c.Result
		}
	}
	out := make(map[string]string, len(best))
	for k, r := range best {
		out[k] = r.Topology.Name()
	}
	return out
}

func resultPoint(r *mapping.Result) rank.Point {
	return rank.Point{Cost: r.Cost, PowerMW: r.PowerMW, AreaMM2: r.DesignAreaMM2, Routers: r.Topology.NumRouters(), Name: r.Topology.Name()}
}

// TestFamilyWinnersMatchSelection checks the figures' family-winner pick,
// made from Session reports alone, against the per-kind minimum over the
// selection layer's own candidates. Phase 2's order treats costs within
// 2e-3 as equal and so is not transitive, which makes the pick depend on
// fold order; the random apps carry the check beyond the paper's
// figures.
func TestFamilyWinnersMatchSelection(t *testing.T) {
	ctx := context.Background()
	s := session(t)
	type app struct {
		spec sunmap.AppSpec
		g    *graph.CoreGraph
		cap  float64
	}
	var cases []app
	for _, c := range []struct {
		name string
		cap  float64
	}{{"vopd", 500}, {"mpeg4", 500}, {"netproc", 0}, {"dsp", apps.DSPCapacityMBps}} {
		g, err := apps.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, app{sunmap.AppSpec{Name: c.name}, g, c.cap})
	}
	for seed := int64(1); seed <= 8; seed++ {
		text := graph.Format(search.RandomApp(seed, 8+4*int(seed%3)))
		g, err := graph.ParseString(text)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, app{sunmap.AppSpec{Text: text}, g, 0})
	}
	for _, c := range cases {
		for _, fn := range []route.Function{route.MinPath, route.SplitMin} {
			t.Run(fmt.Sprintf("%s/%v", c.g.Name(), fn), func(t *testing.T) {
				req := sunmap.SelectRequest{App: c.spec, Mapping: sunmap.MapSpec{Routing: fn.String(), Objective: "delay", CapacityMBps: c.cap}}
				rep := s.Do(ctx, sunmap.Request{Op: sunmap.OpSelect, Select: &req})
				if rep.Select == nil {
					t.Fatal(rep.Err())
				}
				ds, err := designs(ctx, s, req, rep.Select)
				if err != nil {
					t.Fatal(err)
				}
				got := make(map[string]string)
				for k, d := range familyWinners(ds) {
					got[k] = d.row.Topology
				}
				sel, err := core.SelectContext(ctx, core.Config{App: c.g, Mapping: mapping.Options{
					Routing: fn, Objective: mapping.MinDelay, CapacityMBps: c.cap, Tech: tech.Tech100nm(),
				}})
				if err != nil {
					t.Fatal(err)
				}
				want := bestPerKind(sel)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("family winners from reports %v, from the selection %v", got, want)
				}
				// The tie rule makes the pick order-sensitive, so the
				// designs must come in the selection's (library) order.
				var gotOrder, wantOrder []string
				for _, d := range ds {
					gotOrder = append(gotOrder, d.row.Topology)
				}
				for _, c := range sel.Candidates {
					if c.Result != nil && c.Feasible() {
						wantOrder = append(wantOrder, c.Result.Topology.Name())
					}
				}
				if fmt.Sprint(gotOrder) != fmt.Sprint(wantOrder) {
					t.Errorf("designs in order %v, selection folds %v", gotOrder, wantOrder)
				}
			})
		}
	}
}

// TestBestCompositeMPEG4PicksMesh: under split routing the torus has
// lower hop delay, but the mesh's area and power savings "overshadow the
// slightly higher communication delay cost" (Section 6.1); the
// equal-weight composite judgement must land on the mesh.
func TestBestCompositeMPEG4PicksMesh(t *testing.T) {
	s := session(t)
	sel, ds, err := selection(context.Background(), s, sunmap.SelectRequest{App: sunmap.AppSpec{Name: "mpeg4"}, Mapping: videoSpec("SM")})
	if err != nil {
		t.Fatal(err)
	}
	best := composite(ds, 1, 1, 1)
	if best == nil {
		t.Fatal("composite found nothing feasible")
	}
	if best.row.Kind != "mesh" {
		t.Errorf("composite picked %s, want a mesh", best.row.Topology)
	}
	// Pure-delay weighting must agree with the delay-objective Phase 2
	// winner's hop count.
	delayBest := composite(ds, 1, 0, 0)
	if delayBest.row.AvgHops > sel.Best.AvgHops+1e-9 {
		t.Errorf("delay-only composite hops %g above Phase 2 best %g", delayBest.row.AvgHops, sel.Best.AvgHops)
	}
	// Area-only and power-only weightings pick the respective minima.
	areaBest, powerBest := composite(ds, 0, 1, 0), composite(ds, 0, 0, 1)
	for _, d := range ds {
		if d.row.AreaMM2 < areaBest.row.AreaMM2-1e-9 {
			t.Errorf("area composite missed %s (%g < %g)", d.row.Topology, d.row.AreaMM2, areaBest.row.AreaMM2)
		}
		if d.row.PowerMW < powerBest.row.PowerMW-1e-9 {
			t.Errorf("power composite missed %s (%g < %g)", d.row.Topology, d.row.PowerMW, powerBest.row.PowerMW)
		}
	}
}

// TestBestCompositeEmptySelection: an infeasible-only selection has no
// designs, and the composite of none is nil, not a panic.
func TestBestCompositeEmptySelection(t *testing.T) {
	ctx := context.Background()
	s := session(t)
	req := sunmap.SelectRequest{App: sunmap.AppSpec{Name: "mpeg4"}, Mapping: videoSpec("MP")} // 910 > 500: nothing feasible
	rep := s.Do(ctx, sunmap.Request{Op: sunmap.OpSelect, Select: &req})
	if rep.ErrorKind != sunmap.ErrorKindInfeasible {
		t.Fatalf("error kind %q, want %q", rep.ErrorKind, sunmap.ErrorKindInfeasible)
	}
	ds, err := designs(ctx, s, req, rep.Select)
	if err != nil {
		t.Fatal(err)
	}
	if best := composite(ds, 1, 1, 1); best != nil {
		t.Errorf("composite returned %s from an infeasible selection", best.row.Topology)
	}
}
