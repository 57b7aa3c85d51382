package core

import (
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/mapping"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

func TestRoutingSweepMPEG4Mesh(t *testing.T) {
	// Fig. 9(a): on the mesh, only the splitting functions fit under the
	// 500 MB/s links; single-path functions need >= 910 (the largest
	// commodity).
	topo, err := topology.NewMesh(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RoutingSweep(apps.MPEG4(), topo, mapping.Options{
		Objective:    mapping.MinDelay,
		CapacityMBps: apps.DefaultCapacityMBps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4 (DO, MP, SM, SA)", len(rows))
	}
	byFn := make(map[route.Function]RoutingSweepRow)
	for _, r := range rows {
		byFn[r.Function] = r
	}
	if byFn[route.DimensionOrdered].RequiredMBps < 910 {
		t.Errorf("DO requires %g, want >= 910", byFn[route.DimensionOrdered].RequiredMBps)
	}
	if byFn[route.MinPath].RequiredMBps < 910 {
		t.Errorf("MP requires %g, want >= 910", byFn[route.MinPath].RequiredMBps)
	}
	if byFn[route.SplitMin].RequiredMBps > 500 {
		t.Errorf("SM requires %g, want <= 500", byFn[route.SplitMin].RequiredMBps)
	}
	if byFn[route.SplitAll].RequiredMBps > 500 {
		t.Errorf("SA requires %g, want <= 500", byFn[route.SplitAll].RequiredMBps)
	}
}

func TestRoutingSweepVOPDAllFeasible(t *testing.T) {
	// VOPD's max flow equals the capacity, so every routing function can
	// reach feasibility on a mesh; single-path functions are bounded
	// below by the 500 MB/s flow, splitting functions may go lower.
	topo, err := topology.NewMesh(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RoutingSweep(apps.VOPD(), topo, mapping.Options{
		Objective:    mapping.MinDelay,
		CapacityMBps: apps.DefaultCapacityMBps,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.RequiredMBps > 500+1e-6 {
			t.Errorf("%v requires %g, want <= 500 for VOPD", r.Function, r.RequiredMBps)
		}
		if (r.Function == route.DimensionOrdered || r.Function == route.MinPath) && r.RequiredMBps < 500 {
			t.Errorf("%v requires %g, single-path cannot go below the 500 flow", r.Function, r.RequiredMBps)
		}
	}
}

func TestParetoExploreMPEG4(t *testing.T) {
	topo, err := topology.NewMesh(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := ParetoExplore(apps.MPEG4(), topo, mapping.Options{
		Routing:      route.SplitMin,
		CapacityMBps: apps.DefaultCapacityMBps,
	}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Distinct points after deduplication; different weight vectors often
	// converge to the same mapping, so a couple of distinct points is the
	// floor.
	if len(pts) < 2 {
		t.Fatalf("only %d design points", len(pts))
	}
	front := ParetoFront(pts)
	if len(front) == 0 {
		t.Fatal("empty Pareto front")
	}
	// No front point may dominate another front point.
	for i, a := range front {
		for j, b := range front {
			if i == j {
				continue
			}
			if a.AreaMM2 < b.AreaMM2-1e-9 && a.PowerMW < b.PowerMW-1e-9 {
				t.Errorf("front point %d dominates front point %d", i, j)
			}
		}
	}
	// Every non-front point must be dominated by some front point.
	for _, p := range pts {
		if p.Dominant {
			continue
		}
		dominated := false
		for _, f := range front {
			if f.AreaMM2 <= p.AreaMM2+1e-9 && f.PowerMW <= p.PowerMW+1e-9 {
				dominated = true
			}
		}
		if !dominated {
			t.Errorf("point (%g, %g) marked dominated but is not", p.AreaMM2, p.PowerMW)
		}
	}
}

func TestParetoExploreStepsClamped(t *testing.T) {
	topo, err := topology.NewMesh(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := ParetoExplore(apps.DSPFilter(), topo, mapping.Options{
		Routing:      route.MinPath,
		CapacityMBps: apps.DSPCapacityMBps,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Error("no points with clamped steps")
	}
}
