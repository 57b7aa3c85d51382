package sunmap_test

// Tests for the Session's design-space explorers (Fig. 9): the routing
// sweep's bandwidth bounds, the Pareto front's dominance marking with and
// without a fault model, the steps cap, cache sharing with a selection,
// and the layout of the selection's per-topology rows.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"sunmap"
	"sunmap/internal/topology"
)

func sweepRows(t *testing.T, sess *sunmap.Session, app string) map[string]sunmap.SweepRow {
	t.Helper()
	rep, err := sess.RoutingSweep(context.Background(), sunmap.SweepRequest{
		App: sunmap.AppSpec{Name: app}, Topology: "mesh-3x4",
		Mapping: sunmap.MapSpec{CapacityMBps: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("%d rows, want 4 (DO, MP, SM, SA)", len(rep.Rows))
	}
	byFn := make(map[string]sunmap.SweepRow)
	for i, want := range []string{"DO", "MP", "SM", "SA"} {
		if r := rep.Rows[i]; r.Function != want {
			t.Errorf("row %d is %s, want %s (escalation order)", i, r.Function, want)
		}
		byFn[rep.Rows[i].Function] = rep.Rows[i]
	}
	return byFn
}

// TestRoutingSweepMPEG4Mesh pins Fig. 9(a): on the mesh, only the
// splitting functions fit under the 500 MB/s links; single-path functions
// need >= 910 (the largest commodity).
func TestRoutingSweepMPEG4Mesh(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	rows := sweepRows(t, sess, "mpeg4")
	for _, fn := range []string{"DO", "MP"} {
		if r := rows[fn]; r.RequiredMBps < 910 || r.FeasibleAtCap {
			t.Errorf("%s requires %g (feasible %v), want >= 910 and infeasible", fn, r.RequiredMBps, r.FeasibleAtCap)
		}
	}
	for _, fn := range []string{"SM", "SA"} {
		if r := rows[fn]; r.RequiredMBps > 500 || !r.FeasibleAtCap {
			t.Errorf("%s requires %g (feasible %v), want <= 500 and feasible", fn, r.RequiredMBps, r.FeasibleAtCap)
		}
	}
}

// TestRoutingSweepVOPDAllFeasible: VOPD's largest flow equals the
// capacity, so every routing function reaches feasibility on the mesh;
// single-path functions are bounded below by that 500 MB/s flow.
func TestRoutingSweepVOPDAllFeasible(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	for fn, r := range sweepRows(t, sess, "vopd") {
		if r.RequiredMBps > 500+1e-6 {
			t.Errorf("%s requires %g, want <= 500 for VOPD", fn, r.RequiredMBps)
		}
		if (fn == "DO" || fn == "MP") && r.RequiredMBps < 500 {
			t.Errorf("%s requires %g, single-path cannot go below the 500 flow", fn, r.RequiredMBps)
		}
	}
}

// TestSharedCacheAcrossSelectAndExplorers: an escalated MPEG4 selection
// maps mesh-3x4 under MP and SM, so a routing sweep on that mesh replays
// those two design points and maps only DO and SA; replaying the
// selection then adds no entries.
func TestSharedCacheAcrossSelectAndExplorers(t *testing.T) {
	for _, par := range []int{1, 2} {
		sess, err := sunmap.NewSession(sunmap.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		sel := sunmap.SelectRequest{App: sunmap.AppSpec{Name: "mpeg4"}, Mapping: sunmap.MapSpec{CapacityMBps: 500}, Escalate: true}
		first, err := sess.Select(ctx, sel)
		if err != nil {
			t.Fatal(err)
		}
		if first.RoutingUsed != "SM" {
			t.Fatalf("routing used = %s, want SM (Fig. 7b)", first.RoutingUsed)
		}
		before := sess.CacheStats()
		if before.Hits != 0 {
			t.Fatalf("parallelism %d: fresh cache reported %d hits", par, before.Hits)
		}
		sweepRows(t, sess, "mpeg4")
		after := sess.CacheStats()
		if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; hits != 2 || misses != 2 {
			t.Errorf("parallelism %d: sweep made %d hits and %d misses, want 2 and 2 (MP and SM already mapped)", par, hits, misses)
		}
		again, err := sess.Select(ctx, sel)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Errorf("parallelism %d: replayed selection differs", par)
		}
		if st := sess.CacheStats(); st.Entries != after.Entries {
			t.Errorf("parallelism %d: replayed selection grew the cache from %d to %d entries", par, after.Entries, st.Entries)
		}
	}
}

func pareto(t *testing.T, sess *sunmap.Session, req sunmap.ParetoRequest) []sunmap.ParetoPointRow {
	t.Helper()
	rep, err := sess.ParetoExplore(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) == 0 {
		t.Fatal("no design points")
	}
	return rep.Points
}

func surv(p sunmap.ParetoPointRow) float64 {
	if p.Survivability == nil {
		return 0
	}
	return *p.Survivability
}

// checkFront asserts the front is non-empty, that no front point is
// dominated, and that every point off the front is dominated by a front
// point — in (area, power, survivability), where a point without a
// survivability counts as 0.
func checkFront(t *testing.T, pts []sunmap.ParetoPointRow) {
	t.Helper()
	const tol = 1e-9
	dominates := func(a, b sunmap.ParetoPointRow) bool {
		return a.AreaMM2 <= b.AreaMM2+tol && a.PowerMW <= b.PowerMW+tol && surv(a) >= surv(b)-tol &&
			(a.AreaMM2 < b.AreaMM2-tol || a.PowerMW < b.PowerMW-tol || surv(a) > surv(b)+tol)
	}
	front := 0
	for i, p := range pts {
		if p.Dominant {
			front++
		}
		dominated := false
		for j, q := range pts {
			if i != j && dominates(q, p) {
				if p.Dominant {
					t.Errorf("front point %d dominated by point %d", i, j)
				}
				dominated = dominated || q.Dominant
			}
		}
		if !p.Dominant && !dominated {
			t.Errorf("point %d (%g mm², %g mW) marked dominated, but no front point dominates it", i, p.AreaMM2, p.PowerMW)
		}
	}
	if front == 0 {
		t.Error("empty Pareto front")
	}
}

// TestParetoExploreMPEG4 pins Fig. 9(b)'s front on the mesh: several
// distinct design points, and a consistently marked area-power front.
func TestParetoExploreMPEG4(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	pts := pareto(t, sess, sunmap.ParetoRequest{
		App: sunmap.AppSpec{Name: "mpeg4"}, Topology: "mesh-3x4",
		Mapping: sunmap.MapSpec{Routing: "SM", CapacityMBps: 500}, Steps: 5,
	})
	// Different weight vectors often converge to the same mapping, so a
	// couple of distinct points is the floor.
	if len(pts) < 2 {
		t.Fatalf("only %d design points", len(pts))
	}
	for _, p := range pts {
		if p.Survivability != nil {
			t.Fatalf("fault-free exploration reports survivability: %+v", p)
		}
	}
	checkFront(t, pts)
}

// TestParetoReliabilityAxis checks the fault-aware exploration: every
// point carries a survivability in [0, 1], and the front is marked in
// the three-objective space.
func TestParetoReliabilityAxis(t *testing.T) {
	sess, err := sunmap.NewSession(sunmap.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	pts := pareto(t, sess, sunmap.ParetoRequest{
		App: sunmap.AppSpec{Name: "vopd"}, Topology: "mesh-3x4",
		Mapping: sunmap.MapSpec{Routing: "MP", CapacityMBps: 500}, Steps: 3,
		Fault: &sunmap.FaultSpec{K: 1},
	})
	for _, p := range pts {
		if p.Survivability == nil {
			t.Fatalf("point missing survivability: %+v", p)
		}
		if s := *p.Survivability; s < 0 || s > 1 {
			t.Errorf("survivability %g outside [0,1]", s)
		}
	}
	checkFront(t, pts)
}

// TestParetoExploreStepsClamped: steps 0 and 1 both select the default
// grid of 5, and steps outside [0, 40] is a bad request rejected before
// any job list is built.
func TestParetoExploreStepsClamped(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	req := sunmap.ParetoRequest{
		App: sunmap.AppSpec{Name: "dsp"}, Topology: "mesh-2x3",
		Mapping: sunmap.MapSpec{CapacityMBps: 1000},
	}
	var reps []sunmap.Report
	for _, steps := range []int{0, 1, 5} {
		r := req
		r.Steps = steps
		reps = append(reps, sess.Do(context.Background(), sunmap.Request{Op: sunmap.OpPareto, Pareto: &r}))
	}
	if reps[0].Error != "" || len(reps[0].Pareto.Points) == 0 {
		t.Fatalf("default steps: %+v", reps[0])
	}
	if !reflect.DeepEqual(reps[0], reps[1]) || !reflect.DeepEqual(reps[0], reps[2]) {
		t.Error("steps 0, 1 and 5 gave different explorations")
	}

	for _, steps := range []int{-1, 41, 1_000_000_000} {
		r := req
		r.Steps = steps
		rep := sess.Do(context.Background(), sunmap.Request{Op: sunmap.OpPareto, Pareto: &r})
		if rep.ErrorKind != sunmap.ErrorKindBadRequest {
			t.Errorf("steps %d: error kind %q (%s), want %q", steps, rep.ErrorKind, rep.Error, sunmap.ErrorKindBadRequest)
		}
	}
	req.Steps = 1_000_000_000
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := sess.ParetoExplore(context.Background(), req); !errors.Is(err, sunmap.ErrBadRequest) {
			t.Fatalf("err = %v, want ErrBadRequest", err)
		}
	})
	if allocs > 10 {
		t.Errorf("rejecting steps 1e9 made %v allocations, want <= 10 (no job list)", allocs)
	}
}

// TestSummariesSortedAndComplete checks the per-topology table of a
// selection: one row per mapped candidate, sorted by kind (in the
// library's kind order), then name, each with real switch, link and hop
// counts, and counts that agree with the rows.
func TestSummariesSortedAndComplete(t *testing.T) {
	sess, err := sunmap.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sess.Select(context.Background(), sunmap.SelectRequest{
		App: sunmap.AppSpec{Name: "vopd"}, Mapping: sunmap.MapSpec{CapacityMBps: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 || len(rep.Rows) != rep.Candidates {
		t.Fatalf("%d rows for %d candidates", len(rep.Rows), rep.Candidates)
	}
	kindOrder := make(map[string]int)
	for k := topology.Mesh; k <= topology.Synth; k++ {
		kindOrder[k.String()] = int(k)
	}
	feasible := 0
	for i, r := range rep.Rows {
		if _, ok := kindOrder[r.Kind]; !ok {
			t.Fatalf("row %s has unknown kind %q", r.Topology, r.Kind)
		}
		if i > 0 {
			p := rep.Rows[i-1]
			if kp, kr := kindOrder[p.Kind], kindOrder[r.Kind]; kp > kr || (kp == kr && p.Topology >= r.Topology) {
				t.Errorf("row %s (%s) follows %s (%s): want kind, then name order", r.Topology, r.Kind, p.Topology, p.Kind)
			}
		}
		if r.Switches <= 0 || r.Links <= 0 || r.AvgHops <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
		if r.Feasible {
			feasible++
		}
	}
	if feasible != rep.Feasible || rep.Synthesized != 0 {
		t.Errorf("report counts %d feasible and %d synthesized, rows show %d and 0", rep.Feasible, rep.Synthesized, feasible)
	}
}
