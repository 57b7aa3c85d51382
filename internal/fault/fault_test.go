package fault

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/graph"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

func mustTopo(topo topology.Topology, err error) topology.Topology {
	if err != nil {
		panic(err)
	}
	return topo
}

func identityAssign(n int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	return a
}

func comm(id, src, dst int, bw float64) graph.Commodity {
	return graph.Commodity{ID: id, Src: src, Dst: dst, ValueMBps: bw}
}

// ringComms is a small commodity set on a 2x2 mesh whose survivability
// is strictly between 0 and 1 under tight capacity — the interesting
// regime for the estimator tests.
func ringComms() []graph.Commodity {
	return []graph.Commodity{
		comm(0, 0, 3, 200),
		comm(1, 1, 2, 100),
		comm(2, 2, 0, 50),
	}
}

func TestScenarioCounts(t *testing.T) {
	topo := mustTopo(topology.NewMesh(2, 2)) // 4 channels, 4 switches

	cases := []struct {
		model      Model
		want       int
		exhaustive bool
	}{
		{Model{K: 1, Elements: Links}, 4, true},
		{Model{K: 1, Elements: Switches}, 4, true},
		{Model{K: 2, Elements: Both}, 28, true}, // C(8,2)
		{Model{K: 3, Elements: Links, Samples: 100}, 100, false},
		{Model{K: 1, Elements: Links, ForceSampling: true, Samples: 64}, 64, false},
	}
	for _, tc := range cases {
		scens, exhaustive, err := Scenarios(topo, tc.model)
		if err != nil {
			t.Fatalf("%+v: %v", tc.model, err)
		}
		if len(scens) != tc.want || exhaustive != tc.exhaustive {
			t.Errorf("%+v: %d scenarios (exhaustive=%v), want %d (%v)",
				tc.model, len(scens), exhaustive, tc.want, tc.exhaustive)
		}
	}
	if _, _, err := Scenarios(topo, Model{K: 9, Elements: Both}); err == nil {
		t.Error("k beyond the element count accepted")
	}
}

// TestScenariosDeterministic pins that sampling is a pure function of
// (topology, model): the pre-drawn scenario set never depends on who
// evaluates it.
func TestScenariosDeterministic(t *testing.T) {
	topo := mustTopo(topology.NewMesh(3, 3))
	m := Model{K: 3, Elements: Both, Samples: 200, Seed: 7}
	a, _, err := Scenarios(topo, m)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Scenarios(topo, m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same model drew different scenario sets")
	}
	m.Seed = 8
	c, _, err := Scenarios(topo, m)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds drew identical scenario sets")
	}
}

// TestMonteCarloMatchesExhaustive is the estimator-consistency gate of
// the acceptance criteria: on a small topology, the Monte Carlo
// survivability and expected-degradation estimates converge to the
// exhaustive k-subset enumeration as the sample count grows.
func TestMonteCarloMatchesExhaustive(t *testing.T) {
	// A 3x3 mesh keeps double faults interesting: some pairs disconnect
	// a corner flow, some merely congest the detours past capacity, and
	// many are survivable.
	topo := mustTopo(topology.NewMesh(3, 3))
	assign := identityAssign(9)
	comms := []graph.Commodity{
		comm(0, 0, 8, 200),
		comm(1, 2, 6, 150),
		comm(2, 6, 0, 100),
	}
	opts := Degraded(route.Options{Function: route.MinPath, CapacityMBps: 300})

	for _, k := range []int{1, 2} {
		exact, exhaustive, err := Scenarios(topo, Model{K: k, Elements: Both})
		if err != nil {
			t.Fatal(err)
		}
		if !exhaustive {
			t.Fatalf("k=%d not enumerated exhaustively", k)
		}
		exRep, err := Sweep(topo, assign, comms, opts, exact, true)
		if err != nil {
			t.Fatal(err)
		}
		if exRep.Survivability() <= 0 || exRep.Survivability() >= 1 {
			t.Fatalf("k=%d exhaustive survivability %g is degenerate; the convergence check needs 0 < p < 1",
				k, exRep.Survivability())
		}

		sampled, _, err := Scenarios(topo, Model{K: k, Elements: Both, ForceSampling: true, Samples: 20000, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		mcRep, err := Sweep(topo, assign, comms, opts, sampled, false)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(mcRep.Survivability() - exRep.Survivability()); d > 0.02 {
			t.Errorf("k=%d: MC survivability %g vs exhaustive %g (|d|=%g)",
				k, mcRep.Survivability(), exRep.Survivability(), d)
		}
		if d := math.Abs(mcRep.ConnectedFrac() - exRep.ConnectedFrac()); d > 0.02 {
			t.Errorf("k=%d: MC connected %g vs exhaustive %g (|d|=%g)",
				k, mcRep.ConnectedFrac(), exRep.ConnectedFrac(), d)
		}
		if ex := exRep.ExpMaxLinkLoadMBps; ex > 0 {
			if d := math.Abs(mcRep.ExpMaxLinkLoadMBps-ex) / ex; d > 0.05 {
				t.Errorf("k=%d: MC expected max load %g vs exhaustive %g (rel %g)",
					k, mcRep.ExpMaxLinkLoadMBps, ex, d)
			}
		}
	}
}

// TestSwitchFaultSeversAttachedCore checks that a failed endpoint switch
// disconnects its commodities outright — no rerouting can save them.
func TestSwitchFaultSeversAttachedCore(t *testing.T) {
	topo := mustTopo(topology.NewMesh(2, 2))
	ev, err := NewEvaluator(topo, identityAssign(4), ringComms(),
		Degraded(route.Options{Function: route.MinPath}))
	if err != nil {
		t.Fatal(err)
	}
	var links []int
	for _, l := range topo.Links() {
		if l.From == 0 || l.To == 0 {
			links = append(links, l.ID)
		}
	}
	out := ev.Eval(Scenario{Links: links, Switches: []int{0}})
	if out.Connected {
		t.Error("design survived losing the switch hosting terminal 0")
	}
	// A non-endpoint fault on a richer mesh stays connected.
	topo9 := mustTopo(topology.NewMesh(3, 3))
	ev9, err := NewEvaluator(topo9, identityAssign(9),
		[]graph.Commodity{comm(0, 0, 2, 100)},
		Degraded(route.Options{Function: route.MinPath}))
	if err != nil {
		t.Fatal(err)
	}
	var mid []int
	for _, l := range topo9.Links() {
		if l.From == 4 || l.To == 4 {
			mid = append(mid, l.ID)
		}
	}
	if out := ev9.Eval(Scenario{Links: mid, Switches: []int{4}}); !out.Connected {
		t.Error("corner-to-corner flow did not survive losing the center switch")
	}
}

// TestDegradedLowering pins the degraded-mode function mapping and the
// option hygiene the sweep depends on.
func TestDegradedLowering(t *testing.T) {
	cases := []struct{ in, want route.Function }{
		{route.DimensionOrdered, route.MinPath},
		{route.MinPath, route.MinPath},
		{route.SplitMin, route.SplitAll},
		{route.SplitAll, route.SplitAll},
	}
	for _, tc := range cases {
		got := Degraded(route.Options{Function: tc.in, CapacityMBps: 500, Chunks: 16,
			DownLinks: make([]bool, 3)})
		if got.Function != tc.want {
			t.Errorf("Degraded(%v).Function = %v, want %v", tc.in, got.Function, tc.want)
		}
		if !got.DisableQuadrant || !got.LoadsOnly || got.DownLinks != nil {
			t.Errorf("Degraded(%v) = %+v: want quadrant off, loads only, no stale mask", tc.in, got)
		}
		if got.CapacityMBps != 500 || got.Chunks != 16 {
			t.Errorf("Degraded(%v) dropped capacity/chunks: %+v", tc.in, got)
		}
	}
}

// vopdMesh returns the VOPD benchmark identity-assigned onto a 3x4 mesh
// with its commodity set — the shared fixture of the alloc gate, the
// parallelism test and the benchmark.
func vopdMesh() (topology.Topology, []int, []graph.Commodity) {
	g := apps.VOPD()
	topo := mustTopo(topology.NewMesh(3, 4))
	return topo, identityAssign(g.NumCores()), g.Commodities()
}

// TestMaskedRerouteAllocFree is the acceptance gate on the sweep's hot
// loop: once the evaluator is warm, rerouting a connected failure
// scenario must not allocate at all — for the single-path and the
// splitting degraded modes alike.
func TestMaskedRerouteAllocFree(t *testing.T) {
	topo, assign, comms := vopdMesh()
	scens, _, err := Scenarios(topo, Model{K: 2, Elements: Both})
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []route.Function{route.MinPath, route.SplitAll} {
		ev, err := NewEvaluator(topo, assign, comms,
			Degraded(route.Options{Function: fn, CapacityMBps: 500}))
		if err != nil {
			t.Fatal(err)
		}
		// Warm every buffer (solver epochs, split arena, path scratch)
		// with a full pass, and pick a connected scenario to gate on —
		// disconnected scenarios build an error and are not the steady
		// state.
		gate := Scenario{}
		for _, s := range scens {
			if ev.Eval(s).Connected {
				gate = s
			}
		}
		if gate.Links == nil && gate.Switches == nil {
			t.Fatalf("%v: no connected scenario to gate on", fn)
		}
		if allocs := testing.AllocsPerRun(200, func() { ev.Eval(gate) }); allocs != 0 {
			t.Errorf("%v: steady-state masked reroute allocates %.1f objects/op, want 0", fn, allocs)
		}
	}
}

// TestSweepSteadyAllocBudget gates the whole-sweep steady state: a warm
// Sweeper re-sweeping a prebuilt scenario set sequentially must stay
// within a small allocation budget — the Report it returns, the copied
// worst-case/disconnecting scenarios, and the handful of reroute errors
// built for link-disconnected scenarios.
func TestSweepSteadyAllocBudget(t *testing.T) {
	topo, assign, comms := vopdMesh()
	opts := Degraded(route.Options{Function: route.MinPath, CapacityMBps: 500})
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		model Model
	}{
		{"k2-both", Model{K: 2, Elements: Both}},
		{"k3-mc512", Model{K: 3, Elements: Both, Samples: 512}},
	} {
		scens, exhaustive, err := Scenarios(topo, tc.model)
		if err != nil {
			t.Fatal(err)
		}
		sw := NewSweeper()
		if _, err := sw.SweepContext(ctx, topo, assign, comms, opts, scens, exhaustive, 1, nil); err != nil {
			t.Fatal(err) // warm the evaluator and outcome buffers
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := sw.SweepContext(ctx, topo, assign, comms, opts, scens, exhaustive, 1, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 100 {
			t.Errorf("%s: steady-state sweep allocates %.1f objects/op, want <= 100", tc.name, allocs)
		}
	}
}

// TestSweeperReuseMatchesFresh checks the Sweeper's buffer reuse never
// leaks state between design points: re-sweeping different models and
// scenario sets through one Sweeper reports exactly what fresh sweeps do.
func TestSweeperReuseMatchesFresh(t *testing.T) {
	topo, assign, comms := vopdMesh()
	opts := Degraded(route.Options{Function: route.MinPath, CapacityMBps: 500})
	ctx := context.Background()
	sw := NewSweeper()
	for _, model := range []Model{
		{K: 2, Elements: Both},
		{K: 1, Elements: Links},
		{K: 3, Elements: Both, Samples: 256},
	} {
		scens, exhaustive, err := Scenarios(topo, model)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sw.SweepContext(ctx, topo, assign, comms, opts, scens, exhaustive, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Sweep(topo, assign, comms, opts, scens, exhaustive)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: reused sweeper diverged:\ngot:  %+v\nwant: %+v", model, got, want)
		}
	}
}

// TestSweepIdenticalAcrossParallelism checks the determinism contract:
// the folded report is byte-identical no matter how many workers
// evaluated the scenarios.
func TestSweepIdenticalAcrossParallelism(t *testing.T) {
	topo, assign, comms := vopdMesh()
	opts := Degraded(route.Options{Function: route.MinPath, CapacityMBps: 500})
	scens, exhaustive, err := Scenarios(topo, Model{K: 2, Elements: Both})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := SweepContext(context.Background(), topo, assign, comms, opts, scens, exhaustive, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 8} {
		got, err := SweepContext(context.Background(), topo, assign, comms, opts, scens, exhaustive, par, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, got) {
			t.Errorf("parallelism %d report diverged from sequential:\nseq: %+v\ngot: %+v", par, seq, got)
		}
	}
	if seq.Scenarios != len(scens) || seq.Connected == 0 {
		t.Fatalf("implausible report: %+v", seq)
	}
	if seq.Baseline.MaxLinkLoadMBps <= 0 {
		t.Error("baseline carries no load")
	}
	if seq.WorstMaxLinkLoadMBps < seq.Baseline.MaxLinkLoadMBps {
		t.Errorf("worst-case load %g below baseline %g",
			seq.WorstMaxLinkLoadMBps, seq.Baseline.MaxLinkLoadMBps)
	}
	if seq.ExpMaxLinkLoadMBps > seq.WorstMaxLinkLoadMBps {
		t.Errorf("expected load %g above worst case %g",
			seq.ExpMaxLinkLoadMBps, seq.WorstMaxLinkLoadMBps)
	}
}

// TestSweepCancellation checks a canceled context aborts the sweep with
// the context's error.
func TestSweepCancellation(t *testing.T) {
	topo, assign, comms := vopdMesh()
	opts := Degraded(route.Options{Function: route.MinPath, CapacityMBps: 500})
	scens, _, err := Scenarios(topo, Model{K: 2, Elements: Both})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SweepContext(ctx, topo, assign, comms, opts, scens, true, 4, nil); err != context.Canceled {
		t.Errorf("canceled sweep returned %v, want context.Canceled", err)
	}
}

// TestSweepDedupMatchesPerScenario pins the distinct-scenario sweep to
// the plain definition: fold over one fresh Evaluator per scenario. The
// cases carry many repeated masks — k=2 "both" pairs of a switch with
// one of its own channels, and independent Monte Carlo k=3 draws on a
// small hypercube — under single-path and splitting reroutes, at one
// and two workers. It also checks the sweeper evaluated exactly one
// scenario per distinct mask.
func TestSweepDedupMatchesPerScenario(t *testing.T) {
	vopd := apps.VOPD()
	cubeComms := []graph.Commodity{
		comm(0, 0, 7, 200),
		comm(1, 3, 4, 150),
		comm(2, 5, 2, 100),
		comm(3, 1, 6, 120),
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		topo   topology.Topology
		assign []int
		comms  []graph.Commodity
		capMB  float64
		model  Model
	}{
		{"mesh-4x4/k2-both", mustTopo(topology.NewMesh(4, 4)), identityAssign(vopd.NumCores()), vopd.Commodities(),
			600, Model{K: 2, Elements: Both}},
		{"hypercube-3/k3-mc512", mustTopo(topology.NewHypercube(3)), identityAssign(8), cubeComms,
			300, Model{K: 3, Elements: Both, Samples: 512, Seed: 5}},
	} {
		scens, exhaustive, err := Scenarios(tc.topo, tc.model)
		if err != nil {
			t.Fatal(err)
		}
		masks := make(map[string]bool)
		for _, s := range scens {
			masks[fmt.Sprint(s.Links, s.Switches)] = true
		}
		if len(masks) == len(scens) {
			t.Fatalf("%s: no repeated scenario to deduplicate", tc.name)
		}
		for _, fn := range []route.Function{route.MinPath, route.SplitAll} {
			opts := Degraded(route.Options{Function: fn, CapacityMBps: tc.capMB})
			outcomes := make([]Outcome, len(scens))
			var baseline Outcome
			for i, s := range scens {
				ev, err := NewEvaluator(tc.topo, tc.assign, tc.comms, opts)
				if err != nil {
					t.Fatal(err)
				}
				baseline = ev.Baseline()
				outcomes[i] = ev.Eval(s)
			}
			want := fold(baseline, scens, outcomes, exhaustive)
			if want.Feasible == 0 || want.Feasible == want.Connected || want.Disconnecting == nil {
				t.Fatalf("%s/%v: degenerate report %+v", tc.name, fn, want)
			}
			for _, par := range []int{1, 2} {
				sw := NewSweeper()
				got, err := sw.SweepContext(ctx, tc.topo, tc.assign, tc.comms, opts, scens, exhaustive, par, nil)
				if err != nil {
					t.Fatal(err)
				}
				if d := reportDiff(got, want); d != "" {
					t.Errorf("%s/%v/parallelism %d: %s", tc.name, fn, par, d)
				}
				if n := len(sw.distinct); n != len(masks) {
					t.Errorf("%s/%v/parallelism %d: evaluated %d scenarios, want %d distinct of %d",
						tc.name, fn, par, n, len(masks), len(scens))
				}
			}
		}
	}
}

// reportDiff names the first Report field where a and b differ, floats
// compared by bit pattern; "" when they are identical.
func reportDiff(a, b *Report) string {
	bits := math.Float64bits
	sameOutcome := func(x, y Outcome) bool {
		return x.Connected == y.Connected && x.Feasible == y.Feasible &&
			bits(x.MaxLinkLoadMBps) == bits(y.MaxLinkLoadMBps) && bits(x.AvgHops) == bits(y.AvgHops)
	}
	for _, f := range []struct {
		name string
		same bool
	}{
		{"Scenarios", a.Scenarios == b.Scenarios},
		{"Exhaustive", a.Exhaustive == b.Exhaustive},
		{"Connected", a.Connected == b.Connected},
		{"Feasible", a.Feasible == b.Feasible},
		{"Baseline", sameOutcome(a.Baseline, b.Baseline)},
		{"WorstMaxLinkLoadMBps", bits(a.WorstMaxLinkLoadMBps) == bits(b.WorstMaxLinkLoadMBps)},
		{"ExpMaxLinkLoadMBps", bits(a.ExpMaxLinkLoadMBps) == bits(b.ExpMaxLinkLoadMBps)},
		{"WorstAvgHops", bits(a.WorstAvgHops) == bits(b.WorstAvgHops)},
		{"ExpAvgHops", bits(a.ExpAvgHops) == bits(b.ExpAvgHops)},
		{"WorstCase", reflect.DeepEqual(a.WorstCase, b.WorstCase)},
		{"Disconnecting", reflect.DeepEqual(a.Disconnecting, b.Disconnecting)},
	} {
		if !f.same {
			return fmt.Sprintf("%s differs:\ngot:  %+v\nwant: %+v", f.name, a, b)
		}
	}
	return ""
}
