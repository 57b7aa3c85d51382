package mapping

import (
	"context"
	"math"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/graph"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

// benchCase is one tracked mapping configuration.
type benchCase struct {
	name string
	app  func() *graph.CoreGraph
	topo string
	opts Options
}

// benchCases are the tracked configurations: the two hot apps under the
// two objectives the swap loop most often runs with, plus the other two
// objectives and Clos networks and a butterfly, where the flat hop count
// leaves the bound only its load and power terms and min-delay candidates
// mostly tie (the tie certificates' cases).
var benchCases = []benchCase{
	{"vopd/min-delay", apps.VOPD, "mesh-3x4", Options{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 500}},
	{"vopd/weighted", apps.VOPD, "mesh-3x4", Options{Routing: route.MinPath, Objective: Weighted,
		Weights: Weights{Delay: 1, Area: 1, Power: 1}, CapacityMBps: 500}},
	{"mpeg4/min-delay", apps.MPEG4, "mesh-3x4", Options{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 500}},
	{"mpeg4/weighted", apps.MPEG4, "mesh-3x4", Options{Routing: route.MinPath, Objective: Weighted,
		Weights: Weights{Delay: 1, Area: 1, Power: 1}, CapacityMBps: 500}},
	{"vopd/min-area", apps.VOPD, "mesh-3x4", Options{Routing: route.MinPath, Objective: MinArea, CapacityMBps: 500}},
	{"mpeg4/min-power", apps.MPEG4, "mesh-3x4", Options{Routing: route.MinPath, Objective: MinPower, CapacityMBps: 500}},
	{"vopd/clos/min-delay", apps.VOPD, "clos-m3n3r4", Options{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 500}},
	{"mpeg4/clos/weighted", apps.MPEG4, "clos-m3n3r4", Options{Routing: route.MinPath, Objective: Weighted,
		Weights: Weights{Delay: 1, Area: 1, Power: 1}, CapacityMBps: 500}},
	{"synthetic32/butterfly-3ary4fly/min-delay", func() *graph.CoreGraph { return apps.Synthetic(32, 0.1, 600, 2) },
		"butterfly-3ary4fly", Options{Routing: route.MinPath, Objective: MinDelay}},
	{"netproc/clos/min-delay", apps.NetProc, "clos-m4n4r4", Options{Routing: route.MinPath, Objective: MinDelay}},
}

// BenchmarkMap times one full Map call (greedy seed, incremental swap
// search, final LP floorplan) and reports the sweep's work counters per
// call. Under the swap-eval sub-benchmarks it times the steady-state cost
// of evaluating one candidate swap, unbounded and with the current cost
// as the prune bound; both must stay at 0 allocs/op. Run with:
//
//	go test -run '^$' -bench BenchmarkMap -benchmem ./internal/mapping
func BenchmarkMap(b *testing.B) {
	for _, tc := range benchCases {
		g := tc.app()
		topo := mustTopo(topology.ByName(tc.topo))
		b.Run(tc.name+"/full", func(b *testing.B) {
			sc := NewScratch()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := MapContextWith(context.Background(), g, topo, tc.opts, sc); err != nil {
					b.Fatal(err)
				}
			}
			for _, c := range sc.inc.work.named() {
				b.ReportMetric(float64(c.n)/float64(b.N), c.name+"/op")
			}
		})
		for _, bounded := range []bool{false, true} {
			name := tc.name + "/swap-eval"
			if bounded {
				name += "-bounded"
			}
			b.Run(name, func(b *testing.B) {
				st, assign, occupant, curCost := benchSweepState(b, g, topo, tc.opts)
				bound := math.Inf(1)
				if bounded {
					bound = curCost
				}
				pairA, pairB := benchSwapPair(occupant)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ca, cb := occupant[pairA], occupant[pairB]
					swapTerminals(assign, occupant, pairA, pairB)
					if _, _, err := st.eval(assign, ca, cb, false, bound); err != nil {
						b.Fatal(err)
					}
					swapTerminals(assign, occupant, pairA, pairB) // reject
				}
			})
		}
	}
}

// benchSweepState builds an incremental evaluator positioned after the
// seed evaluation, the state every in-loop candidate evaluation runs from,
// and returns the seed's cost.
func benchSweepState(tb testing.TB, g *graph.CoreGraph, topo topology.Topology, opts Options) (*incState, []int, []int, float64) {
	tb.Helper()
	opts = opts.withDefaults()
	sc := NewScratch()
	cores, comms, err := g.Shared()
	if err != nil {
		tb.Fatal(err)
	}
	ev := &evaluator{g: g, cores: cores, topo: topo, comms: comms, opts: opts, sc: sc}
	st := &sc.inc
	st.bind(ev, sc.rt)
	assign := greedyInitial(g, topo, sc)
	base, _, err := st.eval(assign, -1, -1, true, math.Inf(1))
	if err != nil {
		tb.Fatal(err)
	}
	st.promote(assign)
	ev.norm = base.raw
	occupant := make([]int, topo.NumTerminals())
	for t := range occupant {
		occupant[t] = -1
	}
	for c, t := range assign {
		occupant[t] = c
	}
	return st, assign, occupant, ev.objective(base)
}

// benchSwapPair picks two occupied terminals to toggle.
func benchSwapPair(occupant []int) (int, int) {
	a := -1
	for t, c := range occupant {
		if c == -1 {
			continue
		}
		if a == -1 {
			a = t
			continue
		}
		return a, t
	}
	panic("fewer than two occupied terminals")
}

// TestSwapEvalAllocFree is the hard gate behind the swap-eval benchmark:
// once warmed, evaluating a candidate swap must not allocate at all, for
// every tracked configuration and for dimension-ordered routing, both
// unbounded and with the current cost as the prune bound.
func TestSwapEvalAllocFree(t *testing.T) {
	cases := append(benchCases[:len(benchCases):len(benchCases)],
		benchCase{"vopd/do", apps.VOPD, "mesh-3x4", Options{Routing: route.DimensionOrdered, Objective: MinDelay, CapacityMBps: 500}})
	for _, tc := range cases {
		g := tc.app()
		topo := mustTopo(topology.ByName(tc.topo))
		st, assign, occupant, curCost := benchSweepState(t, g, topo, tc.opts)
		var pairs [][2]int
		for a := 0; a < topo.NumTerminals(); a++ {
			for b := a + 1; b < topo.NumTerminals(); b++ {
				if occupant[a] != -1 || occupant[b] != -1 {
					pairs = append(pairs, [2]int{a, b})
				}
			}
		}
		for _, bound := range []float64{math.Inf(1), curCost} {
			sweep := func() {
				for _, p := range pairs {
					ca, cb := occupant[p[0]], occupant[p[1]]
					swapTerminals(assign, occupant, p[0], p[1])
					if _, _, err := st.eval(assign, ca, cb, false, bound); err != nil {
						t.Fatal(err)
					}
					swapTerminals(assign, occupant, p[0], p[1])
				}
			}
			// AllocsPerRun warms caches (quadrant masks, heap/path
			// capacities) with one sweep over every pair, then measures
			// another. One run per measurement keeps its integer average
			// from rounding a rare allocation, such as one on a single
			// prune exit, down to 0.
			if allocs := testing.AllocsPerRun(1, sweep); allocs != 0 {
				t.Errorf("%s (bound %v): a steady-state sweep over every swap allocates %.0f objects, want 0", tc.name, bound, allocs)
			}
		}
	}
}

// TestFullEvalAllocBudget is the whole-candidate companion of
// TestSwapEvalAllocFree: with a warmed Scratch, one full Map call
// (greedy seed, incremental swap search, final exact evaluation and LP
// floorplan) must stay within 40 allocations per evaluation, for every
// tracked configuration. The fault-sweep steady state has its own gate
// in internal/fault (TestSweepSteadyAllocBudget).
func TestFullEvalAllocBudget(t *testing.T) {
	ctx := context.Background()
	for _, tc := range benchCases {
		g := tc.app()
		topo := mustTopo(topology.ByName(tc.topo))
		sc := NewScratch()
		run := func() {
			if _, err := MapContextWith(ctx, g, topo, tc.opts, sc); err != nil {
				t.Fatal(err)
			}
		}
		// First call warms the scratch: routing buffers, swap heaps,
		// quadrant masks and the LP workspace all reach steady size.
		run()
		if allocs := testing.AllocsPerRun(20, run); allocs > 40 {
			t.Errorf("%s: scratch-reused full evaluation allocates %.1f objects/op, want <= 40", tc.name, allocs)
		}
	}
}

// TestSplitRouteAllocFree gates whole-commodity-set re-routing on a warm
// router: once its quadrant and min-hop DAG caches are filled, routing
// must not allocate at all. It covers the SM rung as the mapper drives it
// and the oblivious DO fallback (butterfly, star, octagon), whose
// unit-weight search reuses one zero-load vector.
func TestSplitRouteAllocFree(t *testing.T) {
	for _, tc := range []struct {
		fn   route.Function
		app  func() *graph.CoreGraph
		topo string
	}{
		{route.SplitMin, apps.VOPD, "mesh-3x4"},
		{route.DimensionOrdered, apps.VOPD, "butterfly-4ary2fly"},
		{route.DimensionOrdered, apps.DSPFilter, "star-8"},
		{route.DimensionOrdered, apps.DSPFilter, "octagon"},
	} {
		g := tc.app()
		topo := mustTopo(topology.ByName(tc.topo))
		assign := greedyInitial(g, topo, NewScratch())
		comms := g.Commodities()
		opts := route.Options{Function: tc.fn, CapacityMBps: 500, LoadsOnly: true}
		rt := route.NewRouter()
		var res route.Result
		routeOnce := func() {
			if err := rt.RouteInto(&res, topo, assign, comms, opts); err != nil {
				t.Fatal(err)
			}
		}
		routeOnce() // warm: fills the quadrant and min-hop DAG caches
		if allocs := testing.AllocsPerRun(200, routeOnce); allocs != 0 {
			t.Errorf("%v %s on %s allocates %.1f objects/op on a warm router, want 0",
				tc.fn, g.Name(), tc.topo, allocs)
		}
	}
}

// TestMinHopDAGFillAllocs gates the SM rung's per-pair setup: on a warm
// Router (BFS buffers grown, quadrant masks cached), filling one new
// terminal pair's min-hop DAG allocates exactly one object — the cached
// mask itself.
func TestMinHopDAGFillAllocs(t *testing.T) {
	topo := mustTopo(topology.NewMesh(3, 4))
	rt := route.NewRouter()
	rt.Bind(topo)
	numT := topo.NumTerminals()
	var pairs [][2]int
	for s := 0; s < numT; s++ {
		for d := 0; d < numT; d++ {
			rt.Quadrant(s, d)
			pairs = append(pairs, [2]int{s, d})
		}
	}
	rt.MinHopDAG(pairs[0][0], pairs[0][1]) // warm: grows the BFS buffers
	next := 1
	fill := func() {
		p := pairs[next]
		next++
		rt.MinHopDAG(p[0], p[1])
	}
	// AllocsPerRun calls fill runs+1 times; each call is a first-seen pair.
	if allocs := testing.AllocsPerRun(len(pairs)-2, fill); allocs != 1 {
		t.Errorf("filling one min-hop DAG allocates %.2f objects, want exactly 1 (the mask)", allocs)
	}
}

// BenchmarkRoute is covered in internal/route; this sibling measures the
// route stack as the mapper drives it — scratch router, loads only —
// against the allocating public entry point, on the mapped seed
// assignment.
func BenchmarkRouteViaMapper(b *testing.B) {
	g := apps.VOPD()
	topo := mustTopo(topology.NewMesh(3, 4))
	assign := greedyInitial(g, topo, NewScratch())
	comms := g.Commodities()
	opts := route.Options{Function: route.MinPath, CapacityMBps: 500, LoadsOnly: true}
	rt := route.NewRouter()
	var res route.Result
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := rt.RouteInto(&res, topo, assign, comms, opts); err != nil {
			b.Fatal(err)
		}
	}
}
