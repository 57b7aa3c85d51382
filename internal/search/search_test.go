package search

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sunmap/internal/apps"
	"sunmap/internal/mapping"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

func mpeg4Opts() mapping.Options {
	return mapping.Options{
		Routing:      route.MinPath,
		Objective:    mapping.MinDelay,
		CapacityMBps: 1000,
	}
}

// TestSearchBeatsLibraryOnMPEG4 is the acceptance criterion: with a
// 100k-evaluation budget the search must return a feasible, deadlock-free
// topology for mpeg4 whose objective cost matches or beats the best
// library candidate at the same link capacity. The match-or-beat half
// holds by construction (every chain full-evaluates its synthesized seed
// and keeps the better), so a regression here means the seeds stopped
// converting or the annealer broke feasibility.
func TestSearchBeatsLibraryOnMPEG4(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-evaluation budget")
	}
	app, err := apps.ByName("mpeg4")
	if err != nil {
		t.Fatal(err)
	}
	mopts := mpeg4Opts()
	res, err := Run(context.Background(), app, Options{
		Budget:  100000,
		Seed:    1,
		Mapping: mopts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 100000 {
		t.Errorf("charged %d evaluations, want exactly the budget 100000", res.Evaluations)
	}
	best := res.Best
	if best.Evaluated == nil || !best.Evaluated.Feasible() {
		t.Fatalf("winner not feasible: %+v", best)
	}
	if err := CheckInvariants(best.Evaluated.Topology, app, 4, true); err != nil {
		t.Fatalf("winner violates invariants: %v", err)
	}

	lib, err := topology.Library(app.NumCores(), topology.LibraryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bestLib := ""
	bestLibCost := 0.0
	for _, topo := range lib {
		r, err := mapping.MapContextWith(context.Background(), app, topo, mopts, nil)
		if err != nil || !r.Feasible() {
			continue
		}
		if bestLib == "" || r.Cost < bestLibCost {
			bestLib, bestLibCost = topo.Name(), r.Cost
		}
	}
	if bestLib == "" {
		t.Fatal("no feasible library topology at 1000 MB/s — test premise broken")
	}
	if best.Evaluated.Cost > bestLibCost+1e-9 {
		t.Errorf("search cost %.6f worse than best library %s at %.6f",
			best.Evaluated.Cost, bestLib, bestLibCost)
	}
	t.Logf("search %.6f (routers %d, links %d) vs library %s %.6f",
		best.Evaluated.Cost, best.Routers, len(best.BiLinks), bestLib, bestLibCost)
}

// TestSearchDeterministicAcrossParallelism pins the determinism contract
// at the Result level: the same (seed, budget, restarts) must produce a
// deeply identical result at parallelism 1, 4 and GOMAXPROCS.
func TestSearchDeterministicAcrossParallelism(t *testing.T) {
	app, err := apps.ByName("mpeg4")
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Budget: 4000, Seed: 42, Mapping: mpeg4Opts()}
	var ref *Result
	for _, p := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		opts.Parallelism = p
		res, err := Run(context.Background(), app, opts)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		res.Best.Evaluated = nil // pointer-laden; structure+fitness is the contract
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("parallelism %d diverged:\nwant %+v\ngot  %+v", p, ref, res)
		}
	}
}

// TestSearchCancellationMidAnneal verifies a canceled search returns
// cleanly — promptly, with the context's error and the partial best found
// so far — rather than running out its (here effectively unbounded)
// budget.
func TestSearchCancellationMidAnneal(t *testing.T) {
	app, err := apps.ByName("mpeg4")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Run(ctx, app, Options{Budget: 1 << 30, Seed: 3, Mapping: mpeg4Opts()})
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	if res == nil {
		t.Fatal("canceled run returned no partial result")
	}
	if res.Evaluations == 0 || res.Best.Routers == 0 {
		t.Errorf("partial result carries no best-so-far: %+v", res)
	}
	if res.Evaluations >= 1<<30 {
		t.Error("run consumed the whole budget despite cancellation")
	}
}

// TestSearchInnerLoopAllocBudget gates the steady-state allocation count
// of one mutate→evaluate→accept iteration: the hot loop must stay within
// a small fixed budget (route scratch growth amortizes to zero; the only
// tolerated allocations are rare slice growths inside the router).
func TestSearchInnerLoopAllocBudget(t *testing.T) {
	app, err := apps.ByName("mpeg4")
	if err != nil {
		t.Fatal(err)
	}
	terms := app.NumCores()
	o, b, err := Options{Seed: 7, Mapping: mpeg4Opts()}.withDefaults(terms)
	if err != nil {
		t.Fatal(err)
	}
	ch := &chain{
		ev:   newEvaluator(app.Commodities(), terms, b, o.Mapping),
		cur:  newCand(b.maxR, terms),
		next: newCand(b.maxR, terms),
		best: newCand(b.maxR, terms),
	}
	ch.cur.copyFrom(pathInit(terms, b))
	fit, ok := ch.ev.eval(ch.cur)
	if !ok {
		t.Fatal("path seed rejected")
	}
	ch.curFit, ch.bestFit = fit, fit
	ch.best.copyFrom(ch.cur)
	ch.temp, ch.cool = 0.25*fit, 0.9999
	ch.rng = rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ { // warm every growth path
		ch.step()
	}
	avg := testing.AllocsPerRun(500, func() { ch.step() })
	if avg > 8 {
		t.Errorf("inner loop allocates %.1f objects/iteration, budget 8", avg)
	}
}

// BenchmarkSearch reports whole-search throughput in evaluations/second.
func BenchmarkSearch(bm *testing.B) {
	app, err := apps.ByName("mpeg4")
	if err != nil {
		bm.Fatal(err)
	}
	opts := Options{Budget: 20000, Seed: 1, Mapping: mpeg4Opts()}
	bm.ReportAllocs()
	bm.ResetTimer()
	evals := 0
	for i := 0; i < bm.N; i++ {
		res, err := Run(context.Background(), app, opts)
		if err != nil {
			bm.Fatal(err)
		}
		evals += res.Evaluations
	}
	bm.ReportMetric(float64(evals)/bm.Elapsed().Seconds(), "evals/s")
}

// BenchmarkSearchEval reports single candidate-evaluation latency.
// routed is the full path — structure check, full reroute, CDG
// acyclicity, fitness — with the memo off; hit is the same candidate
// answered by the evaluation memo (structure check, key, lookup).
func BenchmarkSearchEval(bm *testing.B) {
	app, err := apps.ByName("mpeg4")
	if err != nil {
		bm.Fatal(err)
	}
	terms := app.NumCores()
	o, b, err := Options{Mapping: mpeg4Opts()}.withDefaults(terms)
	if err != nil {
		bm.Fatal(err)
	}
	c := ringInit(terms, b)
	for _, memo := range []bool{false, true} {
		name := "routed"
		if memo {
			name = "hit"
		}
		bm.Run(name, func(bm *testing.B) {
			ev := newEvaluator(app.Commodities(), terms, b, o.Mapping)
			if !memo {
				ev.memo = evalMemo{}
			}
			if _, ok := ev.eval(c); !ok {
				bm.Fatal("ring seed rejected")
			}
			bm.ReportAllocs()
			bm.ResetTimer()
			for i := 0; i < bm.N; i++ {
				if _, ok := ev.eval(c); !ok {
					bm.Fatal("eval rejected")
				}
			}
		})
	}
}
