package mapping

import (
	"context"
	"math"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

// FuzzSweepMatchesReference fuzzes the incremental swap sweep against the
// reference sweep, which re-routes and re-costs every candidate from
// scratch. A random application of 3–12 cores on one of six topology
// families (two sizes each, so some terminals stay free), under any
// routing function and objective, with arbitrary finite weights and
// capacities, must map to the bitwise-identical result (compareResults),
// and the sweep's candidate counters must partition the reference's
// candidates. Every certified shortcut of the incremental sweep sits
// behind this check. The seed corpus is under testdata/fuzz; run it
// longer with
//
//	go test -run '^$' -fuzz FuzzSweepMatchesReference -fuzztime 30s ./internal/mapping
func FuzzSweepMatchesReference(f *testing.F) {
	ctx := context.Background()
	// Shared: reuse across inputs must not leak state. Each input's
	// counters are the differences of the running sums.
	sc, refSc := NewScratch(), NewScratch()
	f.Fuzz(func(t *testing.T, seed int64, cores, density, family, fn, obj, passes uint8, wDelay, wArea, wPower, capacity float64) {
		for _, v := range []float64{wDelay, wArea, wPower, capacity} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite weight or capacity")
			}
		}
		n := 3 + int(cores%10)
		g := apps.Synthetic(n, 0.1+float64(density%9)/10, 600, seed)
		topo, err := fuzzTopology(family, n)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{
			Routing:   route.Function(fn % 4),
			Objective: Objective(obj % 4),
			// math.Mod keeps each value finite, its sign, and within a
			// range where the weighted sum cannot overflow.
			Weights:      Weights{Delay: math.Mod(wDelay, 100), Area: math.Mod(wArea, 100), Power: math.Mod(wPower, 100)},
			CapacityMBps: math.Mod(capacity, 2000),
			SwapPasses:   int(passes % 4),
		}
		before, refBefore := sc.inc.work, refSc.inc.work.reference
		fast, fastErr := MapContextWith(ctx, g, topo, opts, sc)
		ref, refErr := mapContext(ctx, g, topo, opts, refSc, true)
		if (fastErr != nil) != (refErr != nil) {
			t.Fatalf("errors differ: incremental %v, reference %v", fastErr, refErr)
		}
		if fastErr != nil {
			return
		}
		compareResults(t, g.Name(), topo.Name(), opts, fast, ref)
		w := sc.inc.work
		w.evaluated -= before.evaluated
		w.prunedEarly -= before.prunedEarly
		w.prunedMid -= before.prunedMid
		w.converged -= before.converged
		w.routerEquiv -= before.routerEquiv
		w.sameDesign -= before.sameDesign
		w.tieEarly -= before.tieEarly
		w.tieMid -= before.tieMid
		checkPartition(t, g.Name()+" on "+topo.Name(), w, refSc.inc.work.reference-refBefore)
	})
}

// fuzzTopology picks one of six families by family%6, at the smaller or
// larger of two sizes by family/6%2, both with at least n terminals.
func fuzzTopology(family uint8, n int) (topology.Topology, error) {
	big := family/6%2 == 1
	switch family % 6 {
	case 0:
		if big {
			return topology.NewMesh(4, 4)
		}
		return topology.NewMesh(3, 4)
	case 1:
		if big {
			return topology.NewTorus(4, 4)
		}
		return topology.NewTorus(3, 4)
	case 2:
		if !big && n <= 8 {
			return topology.NewHypercube(3)
		}
		return topology.NewHypercube(4)
	case 3:
		if big {
			return topology.NewButterfly(3, 3)
		}
		return topology.NewButterfly(2, 4)
	case 4:
		if big {
			return topology.NewClos(3, 4, 4)
		}
		return topology.NewClos(2, 3, 4)
	default:
		if big {
			return topology.NewStar(n + 4)
		}
		return topology.NewStar(n)
	}
}
