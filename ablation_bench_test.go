package sunmap_test

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// quadrant-graph restriction (paper Section 4.1 claims "large
// computational time savings"), the pairwise-swap budget and the traffic-
// splitting granularity. Run with
//
//	go test -bench=Ablation -benchmem
//
// Quality deltas (hops, max load) are reported as benchmark metrics so
// speed and quality can be read off one run.

import (
	"context"
	"fmt"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/mapping"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

// benchTopo unwraps a topology constructor result; a failure here is a
// programming error in the benchmark itself.
func benchTopo(t topology.Topology, err error) topology.Topology {
	if err != nil {
		panic(err)
	}
	return t
}

// identity assigns core i to terminal i.
func identity(n int) []int {
	a := make([]int, n)
	for i := range a {
		a[i] = i
	}
	return a
}

// BenchmarkAblationQuadrantOn routes a large synthetic workload on a big
// mesh with the quadrant restriction (the paper's design).
func BenchmarkAblationQuadrantOn(b *testing.B) {
	benchQuadrant(b, false)
}

// BenchmarkAblationQuadrantOff repeats the routing over the full router
// graph; the time ratio to QuadrantOn quantifies Section 4.1's claim.
func BenchmarkAblationQuadrantOff(b *testing.B) {
	benchQuadrant(b, true)
}

func benchQuadrant(b *testing.B, disable bool) {
	topo := benchTopo(topology.NewMesh(8, 8))
	app := apps.Synthetic(64, 0.1, 400, 99)
	comms := app.Commodities()
	assign := identity(64)
	b.ResetTimer()
	var hops float64
	for i := 0; i < b.N; i++ {
		res, err := route.Route(topo, assign, comms, route.Options{
			Function:        route.MinPath,
			DisableQuadrant: disable,
		})
		if err != nil {
			b.Fatal(err)
		}
		hops = res.AvgHops()
	}
	b.ReportMetric(hops, "avg-hops")
}

// BenchmarkAblationSwapPasses1 runs the paper's single improvement sweep.
func BenchmarkAblationSwapPasses1(b *testing.B) { benchSwap(b, 1) }

// BenchmarkAblationSwapPassesConverged iterates sweeps to convergence
// (this repo's default); compare avg-hops to Passes1 for the quality gain.
func BenchmarkAblationSwapPassesConverged(b *testing.B) { benchSwap(b, 16) }

func benchSwap(b *testing.B, passes int) {
	topo := benchTopo(topology.NewMesh(3, 4))
	app := apps.VOPD()
	b.ResetTimer()
	var hops float64
	for i := 0; i < b.N; i++ {
		res, err := mapping.MapContextWith(context.Background(), app, topo, mapping.Options{
			Routing:      route.MinPath,
			Objective:    mapping.MinDelay,
			CapacityMBps: apps.DefaultCapacityMBps,
			SwapPasses:   passes,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		hops = res.AvgHops
	}
	b.ReportMetric(hops, "avg-hops")
}

// BenchmarkAblationSplitChunks8/32/128 vary the water-filling granularity
// of split routing on MPEG4; max-load shows the feasibility margin bought
// per unit of routing time.
func BenchmarkAblationSplitChunks8(b *testing.B)   { benchChunks(b, 8) }
func BenchmarkAblationSplitChunks32(b *testing.B)  { benchChunks(b, 32) }
func BenchmarkAblationSplitChunks128(b *testing.B) { benchChunks(b, 128) }

func benchChunks(b *testing.B, chunks int) {
	topo := benchTopo(topology.NewMesh(3, 4))
	app := apps.MPEG4()
	b.ResetTimer()
	var maxLoad float64
	for i := 0; i < b.N; i++ {
		res, err := mapping.MapContextWith(context.Background(), app, topo, mapping.Options{
			Routing:      route.SplitMin,
			Objective:    mapping.MinDelay,
			CapacityMBps: apps.DefaultCapacityMBps,
			Chunks:       chunks,
		}, nil)
		if err != nil {
			b.Fatal(err)
		}
		maxLoad = res.Route.MaxLinkLoad
	}
	b.ReportMetric(maxLoad, "max-load-MBps")
}

// BenchmarkAblationLibraryBreadth sweeps library size: paper five-family
// library vs extras (octagon + star), showing the cost of a wider Phase 1.
func BenchmarkAblationLibraryBreadth(b *testing.B) {
	app := apps.DSPFilter()
	for _, extras := range []bool{false, true} {
		name := "paper-library"
		if extras {
			name = "with-extras"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lib, err := topology.Library(app.NumCores(), topology.LibraryOptions{IncludeExtras: extras})
				if err != nil {
					b.Fatal(err)
				}
				for _, t := range lib {
					if _, err := mapping.MapContextWith(context.Background(), app, t, mapping.Options{
						Routing:      route.MinPath,
						CapacityMBps: apps.DSPCapacityMBps,
					}, nil); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkMappingScaling maps growing synthetic apps onto matching
// meshes, charting the Fig. 5 heuristic's scaling.
func BenchmarkMappingScaling(b *testing.B) {
	for _, n := range []int{8, 16, 25} {
		rows := 2
		for rows*rows < n {
			rows++
		}
		app := apps.Synthetic(n, 0.15, 400, int64(n))
		topo := benchTopo(topology.NewMesh(rows, (n+rows-1)/rows))
		b.Run(fmt.Sprintf("n%d-%s", n, topo.Name()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mapping.MapContextWith(context.Background(), app, topo, mapping.Options{
					Routing:      route.MinPath,
					CapacityMBps: 0,
				}, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
