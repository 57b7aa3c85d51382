package fault

import (
	"context"
	"testing"

	"sunmap/internal/route"
)

// trackedModels are the fault models BenchmarkFaultSweep times: single
// link failures, exhaustive double failures and a sampled triple.
var trackedModels = []struct {
	name  string
	model Model
}{
	{"k1-links", Model{K: 1, Elements: Links}},
	{"k2-both", Model{K: 2, Elements: Both}},
	{"k3-mc512", Model{K: 3, Elements: Both, Samples: 512}},
}

// BenchmarkFaultSweep times survivability sweeps (VOPD on a 3x4 mesh) at
// the tracked fault models. The "steady" variant is the per-candidate
// steady state reliability-aware selection pays — a warm Sweeper over a
// prebuilt scenario set, the configuration the allocs/op acceptance gate
// reads. The "build+sweep" variant adds scenario enumeration and cold
// evaluator construction on every iteration. Run with:
//
//	go test -bench BenchmarkFaultSweep -benchmem ./internal/fault
func BenchmarkFaultSweep(b *testing.B) {
	topo, assign, comms := vopdMesh()
	opts := Degraded(route.Options{Function: route.MinPath, CapacityMBps: 500})
	ctx := context.Background()
	for _, tc := range trackedModels {
		scens, exhaustive, err := Scenarios(topo, tc.model)
		if err != nil {
			b.Fatal(err)
		}
		sw := NewSweeper()
		b.Run(tc.name+"/steady", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sw.SweepContext(ctx, topo, assign, comms, opts, scens, exhaustive, 1, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/build+sweep", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scens, exhaustive, err := Scenarios(topo, tc.model)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Sweep(topo, assign, comms, opts, scens, exhaustive); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
