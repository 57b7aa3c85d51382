// Package sunmap_test hosts the benchmark harness: one testing.B benchmark
// per table/figure of the paper's evaluation (Section 6). Run with
//
//	go test -bench=. -benchmem
//
// Each benchmark regenerates its artifact end to end (mapping, models,
// floorplanning, simulation) and logs the reproduced table once, so the
// bench run doubles as the experiment log (see EXPERIMENTS.md).
package sunmap_test

import (
	"context"
	"sync"
	"testing"

	"sunmap"
	"sunmap/internal/exp"
)

// bgctx saves threading context.Background() through every benchmark
// body; benchmarks run to completion, so cancellation is moot.
var bgctx = context.Background()

// coldSession returns a fresh Session, so each iteration regenerates its
// figure from an empty evaluation cache.
func coldSession(b *testing.B) *sunmap.Session {
	s, err := sunmap.NewSession()
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// logOnce prints each experiment's table a single time per bench run.
var logOnce sync.Map

func logTable(b *testing.B, key, table string) {
	if _, done := logOnce.LoadOrStore(key, true); !done {
		b.Log("\n" + table)
	}
}

// BenchmarkFig3dVOPDMeshTorus regenerates the motivating mesh-vs-torus
// comparison of Fig. 3(d).
func BenchmarkFig3dVOPDMeshTorus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig3d(bgctx, coldSession(b))
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "fig3d", r.String())
	}
}

// BenchmarkFig6VOPDTopologies regenerates the VOPD per-topology
// characteristics of Fig. 6(a-d): hops, resources, area and power.
func BenchmarkFig6VOPDTopologies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig6(bgctx, coldSession(b))
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "fig6", r.String())
	}
}

// BenchmarkFig7bMPEG4 regenerates the MPEG4 mapping table of Fig. 7(b),
// including the routing escalation to split traffic and the butterfly's
// infeasibility.
func BenchmarkFig7bMPEG4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig7b(bgctx, coldSession(b))
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "fig7b", r.String())
	}
}

// BenchmarkFig8bNetProcLatency regenerates the latency-vs-injection curves
// of Fig. 8(b) with the cycle-accurate simulator (shortened rate axis per
// iteration; run sunexp for the full sweep).
func BenchmarkFig8bNetProcLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig8b(bgctx, coldSession(b), []float64{0.1, 0.3, 0.5})
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "fig8b", r.String())
	}
}

// BenchmarkFig8cdNetProcAreaPower regenerates the NetProc area/power bars
// of Fig. 8(c, d).
func BenchmarkFig8cdNetProcAreaPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig8cd(bgctx, coldSession(b))
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "fig8cd", r.String())
	}
}

// BenchmarkFig9aRoutingFunctions regenerates the minimum-bandwidth bars of
// Fig. 9(a) for MPEG4 on a mesh under DO/MP/SM/SA.
func BenchmarkFig9aRoutingFunctions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig9a(bgctx, coldSession(b))
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "fig9a", r.String())
	}
}

// BenchmarkFig9bParetoExploration regenerates the area-power Pareto
// exploration of Fig. 9(b).
func BenchmarkFig9bParetoExploration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig9b(bgctx, coldSession(b))
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "fig9b", r.String())
	}
}

// BenchmarkFig10DSPFlow regenerates the DSP filter case study of
// Fig. 10: selection, floorplan and trace-driven simulated latency.
func BenchmarkFig10DSPFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig10(bgctx, coldSession(b))
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "fig10", r.String())
	}
}

// BenchmarkFig11SystemCGeneration regenerates the SystemC artifact whose
// simulation Fig. 11 snapshots.
func BenchmarkFig11SystemCGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig11(bgctx, coldSession(b))
		if err != nil {
			b.Fatal(err)
		}
		logTable(b, "fig11", r.String())
	}
}

// BenchmarkFullFlowAllApps times the complete SUNMAP pass (selection over
// the whole library) for every benchmark application — the paper's "few
// minutes on a 1 GHz SUN workstation" claim (Section 6.4).
func BenchmarkFullFlowAllApps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, f := range []func() error{
			func() error { _, err := exp.Fig6(bgctx, coldSession(b)); return err },   // VOPD
			func() error { _, err := exp.Fig7b(bgctx, coldSession(b)); return err },  // MPEG4
			func() error { _, err := exp.Fig8cd(bgctx, coldSession(b)); return err }, // NetProc
			func() error { _, err := exp.Fig10(bgctx, coldSession(b)); return err },  // DSP
		} {
			if err := f(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
