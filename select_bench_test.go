package sunmap_test

import (
	"context"
	"testing"

	"sunmap"
)

// selectRequest is the Fig. 6 / Fig. 7b library sweep for one app.
func selectRequest(app string) sunmap.SelectRequest {
	return sunmap.SelectRequest{
		App:      sunmap.AppSpec{Name: app},
		Mapping:  sunmap.MapSpec{Routing: "MP", Objective: "delay", CapacityMBps: 500},
		Escalate: true,
	}
}

// coldSelect runs one selection of app on a fresh session, so nothing
// replays from an earlier iteration's cache.
func coldSelect(b *testing.B, app string, opts ...sunmap.SessionOption) *sunmap.SelectReport {
	b.Helper()
	rep, err := newSession(b, opts...).Select(context.Background(), selectRequest(app))
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// BenchmarkSelect times the full Phase-1 library sweep sequentially and on
// the concurrent engine, whose Parallelism defaults to GOMAXPROCS. CI's
// select speedup check compares sequential at one proc with parallel at
// two:
//
//	go test -bench 'BenchmarkSelect$/mpeg4/sequential$' -benchtime 5x -cpu 1
//	go test -bench 'BenchmarkSelect$/mpeg4/parallel$' -benchtime 5x -cpu 2
func BenchmarkSelect(b *testing.B) {
	for _, app := range []string{"vopd", "mpeg4"} {
		b.Run(app+"/sequential", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				coldSelect(b, app, sunmap.WithParallelism(1))
			}
		})
		b.Run(app+"/parallel", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				coldSelect(b, app)
			}
		})
	}
}

// BenchmarkSelectOverhead prices the observability layer on the hottest
// end-to-end path: the cold mpeg4 escalated sweep with no trace attached
// versus the same sweep with a Trace recording every span, cache lookup
// and limiter outcome. The CI bench gate holds traced within 5% of
// untraced — the "near-free when enabled" contract.
//
//	go test -bench BenchmarkSelectOverhead -benchtime 5x
func BenchmarkSelectOverhead(b *testing.B) {
	run := func(b *testing.B, tr *sunmap.Trace) {
		for i := 0; i < b.N; i++ {
			opts := []sunmap.SessionOption{sunmap.WithParallelism(1)}
			if tr != nil {
				opts = append(opts, sunmap.WithTrace(tr))
			}
			coldSelect(b, "mpeg4", opts...)
		}
	}
	b.Run("untraced", func(b *testing.B) { run(b, nil) })
	b.Run("traced", func(b *testing.B) { run(b, sunmap.NewTrace()) })
}

// BenchmarkSelectWithSynth times the head-to-head selection — the full
// standard library alone versus the library plus the application-specific
// synthesized candidates — on the MPEG-4 and DSP apps. The delta is the
// cost of topology synthesis plus the extra Phase-1 mappings; the payoff
// is that on hub-shaped apps like MPEG-4 only synthesized candidates stay
// feasible once links tighten below the heaviest flow (see
// examples/custom_topology). Compare with:
//
//	go test -bench BenchmarkSelectWithSynth -benchtime 3x
func BenchmarkSelectWithSynth(b *testing.B) {
	for _, app := range []string{"mpeg4", "dsp"} {
		b.Run(app+"/library", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				coldSelect(b, app)
			}
		})
		b.Run(app+"/library+synth", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sel := coldSelect(b, app, sunmap.WithSynth(sunmap.SynthOptions{}))
				if i == 0 {
					b.ReportMetric(float64(sel.Synthesized), "synth-candidates")
				}
			}
		})
	}
}

// BenchmarkCachedExploration times the designer loop the evaluation cache
// accelerates: an escalated selection followed by a routing sweep and a
// Pareto exploration on the winning mesh, all on one session. The
// second and later iterations replay almost entirely from the session
// cache.
func BenchmarkCachedExploration(b *testing.B) {
	run := func(b *testing.B, sess *sunmap.Session) {
		ctx := context.Background()
		if _, err := sess.Select(ctx, selectRequest("mpeg4")); err != nil {
			b.Fatal(err)
		}
		app := sunmap.AppSpec{Name: "mpeg4"}
		mapping := selectRequest("mpeg4").Mapping
		if _, err := sess.RoutingSweep(ctx, sunmap.SweepRequest{App: app, Topology: "mesh-3x4", Mapping: mapping}); err != nil {
			b.Fatal(err)
		}
		if _, err := sess.ParetoExplore(ctx, sunmap.ParetoRequest{App: app, Topology: "mesh-3x4", Mapping: mapping, Steps: 5}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run(b, newSession(b)) // fresh cache every iteration
		}
	})
	b.Run("warm", func(b *testing.B) {
		sess := newSession(b)
		run(b, sess) // populate once, outside the timer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, sess)
		}
		st := sess.CacheStats()
		b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses)*100, "hit%")
	})
}
