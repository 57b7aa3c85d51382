package core

import (
	"context"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/engine"
	"sunmap/internal/mapping"
	"sunmap/internal/obs"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

// sameSelection asserts two selections agree on the winner, the candidate
// order and every candidate's metrics — the determinism contract of the
// parallel engine.
func sameSelection(t *testing.T, got, want *Selection) {
	t.Helper()
	if (got.Best == nil) != (want.Best == nil) {
		t.Fatalf("best presence differs: got %v, want %v", got.Best != nil, want.Best != nil)
	}
	if got.Best != nil && got.Best.Topology.Name() != want.Best.Topology.Name() {
		t.Errorf("best = %s, want %s", got.Best.Topology.Name(), want.Best.Topology.Name())
	}
	if got.RoutingUsed != want.RoutingUsed {
		t.Errorf("routing used = %v, want %v", got.RoutingUsed, want.RoutingUsed)
	}
	if len(got.Candidates) != len(want.Candidates) {
		t.Fatalf("candidate count %d, want %d", len(got.Candidates), len(want.Candidates))
	}
	for i := range got.Candidates {
		g, w := got.Candidates[i], want.Candidates[i]
		if candName(g) != candName(w) {
			t.Fatalf("candidate %d = %s, want %s (order must be library order)", i, candName(g), candName(w))
		}
		if g.Result == nil {
			continue
		}
		if g.Result.Cost != w.Result.Cost {
			t.Errorf("candidate %s cost = %g, want %g", candName(g), g.Result.Cost, w.Result.Cost)
		}
		if g.Result.PowerMW != w.Result.PowerMW || g.Result.DesignAreaMM2 != w.Result.DesignAreaMM2 ||
			g.Result.AvgHops != w.Result.AvgHops || g.Result.Route.MaxLinkLoad != w.Result.Route.MaxLinkLoad ||
			g.Result.Feasible() != w.Result.Feasible() {
			t.Errorf("candidate %s metrics differ between parallel and sequential", candName(g))
		}
	}
}

func TestSelectParallelMatchesSequential(t *testing.T) {
	cfg := vopdConfig(mapping.MinDelay)
	cfg.Parallelism = 1
	seq, err := Select(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 4} {
		cfg := vopdConfig(mapping.MinDelay)
		cfg.Parallelism = par
		got, err := Select(cfg)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		sameSelection(t, got, seq)
	}
}

func TestSelectContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SelectContext(ctx, vopdConfig(mapping.MinDelay)); err != context.Canceled {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}

	// Cancel mid-sweep from the progress stream: the pool must abandon
	// the remaining topologies and surface the cancellation.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	cfg := vopdConfig(mapping.MinDelay)
	cfg.Parallelism = 2
	cfg.Progress = func(engine.Event) { cancel2() }
	if _, err := SelectContext(ctx2, cfg); err != context.Canceled {
		t.Fatalf("mid-sweep: err = %v, want context.Canceled", err)
	}
}

func TestEscalationWalksFullLadder(t *testing.T) {
	// A capacity no routing function can satisfy forces the DO -> MP ->
	// SM -> SA ladder to run to its end: the selection comes back with
	// RoutingUsed == SplitAll, nothing feasible, and one full library
	// sweep per rung.
	lib, err := topology.Library(apps.VOPD().NumCores(), topology.LibraryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	evals := 0
	cfg := Config{
		App: apps.VOPD(),
		Mapping: mapping.Options{
			Routing:      route.DimensionOrdered,
			Objective:    mapping.MinDelay,
			CapacityMBps: 1, // unsatisfiable
		},
		EscalateRouting: true,
		Progress:        func(engine.Event) { evals++ },
	}
	sel, err := Select(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best != nil {
		t.Fatalf("best = %s under a 1 MB/s capacity, want nothing feasible", sel.Best.Topology.Name())
	}
	if sel.RoutingUsed != route.SplitAll {
		t.Errorf("routing used = %v, want SA (the ladder's last rung)", sel.RoutingUsed)
	}
	if want := 4 * len(lib); evals != want {
		t.Errorf("saw %d evaluations, want %d (4 routing functions x %d topologies)", evals, want, len(lib))
	}
	if n := countCandidates(sel, feasible); n != 0 {
		t.Errorf("feasible count = %d, want 0", n)
	}
}

func TestEscalationStopsAtFirstFeasibleRung(t *testing.T) {
	// VOPD is feasible under min-path at 500 MB/s, so escalation must
	// stop at the starting rung without touching SM or SA.
	evals := 0
	cfg := vopdConfig(mapping.MinDelay)
	cfg.EscalateRouting = true
	cfg.Progress = func(engine.Event) { evals++ }
	sel, err := Select(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best == nil {
		t.Fatal("nothing feasible for VOPD at 500 MB/s")
	}
	if sel.RoutingUsed != route.MinPath {
		t.Errorf("routing used = %v, want MP (no escalation needed)", sel.RoutingUsed)
	}
	if evals != len(sel.Candidates) {
		t.Errorf("saw %d evaluations, want %d (a single sweep)", evals, len(sel.Candidates))
	}
}

// TestEscalationEvaluatesOnlyDecidingRungs pins the work an escalated
// selection does at every parallelism: exactly one library sweep per rung
// the ladder actually climbs (VOPD stops at MP, MPEG4 at SM), and no
// blocked acquisitions — a lone Select's workers never outnumber its own
// limiter's slots.
func TestEscalationEvaluatesOnlyDecidingRungs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   func(par int) Config
		want  route.Function
		rungs int
	}{
		{"vopd", func(par int) Config {
			c := vopdConfig(mapping.MinDelay)
			c.EscalateRouting, c.Parallelism = true, par
			return c
		}, route.MinPath, 1},
		{"mpeg4", mpeg4EscalationConfig, route.SplitMin, 2},
	} {
		for _, par := range []int{1, 2} {
			rec := obs.NewRecorder()
			cfg := tc.cfg(par)
			cfg.Cache = engine.NewCache()
			sel, err := SelectContext(obs.WithRecorder(context.Background(), rec), cfg)
			if err != nil {
				t.Fatalf("%s parallelism %d: %v", tc.name, par, err)
			}
			if sel.RoutingUsed != tc.want {
				t.Errorf("%s parallelism %d: routing used = %v, want %v", tc.name, par, sel.RoutingUsed, tc.want)
			}
			if got, want := cfg.Cache.Stats().Entries, tc.rungs*len(sel.Candidates); got != want {
				t.Errorf("%s parallelism %d: %d cache entries, want %d (%d rung(s) x %d candidates)",
					tc.name, par, got, want, tc.rungs, len(sel.Candidates))
			}
			if b := rec.Snapshot().Blocked; b != 0 {
				t.Errorf("%s parallelism %d: %d blocked limiter acquisitions, want 0", tc.name, par, b)
			}
		}
	}
}
