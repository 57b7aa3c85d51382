package core

// Tests for the parallelism plumbing around routing escalation: parallel
// library sweeps on every rung, fault-sweep fan-out inside one candidate,
// and the shared-limiter accounting — all of which must leave results
// byte-identical to the sequential path.

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/engine"
	"sunmap/internal/mapping"
	"sunmap/internal/route"
)

func mpeg4EscalationConfig(par int) Config {
	return Config{
		App: apps.MPEG4(),
		Mapping: mapping.Options{
			Routing:      route.MinPath,
			Objective:    mapping.MinDelay,
			CapacityMBps: apps.DefaultCapacityMBps,
		},
		EscalateRouting: true,
		Parallelism:     par,
	}
}

// sameSurvivability asserts the per-candidate survivabilities of two
// selections are identical — the fold order never depends on how many
// workers evaluated the scenarios.
func sameSurvivability(t *testing.T, got, want *Selection) {
	t.Helper()
	for i := range got.Candidates {
		g, w := got.Candidates[i], want.Candidates[i]
		if (g.Survivability == nil) != (w.Survivability == nil) {
			t.Fatalf("candidate %s: survivability presence differs", candName(g))
		}
		if g.Survivability != nil && *g.Survivability != *w.Survivability {
			t.Errorf("candidate %s: survivability differs across parallelism: got %v, want %v",
				candName(g), *g.Survivability, *w.Survivability)
		}
	}
}

// TestEscalatedSelectionIdenticalAcrossParallelism pins the escalation
// ladder under parallel sweeps: MPEG4 escalates MP -> SM, so two rungs
// run on the worker pool, and the selection must stay byte-identical to
// the sequential ladder at every parallelism setting.
func TestEscalatedSelectionIdenticalAcrossParallelism(t *testing.T) {
	seq, err := Select(mpeg4EscalationConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if seq.RoutingUsed == route.MinPath {
		t.Fatal("MPEG4 did not escalate; the test needs a second rung")
	}
	for _, par := range []int{2, runtime.GOMAXPROCS(0)} {
		got, err := Select(mpeg4EscalationConfig(par))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		sameSelection(t, got, seq)
	}
}

// TestFaultAwareEscalationIdenticalAcrossParallelism composes an
// escalated parallel selection with the per-candidate fault-sweep
// fan-out and pins byte-identical Selection and survivability results
// across Parallelism ∈ {1, 2, GOMAXPROCS}.
func TestFaultAwareEscalationIdenticalAcrossParallelism(t *testing.T) {
	cfg := func(par int) Config { return withLinkFaults(mpeg4EscalationConfig(par)) }
	seq, err := Select(cfg(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, runtime.GOMAXPROCS(0)} {
		got, err := Select(cfg(par))
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		sameSelection(t, got, seq)
		sameSurvivability(t, got, seq)
	}
}

// TestSelectCancellationMidEscalation cancels an escalated parallel
// selection from its progress stream — while the first rung's sweep is
// in flight — and checks the cancellation surfaces as context.Canceled
// with every worker drained (the test would otherwise fail under -race
// or hang).
func TestSelectCancellationMidEscalation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := mpeg4EscalationConfig(2)
	var events atomic.Int32
	cfg.Progress = func(engine.Event) {
		if events.Add(1) == 3 {
			cancel() // a few candidates into the first rung
		}
	}
	if _, err := SelectContext(ctx, cfg); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestReliabilityRespectsLimiterCap is the regression gate for the old
// hardcoded single-worker fault sweep: a fault-aware selection whose
// parallelism exceeds its shared limiter cap must still complete (the
// sweep's extra workers only poll for idle slots — a fully subscribed
// limiter can never deadlock nested fan-out) and must report exactly the
// sequential results.
func TestReliabilityRespectsLimiterCap(t *testing.T) {
	seq, err := SelectContext(context.Background(), faultSelectConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := vopdMinPathConfig(4)
	cfg.Limit = engine.NewLimiter(2)
	got, err := SelectContext(context.Background(), withLinkFaults(cfg))
	if err != nil {
		t.Fatal(err)
	}
	sameSelection(t, got, seq)
	sameSurvivability(t, got, seq)
}
