package sim

import (
	"context"
	"testing"
	"time"

	"sunmap/internal/engine"
	"sunmap/internal/topology"
	"sunmap/internal/traffic"
)

// sweepConfig builds a small real simulation config for limiter tests.
func sweepConfig(t *testing.T) Config {
	t.Helper()
	topo, err := topology.ByName("mesh-2x2")
	if err != nil {
		t.Fatal(err)
	}
	routes, err := BuildRoutes(topo)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Topo:          topo,
		Routes:        routes,
		Pattern:       traffic.Uniform{},
		Seed:          1,
		WarmupCycles:  10,
		MeasureCycles: 50,
		DrainCycles:   100,
	}
}

// nestedSweep runs a 4-worker rate sweep inside the single unit of an
// outer Fan on a one-slot limiter: the unit holds the only slot, so the
// sweep must run its rates inline in it (a worker blocking for a second
// slot would wait forever).
func nestedSweep(t *testing.T, cfg Config, rates []float64) ([]*Stats, error) {
	t.Helper()
	limit := engine.NewLimiter(1)
	var stats []*Stats
	err := engine.Fan(context.Background(), 1, engine.Options{Parallelism: 1, Limit: limit}, func(ctx context.Context, _ int) (err error) {
		stats, err = sweep(ctx, cfg, rates, engine.Options{Parallelism: 4, Limit: limit})
		return err
	})
	return stats, err
}

// TestSweepSaturatedLimiterNoDeadlock is the regression test for the old
// nested blocking acquire in the simulator's rate sweep: with every
// limiter slot held by the caller, a sweep that queued for a slot per
// rate blocked forever. A sweep nested in a Fan unit must complete
// inline in the unit's slot.
func TestSweepSaturatedLimiterNoDeadlock(t *testing.T) {
	rates := []float64{0.05, 0.1, 0.15, 0.2}
	type result struct {
		stats []*Stats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stats, err := nestedSweep(t, sweepConfig(t), rates)
		done <- result{stats, err}
	}()
	select {
	case res := <-done:
		if res.err != nil {
			t.Fatal(res.err)
		}
		for i, st := range res.stats {
			if st == nil || st.MeasuredPackets == 0 {
				t.Errorf("rate %g: degenerate stats %+v", rates[i], st)
			}
		}
	case <-time.After(30 * time.Second):
		t.Fatal("nested rate sweep deadlocked on a saturated limiter")
	}
}

// TestSweepSaturatedMatchesUnlimited pins that the saturated-limiter
// path (helpers never admitted, everything inline) produces the same
// stats as an unconstrained parallel sweep — the byte-identical-at-
// every-parallelism contract extends to limiter pressure.
func TestSweepSaturatedMatchesUnlimited(t *testing.T) {
	cfg := sweepConfig(t)
	rates := []float64{0.05, 0.1, 0.15, 0.2}
	saturated, err := nestedSweep(t, cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	free, err := sweep(context.Background(), cfg, rates, engine.Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range rates {
		if *saturated[i] != *free[i] {
			t.Errorf("rate %g: saturated %+v != unlimited %+v", rates[i], *saturated[i], *free[i])
		}
	}
}
