package sim

import (
	"context"
	"strings"
	"testing"

	"sunmap/internal/engine"
	"sunmap/internal/topology"
	"sunmap/internal/traffic"
)

func meshSimConfig(t *testing.T) Config {
	t.Helper()
	topo, err := topology.NewMesh(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := BuildRoutes(topo)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Topo:          topo,
		Routes:        rt,
		Pattern:       traffic.Uniform{},
		InjectionRate: 0.1,
		Seed:          1,
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, meshSimConfig(t)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSweepContextParallelMatchesSequential(t *testing.T) {
	// Each rate simulates with its own seeded RNG, so a rate sweep fanned
	// across workers must reproduce the sequential stats bit for bit, in
	// rate order.
	cfg := meshSimConfig(t)
	rates := []float64{0.05, 0.1, 0.2}
	seq, err := Sweep(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	par, err := sweep(context.Background(), cfg, rates, engine.Options{Parallelism: 3, Limit: engine.NewLimiter(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(seq) {
		t.Fatalf("parallel sweep returned %d stats, want %d", len(par), len(seq))
	}
	for i := range seq {
		if *par[i] != *seq[i] {
			t.Errorf("rate %g: parallel stats %+v != sequential %+v", rates[i], *par[i], *seq[i])
		}
	}
}

func TestSweepContextAbortsOnFirstError(t *testing.T) {
	// An invalid rate must fail the sweep with its own error (not a
	// cancellation), and the lowest failing rate's error wins at one
	// worker and at two.
	cfg := meshSimConfig(t)
	for _, par := range []int{1, 2} {
		_, err := sweep(context.Background(), cfg, []float64{0.05, 1.5, 2.5}, engine.Options{Parallelism: par})
		if err == nil || !strings.Contains(err.Error(), "rate 1.5") {
			t.Fatalf("parallelism %d: err = %v, want the rate-1.5 validation failure", par, err)
		}
	}
}

func TestSweepContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sweep(ctx, meshSimConfig(t), []float64{0.1, 0.2}, engine.Options{Parallelism: 2}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
