package mapping

import (
	"context"
	"testing"
	"time"

	"sunmap/internal/apps"
	"sunmap/internal/route"
	"sunmap/internal/tech"
	"sunmap/internal/topology"
)

// cacheKey is the binary encoding as a comparable string.
func cacheKey(o Options) string { return string(o.AppendCacheKey(nil)) }

func TestCacheKeyCanonicalizesDefaults(t *testing.T) {
	// The zero Options and an Options spelling out every default must
	// collide: Map treats them identically, so the cache must too.
	zero := Options{}
	explicit := Options{
		Routing:    route.DimensionOrdered,
		Objective:  MinDelay,
		Tech:       tech.Tech100nm(),
		SwapPasses: 16,
	}
	if cacheKey(zero) != cacheKey(explicit) {
		t.Errorf("zero options and explicit defaults disagree:\n%x\n%x", cacheKey(zero), cacheKey(explicit))
	}
}

func TestCacheKeyIgnoresInertFields(t *testing.T) {
	base := Options{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 500}

	// Weights are inert outside the Weighted objective.
	w := base
	w.Weights = Weights{Delay: 1, Area: 2, Power: 3}
	if cacheKey(base) != cacheKey(w) {
		t.Error("weights changed the key under a non-weighted objective")
	}
	weighted := base
	weighted.Objective = Weighted
	weighted.Weights = Weights{Delay: 1}
	weighted2 := weighted
	weighted2.Weights = Weights{Delay: 1, Area: 1}
	if cacheKey(weighted) == cacheKey(weighted2) {
		t.Error("weights did not change the key under the Weighted objective")
	}

	// Chunks are inert under single-path routing functions.
	c := base
	c.Chunks = 64
	if cacheKey(base) != cacheKey(c) {
		t.Error("chunks changed the key under MinPath")
	}
	sm := base
	sm.Routing = route.SplitMin
	smDefault := sm
	smDefault.Chunks = 32 // the route.Options default
	if cacheKey(sm) != cacheKey(smDefault) {
		t.Error("explicit default chunks changed the key under SplitMin")
	}
	sm64 := sm
	sm64.Chunks = 64
	if cacheKey(sm) == cacheKey(sm64) {
		t.Error("chunks did not change the key under SplitMin")
	}
}

func TestCacheKeyDistinguishesDesignPoints(t *testing.T) {
	base := Options{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 500}
	variants := []Options{
		{Routing: route.SplitMin, Objective: MinDelay, CapacityMBps: 500},
		{Routing: route.MinPath, Objective: MinPower, CapacityMBps: 500},
		{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 1000},
		{Routing: route.MinPath, Objective: MinDelay, CapacityMBps: 500, MaxAreaMM2: 60},
	}
	seen := map[string]bool{cacheKey(base): true}
	for i, v := range variants {
		k := cacheKey(v)
		if seen[k] {
			t.Errorf("variant %d collides with an earlier design point", i)
		}
		seen[k] = true
	}
	tech90, err := tech.ByName("90nm")
	if err != nil {
		t.Fatal(err)
	}
	other := base
	other.Tech = tech90
	if cacheKey(other) == cacheKey(base) {
		t.Error("technology point did not change the key")
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mesh, err := topology.NewMesh(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = MapContextWith(ctx, apps.VOPD(), mesh, Options{Routing: route.MinPath}, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapContextDeadlineMidSearch(t *testing.T) {
	// An already-expired deadline must abort inside the swap search, not
	// run the full mapping.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	mesh, err := topology.NewMesh(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, err = MapContextWith(ctx, apps.VOPD(), mesh, Options{Routing: route.MinPath}, nil)
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
