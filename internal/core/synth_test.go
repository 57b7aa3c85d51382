package core

import (
	"context"
	"testing"

	"sunmap/internal/apps"
	"sunmap/internal/engine"
	"sunmap/internal/mapping"
	"sunmap/internal/route"
	"sunmap/internal/synth"
	"sunmap/internal/topology"
)

// synthConfig is the MPEG-4 selection of Section 6.1 with synthesized
// candidates enabled.
func synthConfig(t *testing.T) Config {
	t.Helper()
	g, err := apps.ByName("mpeg4")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		App: g,
		Mapping: mapping.Options{
			Routing:      route.MinPath,
			Objective:    mapping.MinDelay,
			CapacityMBps: apps.DefaultCapacityMBps,
		},
		EscalateRouting: true,
		Synth:           &synth.Options{},
	}
}

// TestSelectWithSynthCandidates is the end-to-end acceptance check: one
// Select call evaluates at least three synthesized candidates alongside
// the full standard library, in deterministic order after the library.
func TestSelectWithSynthCandidates(t *testing.T) {
	sel, err := Select(synthConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	nSynth := countCandidates(sel, synthesized)
	if nSynth < 3 {
		t.Errorf("%d synthesized candidates, want >= 3", nSynth)
	}
	// The library must still be fully present before the synthesized tail.
	lib, err := topology.Library(12, topology.LibraryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Candidates) != len(lib)+nSynth {
		t.Errorf("%d candidates for %d library + %d synthesized",
			len(sel.Candidates), len(lib), nSynth)
	}
	for i, want := range lib {
		if got := candName(sel.Candidates[i]); got != want.Name() {
			t.Errorf("candidate %d = %s, want library member %s", i, got, want.Name())
		}
	}
	for _, c := range sel.Candidates[len(lib):] {
		if c.Result == nil || c.Result.Topology.Kind() != topology.Synth {
			t.Errorf("tail candidate %s is not an evaluated synthesized topology", candName(c))
		}
	}
}

// TestSelectWithSynthDeterministic asserts the synthesized sweep returns
// identical selections at every parallelism setting.
func TestSelectWithSynthDeterministic(t *testing.T) {
	cfg := synthConfig(t)
	cfg.Parallelism = 1
	seq, err := Select(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{0, 4} {
		cfg := synthConfig(t)
		cfg.Parallelism = par
		got, err := Select(cfg)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		sameSelection(t, got, seq)
	}
}

// TestSelectWithSynthCacheReplay asserts synthesized candidates are
// memoized like library members: a second Select on a shared cache replays
// every evaluation — including every synthesized one — as a cache hit.
func TestSelectWithSynthCacheReplay(t *testing.T) {
	cache := engine.NewCache()
	cfg := synthConfig(t)
	cfg.Cache = cache
	if _, err := Select(cfg); err != nil {
		t.Fatal(err)
	}

	cfg = synthConfig(t)
	cfg.Cache = cache
	cands, err := synth.Candidates(cfg.App, *cfg.Synth)
	if err != nil {
		t.Fatal(err)
	}
	synthNames := make(map[string]bool)
	for _, c := range cands {
		synthNames[c.Name()] = true
	}
	synthHits := 0
	cfg.Progress = func(ev engine.Event) {
		if !ev.CacheHit {
			t.Errorf("warm replay re-evaluated %s under %s", ev.Topology, ev.Routing)
		}
		if synthNames[ev.Topology] {
			synthHits++
		}
	}
	sel, err := SelectContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if synthHits < 3 {
		t.Errorf("only %d synthesized cache hits, want >= 3", synthHits)
	}
	if n := countCandidates(sel, synthesized); n < 3 {
		t.Errorf("%d synthesized candidates after warm replay, want >= 3", n)
	}
}
