package mapping

import (
	"fmt"
	"strings"

	"sunmap/internal/route"
)

// CacheKey returns a canonical, deterministic encoding of every option
// that influences a Map result. Two Options values with the same key map
// any (app, topology) pair to the same Result, so the key — combined with
// the app digest and topology name — content-addresses the evaluation
// cache used by internal/engine.
//
// Canonicalization applies the same defaulting Map itself performs and
// zeroes fields that are inert under the current settings (Weights outside
// the Weighted objective, Chunks outside the splitting routing functions),
// so semantically identical configurations collide onto one cache entry.
func (o Options) CacheKey() string {
	o = o.withDefaults()
	if o.Objective != Weighted {
		o.Weights = Weights{}
	}
	if o.Routing != route.SplitMin && o.Routing != route.SplitAll {
		o.Chunks = 0
	} else if o.Chunks <= 0 {
		o.Chunks = route.DefaultChunks
	}
	fp := o.Floorplan
	if fp.SpacingMM <= 0 {
		fp.SpacingMM = 0.1
	}
	if fp.Tangents < 2 {
		fp.Tangents = 5
	}
	t := o.Tech
	var sb strings.Builder
	fmt.Fprintf(&sb, "v1|rt=%d|obj=%d|w=%g,%g,%g|cap=%g|maxarea=%g|maxaspect=%g|",
		int(o.Routing), int(o.Objective), o.Weights.Delay, o.Weights.Area, o.Weights.Power,
		o.CapacityMBps, o.MaxAreaMM2, o.MaxChipAspect)
	fmt.Fprintf(&sb, "swaps=%d|fp=%g,%d|chunks=%d|", o.SwapPasses, fp.SpacingMM, fp.Tangents, o.Chunks)
	fmt.Fprintf(&sb, "tech=%s,%d,%g,%g,%g,%g,%g,%g,%g,%g,%g,%d,%d",
		t.Name, t.FeatureNM, t.XbarAreaMM2, t.BufAreaMM2, t.LogicAreaMM2, t.LinkAreaMM2PerMM,
		t.BufWritePJ, t.BufReadPJ, t.XbarPJ, t.ArbPJ, t.LinkPJPerMM, t.FlitBits, t.BufDepthFlits)
	return sb.String()
}
