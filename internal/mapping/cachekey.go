package mapping

import (
	"encoding/binary"
	"math"

	"sunmap/internal/route"
)

// AppendCacheKey appends a canonical, deterministic binary encoding of
// every option that influences a Map result to b and returns the extended
// slice. Two Options values with the same encoding map any (app,
// topology) pair to the same Result, so the encoding — combined with the
// app digest and the topology's name and structure — content-addresses
// the evaluation cache used by internal/engine.
//
// Canonicalization applies the same defaulting Map itself performs and
// zeroes fields that are inert under the current settings (Weights outside
// the Weighted objective, Chunks outside the splitting routing functions),
// so semantically identical configurations collide onto one cache entry.
// Integers enter as uvarints and floats as their IEEE-754 bits, so -0 and
// +0 (and NaNs of distinct payloads) stay apart; the technology name is
// length-prefixed.
//
//sunmap:hotpath
func (o Options) AppendCacheKey(b []byte) []byte {
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
	for _, v := range [...]int{int(o.Routing), int(o.Objective), o.SwapPasses, fp.Tangents, o.Chunks, t.FeatureNM, t.FlitBits, t.BufDepthFlits, len(t.Name)} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	b = append(b, t.Name...) //sunmap:alloc grows only past the caller's buffer
	for _, v := range [...]float64{
		o.Weights.Delay, o.Weights.Area, o.Weights.Power, o.CapacityMBps, o.MaxAreaMM2, o.MaxChipAspect, fp.SpacingMM,
		t.XbarAreaMM2, t.BufAreaMM2, t.LogicAreaMM2, t.LinkAreaMM2PerMM, t.BufWritePJ, t.BufReadPJ, t.XbarPJ, t.ArbPJ, t.LinkPJPerMM,
	} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}
