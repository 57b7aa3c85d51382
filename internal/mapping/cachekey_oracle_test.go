package mapping

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sunmap/internal/route"
	"sunmap/internal/tech"
)

// fmtCacheKey is the text encoding AppendCacheKey replaced, kept as the
// oracle its binary encoding is checked against.
func fmtCacheKey(o Options) string {
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

// oracleOptions returns option sets that perturb every field one at a
// time — live and inert, to a default and away from it, to -0 and NaN —
// under each routing function and objective.
func oracleOptions() []Options {
	negZero := math.Copysign(0, -1)
	edits := []func(*Options){
		func(*Options) {},
		func(o *Options) { o.Weights.Delay = 1 },
		func(o *Options) { o.Weights.Area = 0.5 },
		func(o *Options) { o.Weights.Power = negZero },
		func(o *Options) { o.CapacityMBps = 750 },
		func(o *Options) { o.CapacityMBps = negZero },
		func(o *Options) { o.CapacityMBps = math.NaN() },
		func(o *Options) { o.MaxAreaMM2 = 60 },
		func(o *Options) { o.MaxAreaMM2 = math.Inf(1) },
		func(o *Options) { o.MaxChipAspect = 2 },
		func(o *Options) { o.SwapPasses = 1 },
		func(o *Options) { o.SwapPasses = 16 },
		func(o *Options) { o.SwapPasses = -3 },
		func(o *Options) { o.Floorplan.SpacingMM = 0.1 },
		func(o *Options) { o.Floorplan.SpacingMM = 0.2 },
		func(o *Options) { o.Floorplan.Tangents = 5 },
		func(o *Options) { o.Floorplan.Tangents = 8 },
		func(o *Options) { o.Chunks = 32 },
		func(o *Options) { o.Chunks = 64 },
		func(o *Options) { o.Tech = tech.Tech100nm() },
		func(o *Options) { o.Tech, _ = tech.ByName("90nm") },
		func(o *Options) { o.Tech = tech.Tech100nm(); o.Tech.Name = "custom" },
		func(o *Options) { o.Tech = tech.Tech100nm(); o.Tech.FeatureNM++ },
		func(o *Options) { o.Tech = tech.Tech100nm(); o.Tech.XbarAreaMM2 *= 2 },
		func(o *Options) { o.Tech = tech.Tech100nm(); o.Tech.BufAreaMM2 *= 2 },
		func(o *Options) { o.Tech = tech.Tech100nm(); o.Tech.LogicAreaMM2 *= 2 },
		func(o *Options) { o.Tech = tech.Tech100nm(); o.Tech.LinkAreaMM2PerMM *= 2 },
		func(o *Options) { o.Tech = tech.Tech100nm(); o.Tech.BufWritePJ *= 2 },
		func(o *Options) { o.Tech = tech.Tech100nm(); o.Tech.BufReadPJ *= 2 },
		func(o *Options) { o.Tech = tech.Tech100nm(); o.Tech.XbarPJ *= 2 },
		func(o *Options) { o.Tech = tech.Tech100nm(); o.Tech.ArbPJ *= 2 },
		func(o *Options) { o.Tech = tech.Tech100nm(); o.Tech.LinkPJPerMM = negZero },
		func(o *Options) { o.Tech = tech.Tech100nm(); o.Tech.FlitBits = 64 },
		func(o *Options) { o.Tech = tech.Tech100nm(); o.Tech.BufDepthFlits = 8 },
	}
	var out []Options
	for _, fn := range []route.Function{route.DimensionOrdered, route.MinPath, route.SplitMin, route.SplitAll} {
		for _, obj := range []Objective{MinDelay, MinArea, MinPower, Weighted} {
			for _, edit := range edits {
				o := Options{Routing: fn, Objective: obj, CapacityMBps: 500}
				edit(&o)
				out = append(out, o)
			}
		}
	}
	return out
}

// TestCacheKeyMatchesFmtOracle checks the binary encoding partitions
// option sets exactly as the text encoding did: two sets share a binary
// key iff they share a text key. The family holds one NaN payload only;
// the text encoding prints every NaN alike, the binary one keeps their
// payloads apart.
func TestCacheKeyMatchesFmtOracle(t *testing.T) {
	opts := oracleOptions()
	bin := make([]string, len(opts))
	txt := make([]string, len(opts))
	for i, o := range opts {
		bin[i], txt[i] = cacheKey(o), fmtCacheKey(o)
	}
	classes := make(map[string]bool)
	for i := range opts {
		classes[txt[i]] = true
		for j := i + 1; j < len(opts); j++ {
			if (bin[i] == bin[j]) != (txt[i] == txt[j]) {
				t.Errorf("options %d and %d: binary keys equal %t, text keys equal %t\n%+v\n%+v",
					i, j, bin[i] == bin[j], txt[i] == txt[j], opts[i], opts[j])
			}
		}
	}
	if len(classes) < len(opts)/4 {
		t.Errorf("only %d key classes among %d option sets: the family tests little", len(classes), len(opts))
	}
}

// TestCacheKeyLiveFieldsSeparate perturbs each field of a weighted,
// split-routing design point, where every field is live, and checks each
// perturbation gets a key of its own — except the six that spell out a
// default (tech, two swap counts, spacing, tangents, chunks), which must
// share the base point's key.
func TestCacheKeyLiveFieldsSeparate(t *testing.T) {
	var live []Options
	for _, o := range oracleOptions() {
		if o.Routing == route.SplitMin && o.Objective == Weighted {
			live = append(live, o)
		}
	}
	base := cacheKey(live[0])
	seen := make(map[string]int)
	defaults := 0
	for i, o := range live[1:] {
		k := cacheKey(o)
		if k == base {
			defaults++
			continue
		}
		if j, ok := seen[k]; ok {
			t.Errorf("perturbations %d and %d share a key:\n%+v\n%+v", j, i+1, live[j], o)
		}
		seen[k] = i + 1
	}
	if defaults != 6 {
		t.Errorf("%d perturbations share the base point's key, want the 6 spelled-out defaults", defaults)
	}
}
