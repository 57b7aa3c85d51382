package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"

	"sunmap"
	"sunmap/internal/apps"
	"sunmap/internal/graph"
	"sunmap/internal/search"
)

// Every op a workload sends is drawn from the fixed corpus this file
// defines, and expected/digests.json holds the SHA-256 of each corpus
// op's canonical Report. The seed picks order, subset and arrival
// times, never an input outside the corpus, so a run with any seed
// verifies every report it receives.

// op is one request and the corpus key naming its expected digest.
type op struct {
	key string
	req sunmap.Request
}

const (
	// paperCapMBps is the link capacity of the paper's video experiments.
	paperCapMBps = 500
	// randCapMBps keeps RandomApp graphs (flows up to 450 MB/s, summed
	// on repeated pairs) feasible under single-path routing.
	randCapMBps = 1000
	// rand16Corpus covers serve-warm's 5% first-seen misses of one run
	// (about 210) and select-cold's two draws per round.
	rand16Corpus = 512
	rand32Corpus = 24
)

var (
	paperApps      = []string{"vopd", "mpeg4", "dsp", "netproc"}
	selectVariants = []string{"mp", "weighted", "synth"}
)

// design is one mapped network: an app on a named topology under a
// routing function.
type design struct{ app, topo, routing string }

// paperDesigns are the networks select/<app>/mp picks; serve-warm's
// hot set revisits them.
var paperDesigns = []design{
	{"vopd", "butterfly-4ary2fly", "MP"},
	{"mpeg4", "torus-3x4", "SM"},
	{"dsp", "hypercube-3", "SM"},
	{"netproc", "hypercube-4", "MP"},
}

// faultDesigns adds two meshes to the winners, so fault-sim sweeps
// path-diverse grids as well as indirect and cube networks.
var faultDesigns = append(slices.Clone(paperDesigns),
	design{"vopd", "mesh-4x4", "MP"},
	design{"mpeg4", "mesh-3x4", "SM"},
)

func paperMap(d design) sunmap.MapSpec {
	return sunmap.MapSpec{Routing: d.routing, CapacityMBps: paperCapMBps}
}

// selectOp is one paper-app selection: MP at 500 MB/s with escalation,
// optionally under the weighted objective or with synthesis on.
func selectOp(app, variant string) op {
	sr := &sunmap.SelectRequest{
		App:      sunmap.AppSpec{Name: app},
		Mapping:  sunmap.MapSpec{Routing: "MP", CapacityMBps: paperCapMBps},
		Escalate: true,
	}
	switch variant {
	case "weighted":
		sr.Mapping.Objective = "weighted"
		sr.Mapping.WeightDelay, sr.Mapping.WeightArea, sr.Mapping.WeightPower = 1, 1, 1
	case "synth":
		sr.Synth = &sunmap.SynthSpec{}
	}
	return op{"select/" + app + "/" + variant, sunmap.Request{Op: sunmap.OpSelect, Select: sr}}
}

// randApp is search.RandomApp(seed, n) as an inline request app.
func randApp(n int, seed int64) sunmap.AppSpec {
	g := search.RandomApp(seed, n)
	a := sunmap.AppSpec{Label: g.Name()}
	for _, c := range g.Cores() {
		a.Cores = append(a.Cores, sunmap.CoreSpec{Name: c.Name, AreaMM2: c.AreaMM2})
	}
	for _, e := range g.Edges() {
		a.Flows = append(a.Flows, sunmap.FlowSpec{From: g.Core(e.From).Name, To: g.Core(e.To).Name, MBps: e.BandwidthMBps})
	}
	return a
}

// randSelectOp selects for RandomApp(seed, n) at 1000 MB/s with
// escalation. Seeds run from 1.
func randSelectOp(n int, seed int64) op {
	sr := &sunmap.SelectRequest{
		App:      randApp(n, seed),
		Mapping:  sunmap.MapSpec{Routing: "MP", CapacityMBps: randCapMBps},
		Escalate: true,
	}
	return op{fmt.Sprintf("select/rand%d-s%d", n, seed), sunmap.Request{Op: sunmap.OpSelect, Select: sr}}
}

// hotSet is serve-warm's repeated working set: every op kind a client
// revisits on each paper design.
func hotSet() []op {
	var ops []op
	for _, d := range paperDesigns {
		app := sunmap.AppSpec{Name: d.app}
		suffix := d.app + "/" + d.topo + "/" + d.routing
		ops = append(ops,
			selectOp(d.app, "mp"),
			op{"map/" + suffix, sunmap.Request{Op: sunmap.OpMap, Map: &sunmap.MapRequest{App: app, Topology: d.topo, Mapping: paperMap(d)}}},
			op{"routing-sweep/" + suffix, sunmap.Request{Op: sunmap.OpRoutingSweep, RoutingSweep: &sunmap.SweepRequest{App: app, Topology: d.topo, Mapping: paperMap(d)}}},
			op{"pareto/" + suffix, sunmap.Request{Op: sunmap.OpPareto, Pareto: &sunmap.ParetoRequest{App: app, Topology: d.topo, Mapping: paperMap(d)}}},
			op{"generate/" + d.app, sunmap.Request{Op: sunmap.OpGenerate, Generate: &sunmap.GenerateRequest{
				App: app, Mapping: sunmap.MapSpec{Routing: "MP", CapacityMBps: paperCapMBps}, Escalate: true,
			}}},
		)
	}
	return ops
}

// faultOp sweeps a design's failure scenarios: kind "k1" (single
// links), "k2" (link and switch pairs, exhaustive) or "k3" (512 Monte
// Carlo triples drawn with mcSeed); simRate > 0 adds the cycle-accurate
// fault injection.
func faultOp(d design, kind string, mcSeed int64, simRate float64) op {
	var f sunmap.FaultSpec
	switch kind {
	case "k1":
		f = sunmap.FaultSpec{K: 1, Elements: "links"}
	case "k2":
		f = sunmap.FaultSpec{K: 2, Elements: "both"}
	default:
		f = sunmap.FaultSpec{K: 3, Samples: 512, Seed: mcSeed}
		kind = fmt.Sprintf("k3-s%d", mcSeed)
	}
	key := fmt.Sprintf("fault-sweep/%s/%s/%s/%s/r%g", d.app, d.topo, d.routing, kind, simRate)
	return op{key, sunmap.Request{Op: sunmap.OpFaultSweep, FaultSweep: &sunmap.FaultSweepRequest{
		App: sunmap.AppSpec{Name: d.app}, Topology: d.topo, Mapping: paperMap(d), Fault: f, SimRate: simRate,
	}}}
}

// simRates spans light load to past saturation of a 4x4 grid.
var simRates = []float64{0.05, 0.15, 0.3}

// simOp simulates synthetic traffic on a 4x4 grid, or (pattern "trace")
// dsp's flows over its mapping onto hypercube-3.
func simOp(topo, pattern string, seed int64) op {
	sr := &sunmap.SimRequest{Topology: topo, Pattern: pattern, Rates: simRates, Seed: seed}
	if pattern == "trace" {
		d := paperDesigns[2]
		m := paperMap(d)
		sr.Topology, sr.App, sr.Mapping = d.topo, &sunmap.AppSpec{Name: d.app}, &m
	}
	return op{fmt.Sprintf("simulate/%s/%s/s%d", sr.Topology, pattern, seed), sunmap.Request{Op: sunmap.OpSimulate, Simulate: sr}}
}

// searchApp is one app of search-jobs: a paper app or a RandomApp.
type searchApp struct {
	key  string
	spec sunmap.AppSpec
}

func searchApps() []searchApp {
	out := []searchApp{{"mpeg4", sunmap.AppSpec{Name: "mpeg4"}}, {"vopd", sunmap.AppSpec{Name: "vopd"}}}
	for _, r := range []struct{ n, seeds int }{{16, 4}, {24, 2}} {
		for s := 1; s <= r.seeds; s++ {
			out = append(out, searchApp{fmt.Sprintf("rand%d-s%d", r.n, s), randApp(r.n, int64(s))})
		}
	}
	return out
}

var searchBudgets = []int{20000, 30000, 40000}

// searchSeeds is how many annealing seeds each (app, budget) pair has
// in the corpus.
const searchSeeds = 2

func searchOp(a searchApp, budget int, seed int64) op {
	return op{fmt.Sprintf("search/%s/b%d/s%d", a.key, budget, seed), sunmap.Request{Op: sunmap.OpSearch, Search: &sunmap.SearchRequest{
		App:     a.spec,
		Mapping: sunmap.MapSpec{CapacityMBps: randCapMBps},
		Search:  sunmap.SearchOptions{Budget: budget, Seed: seed},
	}}}
}

// corpus lists every op any seed of any workload can send — the set
// -update digests.
func corpus() []op {
	var ops []op
	for _, app := range paperApps {
		for _, v := range selectVariants {
			ops = append(ops, selectOp(app, v))
		}
	}
	for s := int64(1); s <= rand16Corpus; s++ {
		ops = append(ops, randSelectOp(16, s))
	}
	for s := int64(1); s <= rand32Corpus; s++ {
		ops = append(ops, randSelectOp(32, s))
	}
	for _, o := range hotSet() {
		if o.req.Op != sunmap.OpSelect { // the hot selects are select/<app>/mp
			ops = append(ops, o)
		}
	}
	for _, a := range searchApps() {
		for _, b := range searchBudgets {
			for s := int64(1); s <= searchSeeds; s++ {
				ops = append(ops, searchOp(a, b, s))
			}
		}
	}
	for s := int64(1); s <= faultSeeds; s++ {
		ops = append(ops, faultRound(func() int64 { return s })...)
	}
	return dedupe(ops)
}

// dedupe keeps the first op of each key.
func dedupe(ops []op) []op {
	seen := map[string]bool{}
	out := ops[:0:0]
	for _, o := range ops {
		if !seen[o.key] {
			seen[o.key] = true
			out = append(out, o)
		}
	}
	return out
}

// faultSeeds is how many Monte Carlo / simulation seeds fault-sim's
// corpus holds per op shape.
const faultSeeds = 4

// faultRound is one round of fault-sim: every fault design under every
// failure model, with and without fault injection, plus the simulation
// mix; next picks each seeded op's seed.
func faultRound(next func() int64) []op {
	var ops []op
	for _, d := range faultDesigns {
		for _, kind := range []string{"k1", "k2", "k3"} {
			for _, rate := range []float64{0, 0.1} {
				var s int64
				if kind == "k3" {
					s = next()
				}
				ops = append(ops, faultOp(d, kind, s, rate))
			}
		}
	}
	for _, topo := range []string{"mesh-4x4", "torus-4x4"} {
		for _, p := range []string{"uniform", "transpose", "hotspot"} {
			ops = append(ops, simOp(topo, p, next()))
		}
	}
	return append(ops, simOp("", "trace", next()))
}

// roundSource yields a closed-loop workload's op stream one round at a
// time. Every round holds the same mix in a seed-shuffled order, so a
// run that stops on a round boundary did the same kinds of work
// whatever its seed.
type roundSource func() []op

func selectColdRounds(rng *rand.Rand, smoke bool) roundSource {
	if smoke {
		return func() []op { return []op{selectOp("vopd", "mp"), selectOp("dsp", "synth"), randSelectOp(16, 1)} }
	}
	p16, p32 := rng.Perm(rand16Corpus), rng.Perm(rand32Corpus)
	r := 0
	return func() []op {
		var ops []op
		for _, app := range paperApps {
			for _, v := range selectVariants {
				ops = append(ops, selectOp(app, v))
			}
		}
		// Two RandomApp-16 selects keep seven of the fifteen ops below
		// mpeg4's MP→SM selection, so the median lands on that one op
		// rather than among apps that differ from seed to seed.
		for i := 0; i < 2; i++ {
			ops = append(ops, randSelectOp(16, int64(p16[(2*r+i)%rand16Corpus]+1)))
		}
		ops = append(ops, randSelectOp(32, int64(p32[r%rand32Corpus]+1)))
		r++
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		return ops
	}
}

func searchJobsRounds(rng *rand.Rand, smoke bool) roundSource {
	as := searchApps()
	if smoke {
		return func() []op { return []op{searchOp(as[0], searchBudgets[0], 1), searchOp(as[1], searchBudgets[0], 2)} }
	}
	return func() []op {
		var ops []op
		for _, a := range as {
			for _, b := range searchBudgets {
				ops = append(ops, searchOp(a, b, 1+rng.Int63n(searchSeeds)))
			}
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		return ops
	}
}

func faultSimRounds(rng *rand.Rand, smoke bool) roundSource {
	if smoke {
		return func() []op {
			return []op{faultOp(paperDesigns[0], "k1", 0, 0.1), faultOp(paperDesigns[2], "k3", 1, 0), simOp("mesh-4x4", "uniform", 1)}
		}
	}
	return func() []op {
		ops := faultRound(func() int64 { return 1 + rng.Int63n(faultSeeds) })
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		return ops
	}
}

// canonical is a Report's canonical JSON: the serve layer's encoding
// (no HTML escaping) without the trailing newline.
func canonical(rep *sunmap.Report) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(rep); err != nil {
		return nil, fmt.Errorf("encoding report: %w", err)
	}
	return bytes.TrimSuffix(b.Bytes(), []byte("\n")), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

//go:embed expected/digests.json
var expectedJSON []byte

// digests maps corpus keys to the SHA-256 of their canonical Report.
type digests map[string]string

func loadDigests() (digests, error) {
	var d digests
	if err := json.Unmarshal(expectedJSON, &d); err != nil {
		return nil, fmt.Errorf("decoding expected digests: %w", err)
	}
	return d, nil
}

// check verifies one op's canonical Report bytes.
func (d digests) check(key string, canon []byte) error {
	want, ok := d[key]
	if !ok {
		return fmt.Errorf("%s: no expected digest (run with -update)", key)
	}
	if got := digest(canon); got != want {
		return fmt.Errorf("%s: report digest %.12s, want %.12s", key, got, want)
	}
	return nil
}

// checkReport verifies an in-process Report.
func (d digests) checkReport(key string, rep *sunmap.Report) error {
	canon, err := canonical(rep)
	if err != nil {
		return err
	}
	if err := d.check(key, canon); err != nil {
		if rep.Error != "" {
			return fmt.Errorf("%w (report error %s: %s)", err, rep.ErrorKind, rep.Error)
		}
		return err
	}
	return nil
}

// coreGraph rebuilds the graph a request app names, the way the
// session resolves it, for the layer pass's direct layer calls.
func coreGraph(a sunmap.AppSpec) (*graph.CoreGraph, error) {
	if a.Name != "" {
		return apps.ByName(a.Name)
	}
	g := graph.NewCoreGraph(a.Label)
	for _, c := range a.Cores {
		if _, err := g.AddCore(graph.Core{Name: c.Name, AreaMM2: c.AreaMM2}); err != nil {
			return nil, err
		}
	}
	for _, f := range a.Flows {
		if err := g.Connect(f.From, f.To, f.MBps); err != nil {
			return nil, err
		}
	}
	return g, g.Validate()
}
