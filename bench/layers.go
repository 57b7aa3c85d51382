package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"sunmap"
	"sunmap/internal/area"
	"sunmap/internal/core"
	"sunmap/internal/engine"
	"sunmap/internal/fault"
	"sunmap/internal/floorplan"
	"sunmap/internal/graph"
	"sunmap/internal/mapping"
	"sunmap/internal/power"
	"sunmap/internal/route"
	"sunmap/internal/search"
	"sunmap/internal/sim"
	"sunmap/internal/synth"
	"sunmap/internal/tech"
	"sunmap/internal/topology"
	"sunmap/internal/traffic"
	"sunmap/internal/xpipes"
	"sunmap/serve"
)

// maxLayerOps caps the distinct ops one layer pass replays, which
// bounds a traced run's length.
const maxLayerOps = 24

// layerPass replays a traced run's distinct ops at parallelism 1,
// timing every call into a layer's public function with the op's own
// inputs, and keeps the ledger: each op's wall time against the summed
// self time of the layers replayed for it.
type layerPass struct {
	want    digests
	scratch *mapping.Scratch
	cache   *engine.Cache
	// designs memoizes mappings the workload's session had cached, so
	// warm replays map outside the timers.
	designs map[string]mappedDesign
	t       map[string]*layerTime

	ops, swaps, scenarios, cycles, packets, evals, accepted int
	selects, candidates, feasible, escalated                int
	wall, self                                              time.Duration
}

type layerTime struct {
	n int
	d time.Duration
}

type mappedDesign struct {
	app  *graph.CoreGraph
	opts mapping.Options
	res  *mapping.Result
}

func newLayerPass(want digests) *layerPass {
	return &layerPass{
		want:    want,
		scratch: mapping.NewScratch(),
		cache:   engine.NewCache(),
		designs: map[string]mappedDesign{},
		t:       map[string]*layerTime{},
	}
}

// time runs f as one call of the named layer and returns its duration.
func (lp *layerPass) time(name string, f func() error) (time.Duration, error) {
	t := time.Now()
	err := f()
	d := time.Since(t)
	lt := lp.t[name]
	if lt == nil {
		lt = &layerTime{}
		lp.t[name] = lt
	}
	lt.n++
	lt.d += d
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// do times one in-process Session.Do and verifies its report.
func (lp *layerPass) do(ctx context.Context, sess *sunmap.Session, o op) (sunmap.Report, time.Duration, error) {
	var rep sunmap.Report
	d, _ := lp.time("session.do", func() error {
		rep = sess.Do(ctx, o.req)
		return nil
	})
	return rep, d, lp.want.checkReport(o.key, &rep)
}

// account adds one replayed op to the ledger.
func (lp *layerPass) account(wall, self time.Duration) {
	lp.ops++
	lp.wall += wall
	lp.self += self
}

// runLayerPass replays the distinct ops in the order a traced run first
// sent them, each in the cache state it met there.
func runLayerPass(ctx context.Context, workload string, want digests, sent []sample) (map[string]float64, error) {
	byKey := map[string]op{}
	for _, o := range corpus() {
		byKey[o.key] = o
	}
	seen := map[string]bool{}
	var ops []op
	for _, s := range sent {
		if !seen[s.key] && len(ops) < maxLayerOps {
			seen[s.key] = true
			ops = append(ops, byKey[s.key])
		}
	}
	lp := newLayerPass(want)
	var err error
	switch workload {
	case "select-cold":
		err = lp.selectCold(ctx, ops)
	case "serve-warm":
		err = lp.serveWarm(ctx, ops)
	case "search-jobs":
		err = lp.searchJobs(ctx, ops)
	case "fault-sim":
		err = lp.faultSim(ctx, ops)
	}
	if err != nil {
		return nil, fmt.Errorf("layer pass: %w", err)
	}
	return lp.metrics(), nil
}

// selectCold: every op on a fresh session; the ledger's layers are
// synthesis and every candidate mapping of every routing rung.
func (lp *layerPass) selectCold(ctx context.Context, ops []op) error {
	for _, o := range ops {
		sess, err := sunmap.NewSession(sunmap.WithParallelism(1))
		if err != nil {
			return err
		}
		rep, wall, err := lp.do(ctx, sess, o)
		if err != nil {
			return err
		}
		self, err := lp.replaySelect(ctx, o, rep.Select)
		if err != nil {
			return err
		}
		lp.account(wall, self)
	}
	return nil
}

// faultSim: one session holding every design's mapping, as in the
// workload; the ledger's layers are scenario build, sweep, rerouting
// and simulation.
func (lp *layerPass) faultSim(ctx context.Context, ops []op) error {
	sess, err := sunmap.NewSession(sunmap.WithParallelism(1))
	if err != nil {
		return err
	}
	for _, o := range ops {
		sess.Do(ctx, o.req) // warms the mapping the workload found cached
		rep, wall, err := lp.do(ctx, sess, o)
		if err != nil {
			return err
		}
		var self time.Duration
		if o.req.Op == sunmap.OpFaultSweep {
			self, err = lp.replayFault(ctx, o.req.FaultSweep, rep.FaultSweep)
		} else {
			self, err = lp.replaySim(ctx, o.req.Simulate, rep.Simulate)
		}
		if err != nil {
			return err
		}
		lp.account(wall, self)
	}
	return nil
}

// searchJobs: the ledger sets Session.Do against search.Run; decode
// and encode are timed on the job's request and report.
func (lp *layerPass) searchJobs(ctx context.Context, ops []op) error {
	sess, err := sunmap.NewSession(sunmap.WithParallelism(1))
	if err != nil {
		return err
	}
	for _, o := range ops {
		if _, _, err := lp.decode(mustJSON(o.req)); err != nil {
			return err
		}
		rep, wall, err := lp.do(ctx, sess, o)
		if err != nil {
			return err
		}
		if _, err := lp.encode(&rep); err != nil {
			return err
		}
		self, err := lp.replaySearch(ctx, o.req.Search, rep.Search)
		if err != nil {
			return err
		}
		lp.account(wall, self)
	}
	return nil
}

// serveWarm: a parallelism-1 server prefilled like the workload's. The
// ledger sets a warm POST /v1/do round trip against decode, Session.Do,
// encode and the bare transport; first-seen selects additionally
// replay their cold mappings, and generate ops their SystemC emission.
func (lp *layerPass) serveWarm(ctx context.Context, ops []op) error {
	sess, err := sunmap.NewSession(sunmap.WithParallelism(1))
	if err != nil {
		return err
	}
	srv, err := startServer(ctx, sess, serve.Options{})
	if err != nil {
		return err
	}
	defer srv.close()
	client := newClient(1)
	defer client.CloseIdleConnections()
	post := func(body []byte) ([]byte, error) {
		st, resp, err := roundTrip(ctx, client, http.MethodPost, srv.base+"/v1/do", body)
		if err == nil && st != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", st, resp)
		}
		return resp, err
	}
	hot := map[string]bool{}
	for _, o := range hotSet() {
		hot[o.key] = true
		if _, err := post(mustJSON(o.req)); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
	transport, err := transportMS(ctx, client, srv.base)
	if err != nil {
		return err
	}
	for _, o := range ops {
		body := mustJSON(o.req)
		if !hot[o.key] {
			resp, err := post(body) // the miss, as the workload sent it
			if err != nil {
				return err
			}
			rep, err := sunmap.ParseReport(resp)
			if err != nil {
				return err
			}
			if _, err := lp.replaySelect(ctx, o, rep.Select); err != nil {
				return err
			}
		}
		t := time.Now()
		if _, err := post(body); err != nil {
			return err
		}
		wall := time.Since(t)
		req, dec, err := lp.decode(body)
		if err != nil {
			return err
		}
		rep, do, err := lp.do(ctx, sess, op{o.key, *req})
		if err != nil {
			return err
		}
		enc, err := lp.encode(&rep)
		if err != nil {
			return err
		}
		if o.req.Op == sunmap.OpGenerate {
			if err := lp.replayGenerate(ctx, o.req.Generate, rep.Generate); err != nil {
				return err
			}
		}
		lp.account(wall, dec+do+enc+time.Duration(transport*float64(time.Millisecond)))
	}
	return nil
}

// decode times the serve layer's strict request decode.
func (lp *layerPass) decode(body []byte) (*sunmap.Request, time.Duration, error) {
	var req *sunmap.Request
	d, err := lp.time("serve.decode", func() (err error) {
		req, err = sunmap.ParseRequest(body)
		return err
	})
	return req, d, err
}

// encode times the serve layer's response encoding of a Report.
func (lp *layerPass) encode(rep *sunmap.Report) (time.Duration, error) {
	var b bytes.Buffer
	return lp.time("serve.encode", func() error {
		enc := json.NewEncoder(&b)
		enc.SetEscapeHTML(false)
		return enc.Encode(rep)
	})
}

// diverged reports a replay whose result differs from the op's report:
// the replay would then time different work than the op did.
func diverged(what string, got, want any) error {
	return fmt.Errorf("replay diverged from the report: %s %v, report says %v", what, got, want)
}

// mapOptions lowers a request's MapSpec onto mapping.Options the way a
// session with the default technology point does.
func mapOptions(m sunmap.MapSpec) (mapping.Options, error) {
	opts := mapping.Options{
		Routing:       route.MinPath,
		CapacityMBps:  m.CapacityMBps,
		MaxAreaMM2:    m.MaxAreaMM2,
		MaxChipAspect: m.MaxChipAspect,
		SwapPasses:    m.SwapPasses,
		Chunks:        m.Chunks,
		Tech:          tech.Tech100nm(),
	}
	if m.Routing != "" {
		fn, err := route.ParseFunction(m.Routing)
		if err != nil {
			return opts, err
		}
		opts.Routing = fn
	}
	switch strings.TrimPrefix(m.Objective, "min-") {
	case "", "delay":
		opts.Objective = mapping.MinDelay
	case "area":
		opts.Objective = mapping.MinArea
	case "power":
		opts.Objective = mapping.MinPower
	case "weighted":
		opts.Objective = mapping.Weighted
		opts.Weights = mapping.Weights{Delay: m.WeightDelay, Area: m.WeightArea, Power: m.WeightPower}
	default:
		return opts, fmt.Errorf("unknown objective %q", m.Objective)
	}
	if m.Tech != "" {
		t, err := tech.ByName(m.Tech)
		if err != nil {
			return opts, err
		}
		opts.Tech = t
	}
	return opts, nil
}

// design maps an app onto a named topology once, outside the timers:
// the mapping a warm session serves from its cache.
func (lp *layerPass) design(ctx context.Context, a sunmap.AppSpec, topoName string, spec sunmap.MapSpec) (mappedDesign, error) {
	key := string(mustJSON([]any{a, topoName, spec}))
	if d, ok := lp.designs[key]; ok {
		return d, nil
	}
	app, err := coreGraph(a)
	if err != nil {
		return mappedDesign{}, err
	}
	opts, err := mapOptions(spec)
	if err != nil {
		return mappedDesign{}, err
	}
	topo, err := topology.ByName(topoName)
	if err != nil {
		return mappedDesign{}, err
	}
	res, err := mapping.MapContextWith(ctx, app, topo, opts, lp.scratch)
	if err != nil {
		return mappedDesign{}, err
	}
	d := mappedDesign{app, opts, res}
	lp.designs[key] = d
	return d, nil
}

// replaySelect maps the app onto every candidate at every routing rung
// up to the one the report names, then replays the final evaluation's
// layers on each last-rung mapping. Synthesis and the mappings are the
// op's self time; the final-evaluation layers run inside a mapping and
// are not counted again.
func (lp *layerPass) replaySelect(ctx context.Context, o op, rep *sunmap.SelectReport) (time.Duration, error) {
	sr := o.req.Select
	app, err := coreGraph(sr.App)
	if err != nil {
		return 0, err
	}
	opts, err := mapOptions(sr.Mapping)
	if err != nil {
		return 0, err
	}
	used, err := route.ParseFunction(rep.RoutingUsed)
	if err != nil {
		return 0, err
	}
	lib, err := topology.Library(app.NumCores(), topology.LibraryOptions{})
	if err != nil {
		return 0, err
	}
	var self time.Duration
	if sr.Synth != nil {
		var cands []topology.Topology
		d, err := lp.time("synth.candidates", func() (err error) {
			cands, err = synth.Candidates(app, synth.Options{MaxRadix: sr.Synth.MaxRadix, ClusterSizes: sr.Synth.ClusterSizes})
			return err
		})
		if err != nil {
			return 0, err
		}
		self += d
		lib = append(lib, cands...)
	}
	if len(lib) != rep.Candidates {
		return 0, diverged(o.key+" candidates", len(lib), rep.Candidates)
	}
	for fn := opts.Routing; fn <= used; fn++ {
		rung := opts
		rung.Routing = fn
		for _, topo := range lib {
			var res *mapping.Result
			d, err := lp.time("mapping.map", func() (err error) {
				res, err = mapping.MapContextWith(ctx, app, topo, rung, lp.scratch)
				return err
			})
			self += d
			if err != nil {
				continue // a per-candidate failure, recorded and skipped as the engine does
			}
			lp.swaps += res.SwapsApplied
			if fn == used {
				if err := lp.replayEval(app, res, rung); err != nil {
					return 0, err
				}
			}
		}
	}
	lp.selects++
	lp.candidates += rep.Candidates
	lp.feasible += rep.Feasible
	if used != opts.Routing {
		lp.escalated++
	}
	return self, nil
}

// replayEval replays the final exact evaluation of one mapping: routing
// on the final assignment, the LP floorplan, switch sizing and power.
func (lp *layerPass) replayEval(app *graph.CoreGraph, res *mapping.Result, opts mapping.Options) error {
	topo, t, comms := res.Topology, opts.Tech, app.Commodities()
	var rr *route.Result
	if _, err := lp.time("route.route", func() (err error) {
		rr, err = route.Route(topo, res.Assign, comms, opts.RouteOptions())
		return err
	}); err != nil {
		return err
	}
	cfgs := area.SwitchConfigs(topo, res.Assign, t)
	swAreas := make([]float64, len(cfgs))
	for i, c := range cfgs {
		swAreas[i] = area.SwitchAreaMM2(c, t)
	}
	var fp *floorplan.Result
	if _, err := lp.time("floorplan.plan", func() (err error) {
		fp, err = floorplan.Floorplan(topo, res.Assign, app.Cores(), swAreas, opts.Floorplan)
		return err
	}); err != nil {
		return err
	}
	_, err := lp.time("power.eval", func() error {
		_, err := power.NetworkPowerMW(area.SwitchConfigs(topo, res.Assign, t), rr.RouterLoads, rr.LinkLoads, fp.LinkLengthsMM, t)
		return err
	})
	return err
}

// replayFault rebuilds the op's failure scenarios and sweeps them on
// the cached mapping; with fault injection on, it also replays the
// rerouting and the simulation of the worst connected scenario.
func (lp *layerPass) replayFault(ctx context.Context, fr *sunmap.FaultSweepRequest, rep *sunmap.FaultReport) (time.Duration, error) {
	d, err := lp.design(ctx, fr.App, fr.Topology, fr.Mapping)
	if err != nil {
		return 0, err
	}
	el, err := fault.ParseElements(fr.Fault.Elements)
	if err != nil {
		return 0, err
	}
	model := fault.Model{K: fr.Fault.K, Elements: el, Samples: fr.Fault.Samples, Seed: fr.Fault.Seed, ForceSampling: fr.Fault.ForceSampling}
	topo := d.res.Topology
	var (
		scen []fault.Scenario
		exh  bool
		frep *fault.Report
	)
	build, err := lp.time("fault.build", func() (err error) {
		scen, exh, err = fault.Scenarios(topo, model)
		return err
	})
	if err != nil {
		return 0, err
	}
	ropts := fault.Degraded(d.opts.RouteOptions())
	comms := d.app.Commodities()
	sweep, err := lp.time("fault.sweep", func() (err error) {
		frep, err = fault.SweepContext(ctx, topo, d.res.Assign, comms, ropts, scen, exh, 1, nil)
		return err
	})
	if err != nil {
		return 0, err
	}
	if frep.Scenarios != rep.Scenarios {
		return 0, diverged("fault scenarios", frep.Scenarios, rep.Scenarios)
	}
	lp.scenarios += frep.Scenarios
	self := build + sweep
	if fr.SimRate <= 0 || frep.Connected == 0 {
		return self, nil
	}
	// The session's fault injection: trace traffic over the mapping, the
	// worst scenario's links failed mid-measurement, degraded routes
	// installed for packets injected after the fault.
	cfg := sim.Config{
		Topo:            topo,
		FaultLinks:      frep.WorstCase.Links,
		ActiveTerminals: d.res.Assign,
		InjectionRate:   fr.SimRate,
		Seed:            fr.Fault.Seed,
		FaultCycle:      sim.DefaultWarmupCycles + sim.DefaultMeasureCycles/2,
	}
	if fr.SimCycle > 0 {
		cfg.FaultCycle = fr.SimCycle
	}
	routes, err := lp.time("sim.routes", func() error {
		mask := make([]bool, len(topo.Links()))
		for _, id := range frep.WorstCase.Links {
			mask[id] = true
		}
		dopts := ropts
		dopts.LoadsOnly = false
		dopts.DownLinks = mask
		rerouted, err := route.Route(topo, d.res.Assign, comms, dopts)
		if err != nil {
			return err
		}
		if cfg.Routes, err = sim.BuildRoutesFromResult(topo, d.res.Assign, d.res.Route); err != nil {
			return err
		}
		if cfg.FaultRoutes, err = sim.BuildRoutesFromResult(topo, d.res.Assign, rerouted); err != nil {
			return err
		}
		tr, err := traffic.NewTrace(d.app, d.res.Assign)
		if err != nil {
			return err
		}
		cfg.Pattern, cfg.SourceShare = tr, tr.SourceShare()
		return nil
	})
	if err != nil {
		return 0, err
	}
	run, err := lp.runSim(ctx, cfg, rep.Sim.MeasuredPackets)
	return self + routes + run, err
}

// replaySim builds the op's route table and simulates every rate.
func (lp *layerPass) replaySim(ctx context.Context, sr *sunmap.SimRequest, rep *sunmap.SimReport) (time.Duration, error) {
	cfg := sim.Config{
		PacketFlits:   sr.PacketFlits,
		BufDepthFlits: sr.BufDepthFlits,
		ChannelDelay:  sr.ChannelDelay,
		RouterDelay:   sr.RouterDelay,
		WarmupCycles:  sr.WarmupCycles,
		MeasureCycles: sr.MeasureCycles,
		DrainCycles:   sr.DrainCycles,
		Seed:          sr.Seed,
	}
	var self time.Duration
	switch sr.Pattern {
	case "trace":
		d, err := lp.design(ctx, *sr.App, sr.Topology, *sr.Mapping)
		if err != nil {
			return 0, err
		}
		cfg.Topo, cfg.ActiveTerminals = d.res.Topology, d.res.Assign
		if self, err = lp.time("sim.routes", func() (err error) {
			if cfg.Routes, err = sim.BuildRoutesFromResult(cfg.Topo, d.res.Assign, d.res.Route); err != nil {
				return err
			}
			tr, err := traffic.NewTrace(d.app, d.res.Assign)
			if err != nil {
				return err
			}
			cfg.Pattern, cfg.SourceShare = tr, tr.SourceShare()
			return nil
		}); err != nil {
			return 0, err
		}
	default:
		topo, err := topology.ByName(sr.Topology)
		if err != nil {
			return 0, err
		}
		cfg.Topo = topo
		switch sr.Pattern {
		case "uniform":
			cfg.Pattern = traffic.Uniform{}
		case "transpose":
			cfg.Pattern = traffic.Transpose{}
		case "hotspot":
			frac := sr.HotspotFrac
			if frac <= 0 {
				frac = 0.3
			}
			cfg.Pattern = traffic.Hotspot{Node: sr.HotspotNode, Frac: frac}
		default:
			return 0, fmt.Errorf("no replay for traffic pattern %q", sr.Pattern)
		}
		if self, err = lp.time("sim.routes", func() (err error) {
			cfg.Routes, err = sim.BuildRoutes(topo)
			return err
		}); err != nil {
			return 0, err
		}
	}
	for i, rate := range sr.Rates {
		c := cfg
		c.InjectionRate = rate
		d, err := lp.runSim(ctx, c, rep.Rows[i].MeasuredPackets)
		if err != nil {
			return 0, err
		}
		self += d
	}
	return self, nil
}

// runSim times one cycle-accurate run and checks it delivered the
// packets the op's report counts.
func (lp *layerPass) runSim(ctx context.Context, cfg sim.Config, wantPackets int) (time.Duration, error) {
	var st *sim.Stats
	d, err := lp.time("sim.run", func() (err error) {
		st, err = sim.RunContext(ctx, cfg)
		return err
	})
	if err != nil {
		return 0, err
	}
	if st.MeasuredPackets != wantPackets {
		return 0, diverged("measured packets", st.MeasuredPackets, wantPackets)
	}
	lp.cycles += st.Cycles
	lp.packets += st.MeasuredPackets
	return d, nil
}

// replaySearch reruns the annealing search sequentially.
func (lp *layerPass) replaySearch(ctx context.Context, sr *sunmap.SearchRequest, rep *sunmap.SearchReport) (time.Duration, error) {
	app, err := coreGraph(sr.App)
	if err != nil {
		return 0, err
	}
	opts, err := mapOptions(sr.Mapping)
	if err != nil {
		return 0, err
	}
	var res *search.Result
	d, err := lp.time("search.run", func() (err error) {
		res, err = search.Run(ctx, app, search.Options{
			Budget:            sr.Search.Budget,
			Restarts:          sr.Search.Restarts,
			Seed:              sr.Search.Seed,
			MaxRadix:          sr.Search.MaxRadix,
			MaxCoresPerSwitch: sr.Search.MaxCoresPerSwitch,
			MaxSwitches:       sr.Search.MaxSwitches,
			Mapping:           opts,
			Parallelism:       1,
		})
		return err
	})
	if err != nil {
		return 0, err
	}
	if res.Evaluations != rep.Evaluations || res.Accepted != rep.Accepted {
		return 0, diverged("search evaluations/accepted", []int{res.Evaluations, res.Accepted}, []int{rep.Evaluations, rep.Accepted})
	}
	lp.evals += res.Evaluations
	lp.accepted += res.Accepted
	return d, nil
}

// replayGenerate emits the SystemC of the op's design; the selection
// behind it comes from the pass's cache, outside the timer.
func (lp *layerPass) replayGenerate(ctx context.Context, gr *sunmap.GenerateRequest, rep *sunmap.GenerateReport) error {
	var (
		app  *graph.CoreGraph
		opts mapping.Options
		res  *mapping.Result
		err  error
	)
	if gr.Topology != "" {
		d, err := lp.design(ctx, gr.App, gr.Topology, gr.Mapping)
		if err != nil {
			return err
		}
		app, opts, res = d.app, d.opts, d.res
	} else {
		if app, err = coreGraph(gr.App); err != nil {
			return err
		}
		if opts, err = mapOptions(gr.Mapping); err != nil {
			return err
		}
		sel, err := core.SelectContext(ctx, core.Config{App: app, Mapping: opts, EscalateRouting: gr.Escalate, Parallelism: 1, Cache: lp.cache})
		if err != nil {
			return err
		}
		res = sel.Best
	}
	var out *xpipes.Output
	if _, err := lp.time("xpipes.generate", func() (err error) {
		out, err = xpipes.Generate(app, res, opts.Tech)
		return err
	}); err != nil {
		return err
	}
	if out.TopModule != rep.TopModule || len(out.Files) != len(rep.Files) {
		return diverged("generated design", out.TopModule, rep.TopModule)
	}
	return nil
}

// metrics folds the pass into per-layer metrics; a layer the workload
// never reached reads 0.
func (lp *layerPass) metrics() map[string]float64 {
	mean := func(name string, unit time.Duration) float64 {
		lt := lp.t[name]
		if lt == nil {
			return 0
		}
		return ratio(float64(lt.d)/float64(unit), float64(lt.n))
	}
	count := func(name string) float64 {
		if lt := lp.t[name]; lt != nil {
			return float64(lt.n)
		}
		return 0
	}
	perSecond := func(n int, name string) float64 {
		if lt := lp.t[name]; lt != nil {
			return ratio(float64(n), lt.d.Seconds())
		}
		return 0
	}
	return map[string]float64{
		"serve.decode_us":            mean("serve.decode", time.Microsecond),
		"serve.encode_us":            mean("serve.encode", time.Microsecond),
		"session.do_ms":              mean("session.do", time.Millisecond),
		"core.candidates_per_select": ratio(float64(lp.candidates), float64(lp.selects)),
		"core.feasible_ratio":        ratio(float64(lp.feasible), float64(lp.candidates)),
		"core.escalated_frac":        ratio(float64(lp.escalated), float64(lp.selects)),
		"mapping.map_ms":             mean("mapping.map", time.Millisecond),
		"mapping.maps_per_op":        ratio(count("mapping.map"), float64(lp.ops)),
		"mapping.swaps_per_map":      ratio(float64(lp.swaps), count("mapping.map")),
		"route.route_us":             mean("route.route", time.Microsecond),
		"floorplan.plan_us":          mean("floorplan.plan", time.Microsecond),
		"power.eval_us":              mean("power.eval", time.Microsecond),
		"synth.candidates_ms":        mean("synth.candidates", time.Millisecond),
		"fault.build_us":             mean("fault.build", time.Microsecond),
		"fault.sweep_ms":             mean("fault.sweep", time.Millisecond),
		"fault.scenarios_per_s":      perSecond(lp.scenarios, "fault.sweep"),
		"sim.run_ms":                 mean("sim.run", time.Millisecond),
		"sim.cycles_per_s":           perSecond(lp.cycles, "sim.run"),
		"sim.packets_per_s":          perSecond(lp.packets, "sim.run"),
		"search.run_ms":              mean("search.run", time.Millisecond),
		"search.evals_per_s":         perSecond(lp.evals, "search.run"),
		"search.accept_ratio":        ratio(float64(lp.accepted), float64(lp.evals)),
		"xpipes.generate_ms":         mean("xpipes.generate", time.Millisecond),
		"ledger.unaccounted_frac":    ratio(float64(lp.wall-lp.self), float64(lp.wall)),
	}
}
