package sunmap

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"sunmap/internal/core"
	"sunmap/internal/engine"
	"sunmap/internal/fault"
	"sunmap/internal/graph"
	"sunmap/internal/mapping"
	"sunmap/internal/obs"
	"sunmap/internal/route"
	"sunmap/internal/search"
	"sunmap/internal/sim"
	"sunmap/internal/synth"
	"sunmap/internal/topology"
	"sunmap/internal/traffic"
	"sunmap/internal/xpipes"
)

// Session is the context-first handle onto the SUNMAP pipeline. It owns
// the engine resources that matter at scale — the evaluation cache and a
// session-wide admission pool bounding in-flight mapping work — for its
// lifetime, and exposes every pipeline stage as a method taking
// (ctx, request). Requests and Reports are JSON-round-trippable, Batch
// fans a request list across the engine with per-request isolation and
// deterministic result ordering, and the serve package serves the same
// schema over HTTP.
//
// A Session is safe for concurrent use. The zero value is not usable;
// construct with NewSession.
type Session struct {
	parallelism int
	cache       *engine.Cache
	progress    engine.Progress
	libOpts     topology.LibraryOptions
	synth       *SynthOptions
	fault       *FaultSpec
	limit       *engine.Limiter
	// scratch is the mapping scratch every engine run of the session
	// borrows from; evaluations take a set only while holding a limit
	// slot, so it never holds more sets than limit has slots.
	scratch *engine.Free[mapping.Scratch]
	// sweepers keeps the sweepers of survivability warm across
	// requests, one per concurrent sweep: every fault-aware op measures
	// on this one list.
	sweepers *engine.Free[fault.Sweeper]
	trace    *Trace
	// scope is the session's topology catalog: its libraries, the
	// library topologies its requests name, and its synthesized
	// candidates and search winners, each built once. It is bounded and
	// session-local, so a serve process never leaks names and tenants
	// never collide on them.
	scope *topology.Scope
}

// SessionOption configures a Session at construction time.
type SessionOption func(*sessionConfig) error

type sessionConfig struct {
	Session
}

// WithParallelism bounds the session's evaluation pool: at most n mapping
// evaluations run at once across all concurrent calls and batch requests.
// 0 (the default) selects GOMAXPROCS; 1 forces fully sequential
// evaluation. Results are identical at every setting.
func WithParallelism(n int) SessionOption {
	return func(c *sessionConfig) error {
		if n < 0 {
			return fmt.Errorf("%w: negative parallelism %d", ErrBadRequest, n)
		}
		c.parallelism = n
		return nil
	}
}

// WithProgress streams one event per evaluated candidate. Callbacks are
// serialized session-wide (never concurrent), even across the concurrent
// requests of a Batch.
func WithProgress(p Progress) SessionOption {
	return func(c *sessionConfig) error {
		c.progress = p
		return nil
	}
}

// WithLibrary tunes the default topology-library enumeration backing
// Select requests (mesh/torus aspect bounds, butterfly radix, Clos
// fan-in, octagon/star extras).
func WithLibrary(opts LibraryOptions) SessionOption {
	return func(c *sessionConfig) error {
		c.libOpts = opts
		return nil
	}
}

// WithSynth turns on application-specific topology synthesis for every
// Select in the session: synthesized candidates (min-cut clusters,
// trimmed mesh, sparse Hamming) compete with the library on equal terms.
// A request-level SelectRequest.Synth overrides it per call.
func WithSynth(opts SynthOptions) SessionOption {
	return func(c *sessionConfig) error {
		c.synth = &opts
		return nil
	}
}

// WithFault installs a session-default failure model: every Select gains
// the reliability axis (feasible candidates are swept under the model
// and ranked by the fault-aware composite score) and every ParetoExplore
// marks its front in the three-objective (area, power, survivability)
// space. A request-level SelectRequest.Fault / ParetoRequest.Fault
// overrides it per call; FaultSweep requests always carry their own
// spec.
func WithFault(spec FaultSpec) SessionOption {
	return func(c *sessionConfig) error {
		if _, err := spec.model(); err != nil {
			return err
		}
		c.fault = &spec
		return nil
	}
}

// NewSession builds a Session from functional options.
func NewSession(opts ...SessionOption) (*Session, error) {
	var c sessionConfig
	for _, o := range opts {
		if err := o(&c); err != nil {
			return nil, err
		}
	}
	s := c.Session
	s.cache = engine.NewCache()
	s.limit = engine.NewLimiter(s.parallelism)
	s.scratch = engine.NewFree(mapping.NewScratch)
	s.sweepers = engine.NewFree(fault.NewSweeper)
	s.scope = topology.NewScope(topology.DefaultScopeLimit)
	if p := s.progress; p != nil {
		// Serialize callbacks across the session's concurrent engine runs
		// (the engine only serializes within one run).
		var mu sync.Mutex
		s.progress = func(ev ProgressEvent) {
			mu.Lock()
			defer mu.Unlock()
			p(ev)
		}
	}
	return &s, nil
}

// CacheStats snapshots the session cache's effectiveness counters.
func (s *Session) CacheStats() EvalCacheStats { return s.cache.Stats() }

// LoadStats snapshots the session's admission-pool pressure: Capacity
// is the limiter bound, InFlight the held slots, Waiting the callers
// blocked in line for one. The serve layer's admission controller sheds
// on Waiting.
type LoadStats struct {
	Capacity int `json:"capacity"`
	InFlight int `json:"in_flight"`
	Waiting  int `json:"waiting"`
}

// Load snapshots the session's evaluation-pool pressure.
func (s *Session) Load() LoadStats {
	return LoadStats{
		Capacity: s.limit.Cap(),
		InFlight: s.limit.InFlight(),
		Waiting:  s.limit.Waiting(),
	}
}

// topologyByName resolves a topology name in the session's catalog:
// synthesized and discovered topologies, then the library grammar, each
// name giving the same object on every request while it is held.
// Unresolvable names wrap ErrUnknownTopology, as TopologyByName does.
func (s *Session) topologyByName(name string) (Topology, error) {
	t, err := s.scope.Resolve(name)
	if err != nil {
		return nil, fmt.Errorf("sunmap: %w %q: %w", ErrUnknownTopology, name, err)
	}
	return t, nil
}

// SynthCandidates synthesizes the application-specific candidate
// topologies for an app without running a selection and registers each
// in the session scope, so this session's requests can name them. Use it
// to inspect or simulate synthesized networks directly; Select performs
// the same synthesis when the session or request enables it.
func (s *Session) SynthCandidates(app *CoreGraph, opts SynthOptions) ([]Topology, error) {
	cands, err := synth.Candidates(app, opts)
	if err != nil {
		return nil, err
	}
	for _, t := range cands {
		if err := s.scope.Register(t); err != nil {
			return nil, err
		}
	}
	return cands, nil
}

// Select runs SUNMAP Phases 1 and 2 for one request: map the application
// onto every candidate topology, evaluate, and pick the best feasible
// network. When nothing is feasible it returns the evaluated report
// together with an error wrapping ErrInfeasible, so callers can both
// branch on errors.Is and inspect the candidate table.
func (s *Session) Select(ctx context.Context, req SelectRequest) (*SelectReport, error) {
	ctx = s.traceCtx(ctx)
	defer obs.FromContext(ctx).Start(obs.StageSelect).End()
	app, err := req.App.resolve()
	if err != nil {
		return nil, err
	}
	opts, err := req.Mapping.options()
	if err != nil {
		return nil, err
	}
	synthOpts := s.synth
	if req.Synth != nil {
		o := req.Synth.options()
		synthOpts = &o
	}
	sel, err := s.selectDesign(ctx, app, opts, req.Escalate, synthOpts, req.Fault)
	if err != nil {
		return nil, err
	}
	rep := buildSelectReport(app, sel)
	if sel.Best == nil {
		return rep, fmt.Errorf("sunmap: select %s: %w under routing %v (try escalate or a higher capacity)",
			app.Name(), ErrInfeasible, sel.RoutingUsed)
	}
	return rep, nil
}

// Map maps the application onto one named topology and evaluates the
// design point. Infeasible mappings are reported, not errors: the
// report's feasibility flags carry the verdict.
func (s *Session) Map(ctx context.Context, req MapRequest) (*DesignReport, error) {
	ctx = s.traceCtx(ctx)
	defer obs.FromContext(ctx).Start(obs.StageMap).End()
	app, err := req.App.resolve()
	if err != nil {
		return nil, err
	}
	opts, err := req.Mapping.options()
	if err != nil {
		return nil, err
	}
	topo, err := s.topologyByName(req.Topology)
	if err != nil {
		return nil, err
	}
	outcomes, err := s.evaluate(ctx, app, []engine.Job{{Topo: topo, Opts: opts}})
	if err != nil {
		return nil, err
	}
	return buildDesignReport(app, outcomes[0].Result), nil
}

// evaluate runs a job list on the session's engine resources, so every
// op that maps shares the session cache and admission pool. A failed job
// fails the call: a panic is an internal fault, and any other mapping
// failure (e.g. more cores than terminals) is the request's.
func (s *Session) evaluate(ctx context.Context, app *graph.CoreGraph, jobs []engine.Job) ([]engine.Outcome, error) {
	outcomes, err := engine.Evaluate(ctx, app, jobs, s.engineOptions())
	if err != nil {
		return nil, err
	}
	for i, o := range outcomes {
		switch {
		case o.Err == nil:
		case errors.Is(o.Err, engine.ErrPanic):
			return nil, fmt.Errorf("sunmap: map %s onto %s: %w", app.Name(), jobs[i].Topo.Name(), o.Err)
		default:
			return nil, fmt.Errorf("%w: map %s onto %s: %w", ErrBadRequest, app.Name(), jobs[i].Topo.Name(), o.Err)
		}
	}
	return outcomes, nil
}

// RoutingSweep maps the application onto the named topology once per
// routing function (DO, MP, SM, SA) and reports the minimum required link
// bandwidth of each — the bars of Fig. 9(a). Feasibility is judged
// against the request capacity (500 MB/s when unset).
func (s *Session) RoutingSweep(ctx context.Context, req SweepRequest) (*SweepReport, error) {
	ctx = s.traceCtx(ctx)
	defer obs.FromContext(ctx).Start(obs.StageRoutingSweep).End()
	app, err := req.App.resolve()
	if err != nil {
		return nil, err
	}
	opts, err := req.Mapping.options()
	if err != nil {
		return nil, err
	}
	topo, err := s.topologyByName(req.Topology)
	if err != nil {
		return nil, err
	}
	jobs := make([]engine.Job, len(core.Escalation))
	for i, fn := range core.Escalation {
		jobs[i] = engine.Job{Topo: topo, Opts: opts}
		jobs[i].Opts.Routing = fn
	}
	outcomes, err := s.evaluate(ctx, app, jobs)
	if err != nil {
		return nil, err
	}
	capMBps := opts.CapacityMBps
	if capMBps <= 0 {
		capMBps = 500
	}
	rep := &SweepReport{App: app.Name(), Topology: topo.Name(), CapacityMBps: capMBps, Rows: make([]SweepRow, len(jobs))}
	for i, o := range outcomes {
		rep.Rows[i] = SweepRow{
			Function:      jobs[i].Opts.Routing.String(),
			RequiredMBps:  o.Result.Route.MaxLinkLoad,
			AvgHops:       o.Result.AvgHops,
			FeasibleAtCap: o.Result.Route.MaxLinkLoad <= capMBps+1e-6,
		}
	}
	return rep, nil
}

// maxParetoSteps caps ParetoRequest.Steps. The grid holds
// 3·steps·(steps+1)/2 mapping jobs, so 40 steps is 2,460 jobs; on the
// paper's apps no grid finer than 5 steps found more distinct points.
const maxParetoSteps = 40

// ParetoExplore sweeps weighted delay/area/power objectives and switch
// buffer depths over the named topology and reports the area-power design
// points with the Pareto front marked — the exploration of Fig. 9(b).
// Steps sets the weight-grid resolution per axis (below 2 selects 5, above
// maxParetoSteps is a bad request); buffer depths 2, 4 and 8 flits span
// the switch-configuration axis. Every grid point is one engine job, so
// repeated and overlapping explorations replay from the session cache.
//
// With a fault model (the request's, else the session's), every point
// also carries its survivability under degraded-mode rerouting, and the
// front is marked in the (area, power, survivability) space, so a
// designer reads off how much area or power buying fault tolerance costs.
func (s *Session) ParetoExplore(ctx context.Context, req ParetoRequest) (*ParetoReport, error) {
	ctx = s.traceCtx(ctx)
	defer obs.FromContext(ctx).Start(obs.StagePareto).End()
	if req.Steps < 0 || req.Steps > maxParetoSteps {
		return nil, fmt.Errorf("%w: pareto steps %d outside [0, %d]", ErrBadRequest, req.Steps, maxParetoSteps)
	}
	app, err := req.App.resolve()
	if err != nil {
		return nil, err
	}
	opts, err := req.Mapping.options()
	if err != nil {
		return nil, err
	}
	topo, err := s.topologyByName(req.Topology)
	if err != nil {
		return nil, err
	}
	survive, _, err := s.survivor(app, opts, req.Fault)
	if err != nil {
		return nil, err
	}
	steps := req.Steps
	if steps < 2 {
		steps = 5
	}
	depths := []int{2, 4, 8}
	jobs := make([]engine.Job, 0, len(depths)*steps*(steps+1)/2)
	for _, depth := range depths {
		for ai := 0; ai < steps; ai++ {
			for pi := 0; pi < steps-ai; pi++ {
				wa := float64(ai) / float64(steps-1)
				wp := float64(pi) / float64(steps-1)
				wd := 1 - wa - wp
				if wd < 0 {
					continue
				}
				o := opts
				o.Tech.BufDepthFlits = depth
				o.Objective = mapping.Weighted
				o.Weights = mapping.Weights{Delay: wd, Area: wa, Power: wp}
				jobs = append(jobs, engine.Job{Topo: topo, Opts: o})
			}
		}
	}
	outcomes, err := s.evaluate(ctx, app, jobs)
	if err != nil {
		return nil, err
	}
	type point struct {
		row ParetoPointRow
		res *mapping.Result
	}
	pts := make([]point, 0, len(outcomes))
	for i, o := range outcomes {
		if res := o.Result; res.Feasible() {
			w := jobs[i].Opts.Weights
			pts = append(pts, point{
				row: ParetoPointRow{
					WeightDelay: w.Delay, WeightArea: w.Area, WeightPower: w.Power,
					AreaMM2: res.DesignAreaMM2, PowerMW: res.PowerMW, AvgHops: res.AvgHops,
				},
				res: res,
			})
		}
	}
	// Different weight vectors often converge to the same mapping; keep
	// one representative per distinct (area, power, hops) point.
	sort.Slice(pts, func(i, j int) bool {
		pi, pj := pts[i].row, pts[j].row
		if pi.AreaMM2 != pj.AreaMM2 {
			return pi.AreaMM2 < pj.AreaMM2
		}
		if pi.PowerMW != pj.PowerMW {
			return pi.PowerMW < pj.PowerMW
		}
		return pi.AvgHops < pj.AvgHops
	})
	dedup := pts[:0]
	for _, p := range pts {
		if n := len(dedup); n > 0 {
			q := dedup[n-1].row
			if nearly(p.row.AreaMM2, q.AreaMM2) && nearly(p.row.PowerMW, q.PowerMW) && nearly(p.row.AvgHops, q.AvgHops) {
				continue
			}
		}
		dedup = append(dedup, p)
	}
	rep := &ParetoReport{App: app.Name(), Topology: topo.Name()}
	for _, p := range dedup {
		rep.Points = append(rep.Points, p.row)
	}
	if survive != nil {
		// One survivability sweep per distinct point, all under the grid's
		// routing function, so every point is judged by the same failure
		// discipline.
		err = engine.Fan(ctx, len(dedup), s.engineOptions(), func(ctx context.Context, i int) error {
			surv, err := survive(ctx, dedup[i].res, opts.Routing)
			if err != nil {
				return fmt.Errorf("sunmap: pareto reliability: %w", err)
			}
			rep.Points[i].Survivability = &surv
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	markPareto(rep.Points)
	return rep, nil
}

// nearly reports a and b equal to within a relative 1e-6.
func nearly(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+max(math.Abs(a), math.Abs(b)))
}

// markPareto flags the non-dominated points in the (area, power,
// survivability) space: q dominates p when it is no worse on all three
// axes (lower-or-equal area and power, higher-or-equal survivability) and
// strictly better on at least one. Without a fault model no point
// carries a survivability, and this is dominance in the (area, power)
// plane.
func markPareto(pts []ParetoPointRow) {
	const tol = 1e-9
	surv := func(p ParetoPointRow) float64 {
		if p.Survivability == nil {
			return 0
		}
		return *p.Survivability
	}
	for i := range pts {
		p := pts[i]
		dominated := false
		for j, q := range pts {
			if i != j && q.AreaMM2 <= p.AreaMM2+tol && q.PowerMW <= p.PowerMW+tol && surv(q) >= surv(p)-tol &&
				(q.AreaMM2 < p.AreaMM2-tol || q.PowerMW < p.PowerMW-tol || surv(q) > surv(p)+tol) {
				dominated = true
				break
			}
		}
		pts[i].Dominant = !dominated
	}
}

// engineOptions hands the session's engine resources — parallelism,
// cache, progress stream, limiter and scratch list — to an engine.Evaluate
// or an engine.Fan.
func (s *Session) engineOptions() engine.Options {
	return engine.Options{Parallelism: s.parallelism, Cache: s.cache, Progress: s.progress, Limit: s.limit, Scratch: s.scratch}
}

// selectDesign runs one selection on the session's engine resources —
// the single place session knobs map onto core.Config — over the
// catalog's library for the app's core count, under the request's
// failure model (else the session's), and registers every synthesized
// candidate it evaluated in the session scope, so each synth row of the
// report resolves by name in follow-up requests.
func (s *Session) selectDesign(ctx context.Context, app *graph.CoreGraph, opts mapping.Options, escalate bool, synthOpts *SynthOptions, spec *FaultSpec) (*core.Selection, error) {
	lib, err := s.scope.Library(app.NumCores(), s.libOpts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err) // as core.SelectContext words its own library's error
	}
	cfg := core.Config{
		App:             app,
		Library:         lib,
		Synth:           synthOpts,
		Mapping:         opts,
		EscalateRouting: escalate,
		Parallelism:     s.parallelism,
		Cache:           s.cache,
		Progress:        s.progress,
		Limit:           s.limit,
		Scratch:         s.scratch,
	}
	cfg.Survive, cfg.ReliabilityWeight, err = s.survivor(app, opts, spec)
	if err != nil {
		return nil, err
	}
	sel, err := core.SelectContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	for _, c := range sel.Candidates {
		if c.Result != nil && c.Result.Topology.Kind() == topology.Synth {
			if err := s.scope.Register(c.Result.Topology); err != nil {
				return nil, err
			}
		}
	}
	return sel, nil
}

// survivability measures one mapped design's survivability under a
// failure model. It is the Session's one survivability path: the
// mapping options' routing lowers through fault.Degraded, the design's
// scenario set is built (a model the topology cannot meet, such as k
// above its element count, is a bad request), and the sweep runs on a
// sweeper from s.sweepers under the session's parallelism and limiter.
// Called from a unit of an engine.Fan under s.limit, the sweep nests in
// the unit's slot.
func (s *Session) survivability(ctx context.Context, res *mapping.Result, comms []graph.Commodity, opts mapping.Options, model fault.Model) (*fault.Report, error) {
	scenarios, exhaustive, err := fault.Scenarios(res.Topology, model)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	sw := s.sweepers.Get()
	defer s.sweepers.Put(sw)
	return sw.SweepContext(ctx, res.Topology, res.Assign, comms, fault.Degraded(opts.RouteOptions()), scenarios, exhaustive, s.parallelism, s.limit)
}

// survivor resolves a request's failure model, its own spec or else the
// session default, into the scorer of the reliability axis and its
// weight: survive measures a design mapped under opts by s.survivability,
// under the routing function it was mapped with. Without a model,
// survive is nil and there is no reliability axis.
func (s *Session) survivor(app *graph.CoreGraph, opts mapping.Options, req *FaultSpec) (survive func(context.Context, *mapping.Result, route.Function) (float64, error), weight float64, err error) {
	spec := req
	if spec == nil {
		spec = s.fault
	}
	if spec == nil {
		return nil, 0, nil
	}
	model, err := spec.model()
	if err != nil {
		return nil, 0, err
	}
	comms := app.Commodities()
	return func(ctx context.Context, res *mapping.Result, fn route.Function) (float64, error) {
		o := opts
		o.Routing = fn
		rep, err := s.survivability(ctx, res, comms, o, model)
		if err != nil {
			return 0, err
		}
		return rep.Survivability(), nil
	}, spec.ReliabilityWeight, nil
}

// Simulate sweeps the request's injection rates over the named topology
// with the cycle-accurate simulator. The per-rate runs are the units of
// one engine.Fan, so they queue for the session's limiter slots like any
// evaluation; results are deterministic for a given seed at every
// parallelism setting.
func (s *Session) Simulate(ctx context.Context, req SimRequest) (*SimReport, error) {
	ctx = s.traceCtx(ctx)
	defer obs.FromContext(ctx).Start(obs.StageSimulate).End()
	topo, err := s.topologyByName(req.Topology)
	if err != nil {
		return nil, err
	}
	if len(req.Rates) == 0 {
		return nil, fmt.Errorf("%w: simulate wants at least one injection rate", ErrBadRequest)
	}
	for _, r := range req.Rates {
		if r <= 0 || r > 1 {
			return nil, fmt.Errorf("%w: injection rate %g outside (0, 1]", ErrBadRequest, r)
		}
	}
	cfg := sim.Config{
		Topo:          topo,
		PacketFlits:   req.PacketFlits,
		BufDepthFlits: req.BufDepthFlits,
		ChannelDelay:  req.ChannelDelay,
		RouterDelay:   req.RouterDelay,
		WarmupCycles:  req.WarmupCycles,
		MeasureCycles: req.MeasureCycles,
		DrainCycles:   req.DrainCycles,
		Seed:          req.Seed,
	}
	pattern := req.Pattern
	if pattern == "" {
		pattern = "uniform"
	}
	if pattern == "trace" {
		if req.App == nil {
			return nil, fmt.Errorf("%w: trace-driven simulation wants an app", ErrBadRequest)
		}
		app, err := req.App.resolve()
		if err != nil {
			return nil, err
		}
		spec := MapSpec{}
		if req.Mapping != nil {
			spec = *req.Mapping
		}
		opts, err := spec.options()
		if err != nil {
			return nil, err
		}
		outcomes, err := s.evaluate(ctx, app, []engine.Job{{Topo: topo, Opts: opts}})
		if err != nil {
			return nil, err
		}
		res := outcomes[0].Result
		routes, err := sim.BuildRoutesFromResult(topo, res.Assign, res.Route)
		if err != nil {
			return nil, fmt.Errorf("sunmap: simulate: %w", err)
		}
		trace, err := traffic.NewTrace(app, res.Assign)
		if err != nil {
			return nil, fmt.Errorf("sunmap: simulate: %w", err)
		}
		cfg.Routes = routes
		cfg.Pattern = trace
		cfg.SourceShare = trace.SourceShare()
		cfg.ActiveTerminals = res.Assign
	} else {
		pat, err := patternByName(pattern, req, topo)
		if err != nil {
			return nil, err
		}
		routes, err := sim.BuildRoutes(topo)
		if err != nil {
			return nil, fmt.Errorf("sunmap: simulate: %w", err)
		}
		cfg.Routes = routes
		cfg.Pattern = pat
	}
	stats := make([]*sim.Stats, len(req.Rates))
	err = engine.Fan(ctx, len(req.Rates), s.engineOptions(), func(ctx context.Context, i int) error {
		c := cfg
		c.InjectionRate = req.Rates[i]
		st, err := sim.RunContext(ctx, c)
		if err != nil {
			return fmt.Errorf("sim: sweep at rate %g: %w", req.Rates[i], err)
		}
		stats[i] = st
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep := &SimReport{Topology: topo.Name(), Pattern: cfg.Pattern.Name()}
	for i, st := range stats {
		rep.Rows = append(rep.Rows, SimRow{
			Rate:              req.Rates[i],
			AvgLatencyCycles:  st.AvgLatencyCycles,
			P95LatencyCycles:  st.P95LatencyCycles,
			ThroughputFPC:     st.ThroughputFPC,
			MeasuredPackets:   st.MeasuredPackets,
			UnfinishedPackets: st.UnfinishedPackets,
			Saturated:         st.Saturated,
		})
	}
	return rep, nil
}

// patternByName resolves a synthetic traffic pattern (everything except
// "trace", which Simulate handles itself).
func patternByName(name string, req SimRequest, topo Topology) (traffic.Pattern, error) {
	switch name {
	case "uniform":
		return traffic.Uniform{}, nil
	case "transpose":
		return traffic.Transpose{}, nil
	case "tornado":
		return traffic.Tornado{}, nil
	case "bit-complement":
		return traffic.BitComplement{}, nil
	case "bit-reverse":
		return traffic.BitReverse{}, nil
	case "shuffle":
		return traffic.Shuffle{}, nil
	case "hotspot":
		if n := topo.NumTerminals(); req.HotspotNode < 0 || req.HotspotNode >= n {
			return nil, fmt.Errorf("%w: hotspot node %d outside [0, %d)", ErrBadRequest, req.HotspotNode, n)
		}
		// The negated test also rejects NaN.
		if !(req.HotspotFrac >= 0 && req.HotspotFrac <= 1) {
			return nil, fmt.Errorf("%w: hotspot fraction %g outside [0, 1]", ErrBadRequest, req.HotspotFrac)
		}
		frac := req.HotspotFrac
		if frac == 0 {
			frac = 0.3
		}
		return traffic.Hotspot{Node: req.HotspotNode, Frac: frac}, nil
	case "adversarial":
		return traffic.Adversarial(topo), nil
	}
	return nil, fmt.Errorf("%w: unknown traffic pattern %q", ErrBadRequest, name)
}

// Generate emits the SystemC description of a mapped design (Phase 3).
// With an empty Topology, a full selection chooses the network first —
// reusing any design points the session cache already holds.
func (s *Session) Generate(ctx context.Context, req GenerateRequest) (*GenerateReport, error) {
	ctx = s.traceCtx(ctx)
	defer obs.FromContext(ctx).Start(obs.StageGenerate).End()
	app, err := req.App.resolve()
	if err != nil {
		return nil, err
	}
	opts, err := req.Mapping.options()
	if err != nil {
		return nil, err
	}
	var res *mapping.Result
	if req.Topology == "" {
		sel, err := s.selectDesign(ctx, app, opts, req.Escalate, s.synth, nil)
		if err != nil {
			return nil, err
		}
		if sel.Best == nil {
			return nil, fmt.Errorf("sunmap: generate %s: %w", app.Name(), ErrInfeasible)
		}
		res = sel.Best
	} else {
		topo, err := s.topologyByName(req.Topology)
		if err != nil {
			return nil, err
		}
		outcomes, err := s.evaluate(ctx, app, []engine.Job{{Topo: topo, Opts: opts}})
		if err != nil {
			return nil, err
		}
		res = outcomes[0].Result
	}
	gen, err := xpipes.Generate(app, res, opts.Tech)
	if err != nil {
		return nil, fmt.Errorf("sunmap: generate: %w", err)
	}
	rep := &GenerateReport{App: app.Name(), Topology: res.Topology.Name(), TopModule: gen.TopModule}
	for _, name := range gen.FileNames() {
		rep.Files = append(rep.Files, GeneratedFile{Name: name, Content: gen.Files[name]})
	}
	return rep, nil
}

// FaultSweep maps the application onto the named topology (through the
// session cache, like Map) and analyzes its survivability: every failure
// scenario of the request's fault model is rerouted in degraded mode —
// masked, allocation-free replays on the routing scratch — and folded
// into a FaultReport. With SimRate set, the worst-case connected
// scenario is additionally injected into the cycle-accurate simulator
// mid-measurement, with degraded routes installed at the fault cycle, to
// measure delivered throughput before and after the failure.
func (s *Session) FaultSweep(ctx context.Context, req FaultSweepRequest) (*FaultReport, error) {
	ctx = s.traceCtx(ctx)
	defer obs.FromContext(ctx).Start(obs.StageFaultSweep).End()
	app, err := req.App.resolve()
	if err != nil {
		return nil, err
	}
	opts, err := req.Mapping.options()
	if err != nil {
		return nil, err
	}
	topo, err := s.topologyByName(req.Topology)
	if err != nil {
		return nil, err
	}
	model, err := req.Fault.model()
	if err != nil {
		return nil, err
	}
	if req.SimRate < 0 || req.SimRate > 1 {
		return nil, fmt.Errorf("%w: sim rate %g outside [0, 1]", ErrBadRequest, req.SimRate)
	}
	// The injection cycle must land strictly inside the measurement
	// window, or the before/after throughput split is vacuously zero on
	// one side. 0 picks the default, the window's midpoint.
	start, end := sim.DefaultWarmupCycles, sim.DefaultWarmupCycles+sim.DefaultMeasureCycles
	if req.SimCycle != 0 && (req.SimCycle <= start || req.SimCycle >= end) {
		return nil, fmt.Errorf("%w: sim cycle %d outside the measurement window (%d, %d)", ErrBadRequest, req.SimCycle, start, end)
	}
	outcomes, err := s.evaluate(ctx, app, []engine.Job{{Topo: topo, Opts: opts}})
	if err != nil {
		return nil, err
	}
	res := outcomes[0].Result
	frep, err := s.survivability(ctx, res, app.Commodities(), opts, model)
	if err != nil {
		return nil, err
	}
	ropts := fault.Degraded(opts.RouteOptions())
	k := model.K
	if k <= 0 {
		k = 1
	}
	rep := &FaultReport{
		App:                 app.Name(),
		Topology:            topo.Name(),
		Routing:             ropts.Function.String(),
		K:                   k,
		Elements:            model.Elements.String(),
		Scenarios:           frep.Scenarios,
		Exhaustive:          frep.Exhaustive,
		Survivability:       frep.Survivability(),
		ConnectedFrac:       frep.ConnectedFrac(),
		BaselineMaxLoadMBps: frep.Baseline.MaxLinkLoadMBps,
		WorstMaxLoadMBps:    frep.WorstMaxLinkLoadMBps,
		ExpectedMaxLoadMBps: frep.ExpMaxLinkLoadMBps,
		BaselineAvgHops:     frep.Baseline.AvgHops,
		WorstAvgHops:        frep.WorstAvgHops,
		ExpectedAvgHops:     frep.ExpAvgHops,
		WorstLinks:          frep.WorstCase.Links,
		WorstSwitches:       frep.WorstCase.Switches,
	}
	if d := frep.Disconnecting; d != nil {
		rep.DisconnectingLinks = d.Links
		rep.DisconnectingSwitches = d.Switches
	}
	if req.SimRate > 0 && frep.Connected > 0 {
		sim, err := s.faultSim(ctx, app, res, ropts, frep.WorstCase, req)
		if err != nil {
			return nil, err
		}
		rep.Sim = sim
	}
	return rep, nil
}

// faultSim runs the cycle-accurate fault-injection experiment for a
// sweep's worst-case connected scenario: trace traffic over the
// optimized mapping, the scenario's links failed mid-measurement, and a
// degraded-mode route table (masked rerouting of every commodity)
// installed for packets injected after the fault.
func (s *Session) faultSim(ctx context.Context, app *graph.CoreGraph, res *mapping.Result, ropts route.Options, worst fault.Scenario, req FaultSweepRequest) (*FaultSimReport, error) {
	topo := res.Topology
	routes, err := sim.BuildRoutesFromResult(topo, res.Assign, res.Route)
	if err != nil {
		return nil, fmt.Errorf("sunmap: fault sim: %w", err)
	}
	// Degraded routes: reroute every commodity with the scenario masked,
	// this time collecting paths for the route table.
	mask := make([]bool, len(topo.Links()))
	for _, id := range worst.Links {
		mask[id] = true
	}
	dopts := ropts
	dopts.LoadsOnly = false
	dopts.DownLinks = mask
	rerouted, err := route.Route(topo, res.Assign, app.Commodities(), dopts)
	if err != nil {
		// The sweep proved this scenario connected; a failure here is an
		// internal inconsistency, not bad input.
		return nil, fmt.Errorf("sunmap: fault sim: rerouting worst case: %w", err)
	}
	faultRoutes, err := sim.BuildRoutesFromResult(topo, res.Assign, rerouted)
	if err != nil {
		return nil, fmt.Errorf("sunmap: fault sim: %w", err)
	}
	trace, err := traffic.NewTrace(app, res.Assign)
	if err != nil {
		return nil, fmt.Errorf("sunmap: fault sim: %w", err)
	}
	cfg := sim.Config{
		Topo:            topo,
		Routes:          routes,
		FaultRoutes:     faultRoutes,
		FaultLinks:      worst.Links,
		Pattern:         trace,
		SourceShare:     trace.SourceShare(),
		ActiveTerminals: res.Assign,
		InjectionRate:   req.SimRate,
		Seed:            req.Fault.Seed,
	}
	// Default injection point: midway through the measurement window.
	cfg.FaultCycle = sim.DefaultWarmupCycles + sim.DefaultMeasureCycles/2
	if req.SimCycle > 0 {
		cfg.FaultCycle = req.SimCycle
	}
	var st *sim.Stats
	err = engine.Fan(ctx, 1, s.engineOptions(), func(ctx context.Context, _ int) (err error) {
		st, err = sim.RunContext(ctx, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &FaultSimReport{
		Rate:              req.SimRate,
		FaultCycle:        cfg.FaultCycle,
		FailedLinks:       worst.Links,
		Rerouted:          true,
		PreFaultFPC:       st.PreFaultFPC,
		PostFaultFPC:      st.PostFaultFPC,
		AvgLatencyCycles:  st.AvgLatencyCycles,
		MeasuredPackets:   st.MeasuredPackets,
		UnfinishedPackets: st.UnfinishedPackets,
		Saturated:         st.Saturated,
	}, nil
}

// Search discovers an application-specific topology by simulated
// annealing over arbitrary digraph edge sets (see internal/search),
// registers the winner in the session's topology scope, and reports its
// full mapped evaluation. Follow-up requests on the same session can
// address the discovered network by the reported name exactly like a
// library topology. The result is deterministic for a fixed seed at
// every parallelism setting.
func (s *Session) Search(ctx context.Context, req SearchRequest) (*SearchReport, error) {
	return s.SearchCheckpointed(ctx, req, nil)
}

// SearchCheckpoint is one annealing chain's serializable resume point —
// see the checkpoint/resume determinism contract in internal/search.
type SearchCheckpoint = search.ChainCheckpoint

// SearchCheckpoints plumbs durable checkpointing into a search run:
// Sink receives a checkpoint every Every evaluations of each chain
// (concurrently — it must be safe and fast; it decides which emissions
// to make durable), and Resume seeds chains
// from previously captured checkpoints. A resumed run must repeat the
// original request's seed, budget, restarts, bounds and application.
type SearchCheckpoints struct {
	Every  int
	Sink   func(SearchCheckpoint)
	Resume []SearchCheckpoint
}

// SearchCheckpointed is Search with a checkpoint conduit: the jobs
// layer uses it to journal annealing progress and to resume interrupted
// searches with bit-identical results.
func (s *Session) SearchCheckpointed(ctx context.Context, req SearchRequest, cp *SearchCheckpoints) (*SearchReport, error) {
	ctx = s.traceCtx(ctx)
	defer obs.FromContext(ctx).Start(obs.StageSearch).End()
	app, err := req.App.resolve()
	if err != nil {
		return nil, err
	}
	mopts, err := req.Mapping.options()
	if err != nil {
		return nil, err
	}
	opts := search.Options{
		Budget:            req.Search.Budget,
		Restarts:          req.Search.Restarts,
		Seed:              req.Search.Seed,
		MaxRadix:          req.Search.MaxRadix,
		MaxCoresPerSwitch: req.Search.MaxCoresPerSwitch,
		MaxSwitches:       req.Search.MaxSwitches,
		Mapping:           mopts,
		Parallelism:       s.parallelism,
		Limit:             s.limit,
	}
	if cp != nil {
		opts.CheckpointEvery = cp.Every
		opts.Checkpoint = cp.Sink
		opts.Resume = cp.Resume
	}
	opts.Survive, opts.ReliabilityWeight, err = s.survivor(app, mopts, req.Fault)
	if err != nil {
		return nil, err
	}
	res, err := search.Run(ctx, app, opts)
	if err != nil {
		switch {
		case errors.Is(err, search.ErrBadOptions):
			return nil, fmt.Errorf("sunmap: %w: %w", ErrBadRequest, err)
		case errors.Is(err, search.ErrNoFeasible):
			return nil, fmt.Errorf("sunmap: search %s: %w within budget (try a larger budget or capacity)",
				app.Name(), ErrInfeasible)
		default:
			return nil, err
		}
	}
	best := res.Best
	topo := best.Evaluated.Topology
	if err := s.scope.Register(topo); err != nil {
		return nil, fmt.Errorf("sunmap: search %s: registering %s: %w", app.Name(), topo.Name(), err)
	}
	rep := &SearchReport{
		App:         app.Name(),
		Topology:    topo.Name(),
		Seed:        res.Seed,
		Budget:      res.Budget,
		Evaluations: res.Evaluations,
		Accepted:    res.Accepted,
		Chains:      res.Chains,
		Routers:     best.Routers,
		Links:       2 * len(best.BiLinks),
		BiLinks:     best.BiLinks,
		Fitness:     best.Fitness,
		Best:        buildDesignReport(app, best.Evaluated),
	}
	if best.HasSurvivability {
		sv := best.Survivability
		rep.Survivability = &sv
	}
	return rep, nil
}

// Do executes one Request and always returns a Report: operation failures
// land in Report.Error/ErrorKind instead of propagating, panics are
// recovered into internal-error reports, and Request.TimeoutMS bounds the
// call. Do never panics on bad input — the isolation contract Batch and
// the serve layer rely on.
func (s *Session) Do(ctx context.Context, req Request) Report {
	return s.DoCheckpointed(ctx, req, nil)
}

// DoCheckpointed is Do with a checkpoint conduit for search operations:
// cp (optional) plumbs periodic annealing checkpoints and resume state
// through to SearchCheckpointed, and is ignored by every other op. It
// is the hook the serve layer's durable job runner executes through.
func (s *Session) DoCheckpointed(ctx context.Context, req Request, cp *SearchCheckpoints) (rep Report) {
	rep = Report{ID: req.ID, Op: req.Op}
	// Declared before the recover defer (LIFO), so the observed outcome
	// includes panics the recover turned into error reports.
	opStart := obs.Now()
	defer func() {
		op, ok := ops[req.Op]
		if !ok {
			return // unknown op: Validate already rejected it
		}
		op.seconds.ObserveSeconds(int64(obs.Since(opStart)))
		if rep.Error == "" {
			op.ok.Inc()
		} else {
			op.err.Inc()
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			rep.Error = fmt.Sprintf("panic: %v", r)
			rep.ErrorKind = ErrorKindInternal
		}
	}()
	if err := req.Validate(); err != nil {
		rep.Error = err.Error()
		rep.ErrorKind = ErrorKindBadRequest
		return rep
	}
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	if err := ops[req.Op].run(ctx, opCall{s, &req, &rep, cp}); err != nil {
		rep.Error = err.Error()
		rep.ErrorKind = classifyError(err)
	}
	return rep
}

// classifyError buckets an operation error into a wire-stable kind.
func classifyError(err error) string {
	switch {
	case errors.Is(err, ErrBadRequest), errors.Is(err, ErrUnknownApp), errors.Is(err, ErrUnknownTopology):
		return ErrorKindBadRequest
	case errors.Is(err, ErrInfeasible):
		return ErrorKindInfeasible
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return ErrorKindCanceled
	default:
		return ErrorKindInternal
	}
}

// Batch executes the requests concurrently on the session pool and
// returns one Report per Request, at the same index — result order is
// deterministic and, for deterministic operations, the reports are
// byte-identical across every parallelism setting. Requests are isolated
// from each other: one bad or panicking request yields an error Report
// without disturbing its neighbors. Cancelling ctx aborts in-flight
// evaluations; requests that never produced a report are marked canceled,
// and the context's error is returned alongside the partial results.
func (s *Session) Batch(ctx context.Context, reqs []Request) ([]Report, error) {
	reports := make([]Report, len(reqs))
	// No Limit: each request's own evaluations and fan-outs take the
	// session's slots, so Batch only bounds how many requests run at once.
	// Do turns its panics into error reports, so only cancellation fails
	// the fan-out.
	err := engine.Fan(ctx, len(reqs), engine.Options{Parallelism: s.parallelism}, func(_ context.Context, i int) error {
		reports[i] = s.Do(ctx, reqs[i])
		return nil
	})
	if err != nil {
		for i := range reports {
			if reports[i].Op == "" && reports[i].Error == "" {
				reports[i] = Report{
					ID: reqs[i].ID, Op: reqs[i].Op,
					Error:     err.Error(),
					ErrorKind: ErrorKindCanceled,
				}
			}
		}
		return reports, err
	}
	return reports, nil
}

// buildSelectReport lowers a core.Selection onto the wire schema: one
// row per mapped candidate, sorted by kind, then name (the layout of
// Fig. 6, Fig. 7b and Fig. 8c/d).
func buildSelectReport(app *graph.CoreGraph, sel *core.Selection) *SelectReport {
	rep := &SelectReport{
		App:         app.Name(),
		RoutingUsed: sel.RoutingUsed.String(),
		Candidates:  len(sel.Candidates),
	}
	mapped := make([]core.Candidate, 0, len(sel.Candidates))
	for _, c := range sel.Candidates {
		if c.Result != nil {
			mapped = append(mapped, c)
		}
	}
	sort.Slice(mapped, func(i, j int) bool {
		ti, tj := mapped[i].Topology, mapped[j].Topology
		if ti.Kind() != tj.Kind() {
			return ti.Kind() < tj.Kind()
		}
		return ti.Name() < tj.Name()
	})
	for _, c := range mapped {
		r := c.Result
		// NI links: direct topologies use one bidirectional core-switch
		// channel; indirect ones wire the core to both an ingress and an
		// egress switch, hence two.
		niLinks := len(r.Assign)
		if !r.Topology.Kind().Direct() {
			niLinks *= 2
		}
		row := TopologyRow{
			Topology:    r.Topology.Name(),
			Kind:        r.Topology.Kind().String(),
			AvgHops:     r.AvgHops,
			AreaMM2:     r.DesignAreaMM2,
			PowerMW:     r.PowerMW,
			Switches:    r.Topology.NumRouters(),
			Links:       topology.PhysicalLinks(r.Topology) + niLinks,
			MaxLoadMBps: r.Route.MaxLinkLoad,
			Feasible:    r.Feasible(),
		}
		row.Survivability = c.Survivability
		if row.Feasible {
			rep.Feasible++
		}
		if r.Topology.Kind() == topology.Synth {
			rep.Synthesized++
		}
		rep.Rows = append(rep.Rows, row)
	}
	if sel.Best != nil {
		rep.Topology = sel.Best.Topology.Name()
		rep.Best = buildDesignReport(app, sel.Best)
	}
	return rep
}

// buildDesignReport lowers a mapping result onto the wire schema.
func buildDesignReport(app *graph.CoreGraph, res *mapping.Result) *DesignReport {
	rep := &DesignReport{
		Topology:        res.Topology.Name(),
		AvgHops:         res.AvgHops,
		DesignAreaMM2:   res.DesignAreaMM2,
		ChipAreaMM2:     res.ChipAreaMM2,
		NetworkAreaMM2:  res.NetworkAreaMM2,
		PowerMW:         res.PowerMW,
		MaxLinkLoadMBps: res.Route.MaxLinkLoad,
		Cost:            res.Cost,
		BandwidthOK:     res.BandwidthOK,
		AreaOK:          res.AreaOK,
		AspectOK:        res.AspectOK,
		Feasible:        res.Feasible(),
		SwapsApplied:    res.SwapsApplied,
	}
	for c, term := range res.Assign {
		rep.Assign = append(rep.Assign, AssignRow{
			Core:     app.Core(c).Name,
			Terminal: term,
			Router:   res.Topology.InjectRouter(term),
		})
	}
	if fp := res.Floorplan; fp != nil {
		fpRep := &FloorplanReport{ChipWMM: fp.ChipWMM, ChipHMM: fp.ChipHMM}
		for _, b := range fp.Blocks {
			fpRep.Blocks = append(fpRep.Blocks, BlockRow{Name: b.Name, X: b.X, Y: b.Y, W: b.W, H: b.H})
		}
		sort.Slice(fpRep.Blocks, func(i, j int) bool { return fpRep.Blocks[i].Name < fpRep.Blocks[j].Name })
		rep.Floorplan = fpRep
	}
	return rep
}
