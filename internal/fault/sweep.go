package fault

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"sunmap/internal/engine"
	"sunmap/internal/graph"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

// Degraded lowers the routing options a design was optimized under onto
// the degraded-mode discipline a survivability sweep reroutes with:
// single-path congestion-aware routing (MP) for the single-path
// functions — oblivious DO cannot route around a fault — and traffic
// splitting across all surviving paths (SA) for the splitting ones,
// since a fault may cut the minimum-hop DAG SM is confined to. The
// quadrant restriction is lifted (with links down, surviving paths need
// not stay inside it) and only load aggregates are collected; capacity
// and chunk granularity carry over unchanged.
func Degraded(o route.Options) route.Options {
	switch o.Function {
	case route.SplitMin, route.SplitAll:
		o.Function = route.SplitAll
	default:
		o.Function = route.MinPath
	}
	o.DisableQuadrant = true
	o.LoadsOnly = true
	o.DownLinks = nil
	return o
}

// Outcome is the rerouted state of one design under one failure
// scenario. The zero value is a disconnected outcome.
type Outcome struct {
	// Connected reports every commodity found a surviving route.
	Connected bool
	// Feasible reports the rerouted loads fit the link capacity
	// (always true for connected outcomes when capacity is
	// unconstrained).
	Feasible bool
	// MaxLinkLoadMBps is the rerouted maximum link load.
	MaxLinkLoadMBps float64
	// AvgHops is the rerouted bandwidth-weighted mean hop count.
	AvgHops float64
}

// Evaluator reroutes one mapped design around failure masks. It owns a
// route.Router plus mask and result buffers, so steady-state Eval calls
// on connected scenarios allocate nothing. An Evaluator is
// single-goroutine state; SweepContext hands each worker its own.
type Evaluator struct {
	topo   topology.Topology
	assign []int
	comms  []graph.Commodity
	opts   route.Options

	rt       *route.Router
	res      route.Result
	mask     []bool
	dead     []bool
	baseline Outcome
	// gen is the Sweeper sweep this evaluator is bound for.
	gen uint64
}

// NewEvaluator builds an evaluator for one design point and routes the
// fault-free baseline, validating that the assignment and commodities
// route at all under the (typically Degraded) options.
func NewEvaluator(topo topology.Topology, assign []int, comms []graph.Commodity, opts route.Options) (*Evaluator, error) {
	e := &Evaluator{rt: route.NewRouter()}
	if err := e.bind(topo, assign, comms, opts); err != nil {
		return nil, err
	}
	return e, nil
}

// bind retargets a warm evaluator at a design point, reusing its mask,
// assignment and routing buffers, and re-routes the fault-free baseline —
// the reuse primitive a Sweeper calls once per sweep.
func (e *Evaluator) bind(topo topology.Topology, assign []int, comms []graph.Commodity, opts route.Options) error {
	e.topo = topo
	e.assign = append(e.assign[:0], assign...)
	e.comms = comms
	e.opts = opts
	e.opts.LoadsOnly = true
	e.opts.DownLinks = nil
	e.mask = resizeBools(e.mask, len(topo.Links()))
	e.dead = resizeBools(e.dead, topo.NumRouters())
	base, err := e.eval(Scenario{})
	if err != nil {
		return fmt.Errorf("fault: baseline routing on %s: %w", topo.Name(), err)
	}
	e.baseline = base
	return nil
}

// resizeBools resizes buf to n without zeroing (eval clears the masks it
// uses on every call).
func resizeBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// Baseline returns the fault-free outcome the degradation metrics are
// measured against.
func (e *Evaluator) Baseline() Outcome { return e.baseline }

// Eval reroutes every commodity around the scenario's failure mask and
// returns the degraded outcome; scenarios that cut a commodity off come
// back with Connected unset.
//
//sunmap:hotpath
func (e *Evaluator) Eval(s Scenario) Outcome {
	out, _ := e.eval(s)
	return out
}

// errEndpointSevered marks a scenario whose failed switch hosts a
// commodity endpoint — disconnected by construction, no rerouting needed.
var errEndpointSevered = errors.New("fault: commodity endpoint switch failed")

// eval is Eval with the routing error preserved (NewEvaluator surfaces
// it for the baseline; fault scenarios fold it into a disconnected
// outcome, since "no surviving path" is a result, not a failure).
func (e *Evaluator) eval(s Scenario) (Outcome, error) {
	for i := range e.mask {
		e.mask[i] = false
	}
	for _, id := range s.Links {
		e.mask[id] = true
	}
	for i := range e.dead {
		e.dead[i] = false
	}
	for _, r := range s.Switches {
		e.dead[r] = true
	}
	// A failed switch severs its attached cores outright — no rerouting
	// can recover a commodity whose endpoint router is gone. The error is
	// a shared sentinel: switch-failure sweeps hit this branch for a large
	// share of scenarios, and the steady-state loop must not allocate.
	if len(s.Switches) > 0 {
		for _, c := range e.comms {
			if e.dead[e.topo.InjectRouter(e.assign[c.Src])] || e.dead[e.topo.EjectRouter(e.assign[c.Dst])] {
				return Outcome{}, errEndpointSevered
			}
		}
	}
	opts := e.opts
	opts.DownLinks = e.mask
	if err := e.rt.RouteInto(&e.res, e.topo, e.assign, e.comms, opts); err != nil {
		return Outcome{}, err
	}
	return Outcome{
		Connected:       true,
		Feasible:        e.res.Feasible,
		MaxLinkLoadMBps: e.res.MaxLinkLoad,
		AvgHops:         e.res.AvgHops(),
	}, nil
}

// Report aggregates a sweep over one design point's failure scenarios.
type Report struct {
	// Scenarios is the evaluated scenario count; Exhaustive marks a
	// complete k-subset enumeration (vs a Monte Carlo draw).
	Scenarios  int
	Exhaustive bool
	// Connected counts scenarios under which every commodity still
	// routes; Feasible counts those additionally within link capacity.
	Connected int
	Feasible  int
	// Baseline is the fault-free outcome under the same (degraded)
	// routing options, the yardstick for the degradation metrics below.
	Baseline Outcome
	// Worst-case and expected degradation over the connected scenarios
	// (disconnected scenarios have no meaningful loads; their share is
	// visible through Connected/Scenarios instead).
	WorstMaxLinkLoadMBps float64
	ExpMaxLinkLoadMBps   float64
	WorstAvgHops         float64
	ExpAvgHops           float64
	// WorstCase is the connected scenario with the highest rerouted max
	// link load (first in enumeration order on ties); Disconnecting is
	// the first scenario that cut a commodity off, nil when none did.
	WorstCase     Scenario
	Disconnecting *Scenario
}

// Survivability is the fraction of scenarios the design survives:
// connected and bandwidth-feasible. It is the reliability score
// selection and Pareto exploration consume.
func (r *Report) Survivability() float64 {
	if r.Scenarios == 0 {
		return 1
	}
	return float64(r.Feasible) / float64(r.Scenarios)
}

// ConnectedFrac is the fraction of scenarios with every commodity still
// routable, ignoring the capacity check.
func (r *Report) ConnectedFrac() float64 {
	if r.Scenarios == 0 {
		return 1
	}
	return float64(r.Connected) / float64(r.Scenarios)
}

// SweepContext evaluates every failure scenario of one design point and
// folds the outcomes into a Report; see (*Sweeper).SweepContext for the
// admission and determinism contract. Callers sweeping many design
// points should hold a Sweeper instead and reuse its buffers.
func SweepContext(ctx context.Context, topo topology.Topology, assign []int, comms []graph.Commodity, opts route.Options, scenarios []Scenario, exhaustive bool, parallelism int, limit *engine.Limiter) (*Report, error) {
	return NewSweeper().SweepContext(ctx, topo, assign, comms, opts, scenarios, exhaustive, parallelism, limit)
}

// Sweeper owns the reusable state of repeated survivability sweeps: a
// free list of Evaluators (one per worker at the sweeps' peak
// parallelism), the index-addressed outcome buffer and the index buffers
// that group repeated scenarios. Once warm, a sequential sweep's steady
// state allocates only the Report it returns and the fan-out's
// bookkeeping (plus the rare disconnected-by-link reroute error). A
// Sweeper runs one sweep at a time; SweepContext hands each of its
// workers an Evaluator of its own.
type Sweeper struct {
	evs *engine.Free[Evaluator]
	// gen numbers the sweeps; an Evaluator whose gen differs is still
	// bound to an earlier design point and is rebound before use.
	gen      uint64
	outcomes []Outcome
	// first[i] is the lowest index of a scenario equal to scenarios[i];
	// distinct lists the indices i with first[i] == i in ascending
	// order, the only scenarios a sweep evaluates.
	first    []int
	distinct []int
}

// sweepUnit is how many distinct scenarios one Fan unit evaluates: a
// reroute takes microseconds, so single-scenario units would spend a
// measurable share of the sweep claiming units and evaluators.
const sweepUnit = 8

// NewSweeper returns an empty Sweeper; buffers grow on first use.
func NewSweeper() *Sweeper {
	return &Sweeper{evs: engine.NewFree(func() *Evaluator { return &Evaluator{rt: route.NewRouter()} })}
}

// SweepContext evaluates every failure scenario of one design point and
// folds the outcomes into a Report.
//
// Eval is a pure function of the scenario's (Links, Switches) lists, so
// each distinct scenario is evaluated once: Monte Carlo draws are
// independent and repeat, and a k=2 "both" pair of a switch with one of
// its own channels masks the same links as every other such pair. The
// outcome of a group's first scenario is copied to its repeats before
// the fold, which still walks every scenario in enumeration order, so
// the Report (scenario counts, sums, WorstCase and Disconnecting) is
// exactly what evaluating each scenario would give.
//
// The distinct scenarios, sweepUnit at a time, are the units of one
// engine.Fan on up to parallelism workers (0 selects GOMAXPROCS) under
// limit, so a top-level sweep queues for its slots and a sweep nested in
// a unit that holds a slot works inline and borrows idle ones (see
// engine.Fan). Outcomes are index-addressed and folded sequentially, so
// the report is byte-identical at every parallelism setting. ctx aborts
// the sweep between units.
func (sw *Sweeper) SweepContext(ctx context.Context, topo topology.Topology, assign []int, comms []graph.Commodity, opts route.Options, scenarios []Scenario, exhaustive bool, parallelism int, limit *engine.Limiter) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Bind one evaluator up front: it validates that the design routes
	// at all and supplies the baseline.
	sw.gen++
	ev := sw.evs.Get()
	if err := ev.bind(topo, assign, comms, opts); err != nil {
		sw.evs.Put(ev)
		return nil, err
	}
	ev.gen = sw.gen
	baseline := ev.Baseline()
	sw.evs.Put(ev)
	if cap(sw.outcomes) < len(scenarios) {
		sw.outcomes = make([]Outcome, len(scenarios))
	}
	outcomes := sw.outcomes[:len(scenarios)]
	distinct := sw.group(scenarios)
	units := (len(distinct) + sweepUnit - 1) / sweepUnit
	err := engine.Fan(ctx, units, engine.Options{Parallelism: parallelism, Limit: limit}, func(_ context.Context, u int) error {
		ev := sw.evs.Get()
		defer sw.evs.Put(ev)
		if ev.gen != sw.gen {
			// The first evaluator already routed this baseline, so a
			// failure here would be that same deterministic error.
			if err := ev.bind(topo, assign, comms, opts); err != nil {
				return err
			}
			ev.gen = sw.gen
		}
		for _, i := range distinct[u*sweepUnit : min((u+1)*sweepUnit, len(distinct))] {
			outcomes[i] = ev.Eval(scenarios[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, f := range sw.first {
		outcomes[i] = outcomes[f]
	}
	return fold(baseline, scenarios, outcomes, exhaustive), nil
}

// group fills sw.first and sw.distinct for a scenario set and returns
// the distinct indices. The builder keeps both lists of a scenario
// sorted, so equal masks have equal lists: a stable sort of the indices
// puts every group together with its lowest index first.
func (sw *Sweeper) group(scenarios []Scenario) []int {
	n := len(scenarios)
	if cap(sw.first) < n {
		sw.first = make([]int, n)
		sw.distinct = make([]int, n)
	}
	first, order := sw.first[:n], sw.distinct[:n]
	for i := range order {
		order[i] = i
	}
	cmp := func(a, b int) int {
		if c := slices.Compare(scenarios[a].Links, scenarios[b].Links); c != 0 {
			return c
		}
		return slices.Compare(scenarios[a].Switches, scenarios[b].Switches)
	}
	slices.SortStableFunc(order, cmp)
	for k, i := range order {
		if k > 0 && cmp(order[k-1], i) == 0 {
			first[i] = first[order[k-1]]
		} else {
			first[i] = i
		}
	}
	distinct := order[:0]
	for i, f := range first {
		if f == i {
			distinct = append(distinct, i)
		}
	}
	sw.first, sw.distinct = first, distinct
	return distinct
}

// fold aggregates per-scenario outcomes in scenario order, so the
// floating-point sums never depend on worker scheduling. The scenarios
// quoted in the report (WorstCase, Disconnecting) are copied out of the
// scenario set's shared arenas, so a Report stays valid however its
// producer reuses them.
func fold(baseline Outcome, scenarios []Scenario, outcomes []Outcome, exhaustive bool) *Report {
	rep := &Report{Scenarios: len(scenarios), Exhaustive: exhaustive, Baseline: baseline}
	worst := -1
	for i, o := range outcomes {
		if !o.Connected {
			if rep.Disconnecting == nil {
				s := ownScenario(scenarios[i])
				rep.Disconnecting = &s
			}
			continue
		}
		rep.Connected++
		if o.Feasible {
			rep.Feasible++
		}
		rep.ExpMaxLinkLoadMBps += o.MaxLinkLoadMBps
		rep.ExpAvgHops += o.AvgHops
		if worst == -1 || o.MaxLinkLoadMBps > rep.WorstMaxLinkLoadMBps {
			rep.WorstMaxLinkLoadMBps = o.MaxLinkLoadMBps
			worst = i
		}
		if o.AvgHops > rep.WorstAvgHops {
			rep.WorstAvgHops = o.AvgHops
		}
	}
	if rep.Connected > 0 {
		rep.ExpMaxLinkLoadMBps /= float64(rep.Connected)
		rep.ExpAvgHops /= float64(rep.Connected)
	}
	if worst >= 0 {
		rep.WorstCase = ownScenario(scenarios[worst])
	}
	return rep
}

// ownScenario deep-copies a scenario out of its arena.
func ownScenario(s Scenario) Scenario {
	return Scenario{
		Links:    append([]int(nil), s.Links...),
		Switches: append([]int(nil), s.Switches...),
	}
}
