package core

import (
	"context"
	"fmt"
	"sort"

	"sunmap/internal/engine"
	"sunmap/internal/fault"
	"sunmap/internal/graph"
	"sunmap/internal/mapping"
	"sunmap/internal/route"
	"sunmap/internal/tech"
	"sunmap/internal/topology"
)

// RoutingSweepRow reports the minimum link bandwidth a routing function
// needs on one topology — the bars of Fig. 9(a).
type RoutingSweepRow struct {
	Function     route.Function
	RequiredMBps float64
	AvgHops      float64
}

// RoutingSweepContext maps the application onto topo once per routing
// function (DO, MP, SM, SA) and reports the resulting minimum required
// link bandwidth (the maximum link load of the optimized mapping). The
// mapping itself is re-optimized per function, as the tool does when the
// designer flips the routing input. It runs on the engine pool: the four routing
// functions evaluate concurrently (bounded by xo.Parallelism), reusing any
// design points already memoized in xo.Cache — e.g. by an escalated Select
// on the same application.
func RoutingSweepContext(ctx context.Context, app *graph.CoreGraph, topo topology.Topology, opts mapping.Options, xo engine.Options) ([]RoutingSweepRow, error) {
	jobs := make([]engine.Job, len(escalation))
	for i, fn := range escalation {
		o := opts
		o.Routing = fn
		jobs[i] = engine.Job{Topo: topo, Opts: o}
	}
	outcomes, err := engine.Evaluate(ctx, app, jobs, xo)
	if err != nil {
		return nil, err
	}
	rows := make([]RoutingSweepRow, 0, len(outcomes))
	for i, o := range outcomes {
		if o.Err != nil {
			return nil, fmt.Errorf("core: routing sweep %v: %w", escalation[i], o.Err)
		}
		res := o.Result
		rows = append(rows, RoutingSweepRow{
			Function:     escalation[i],
			RequiredMBps: res.Route.MaxLinkLoad,
			AvgHops:      res.AvgHops,
		})
	}
	return rows, nil
}

// ParetoPoint is one mapping in the area-power plane (Fig. 9b) —
// extended with a reliability axis when the exploration runs under a
// fault model.
type ParetoPoint struct {
	// Weights are the objective weights that produced the mapping.
	Weights mapping.Weights
	AreaMM2 float64
	PowerMW float64
	AvgHops float64
	// Survivability is the point's fault-sweep reliability score;
	// HasSurvivability marks that a fault model was active (so a genuine
	// 0 is distinguishable from "not evaluated").
	Survivability    float64
	HasSurvivability bool
	// Dominant marks points on the Pareto front: the (area, power)
	// plane normally, the (area, power, survivability) space when the
	// exploration ran under a fault model.
	Dominant bool
}

// ParetoExploreFault sweeps weighted delay/area/power objectives and
// switch buffer depths over one topology and returns the evaluated design
// points with the Pareto front marked — the exploration of Fig. 9(b).
// Steps controls the weight-grid resolution (default 5 per axis); buffer
// depths 2, 4 and 8 flits span the switch-configuration axis (deeper
// buffers cost area, shallower ones concentrate traffic onto fewer
// alternatives). It runs on the engine pool: every (weight vector, buffer
// depth) grid point is an independent evaluation, fanned out across
// xo.Parallelism workers and memoized in xo.Cache, so repeated
// explorations and overlapping grids stop re-mapping identical design
// points. Point order and front marking match the sequential path.
//
// Reliability is an optional third objective: when fm is non-nil every
// surviving design point carries its survivability under the fault model
// (degraded-mode rerouting sweep, see internal/fault) and the Pareto
// front is marked in the (area, power, survivability) space, so a
// designer reads off how much area or power buying fault tolerance
// costs. A nil fm gives the two-objective area-power exploration.
func ParetoExploreFault(ctx context.Context, app *graph.CoreGraph, topo topology.Topology, opts mapping.Options, steps int, fm *fault.Model, xo engine.Options) ([]ParetoPoint, error) {
	if steps < 2 {
		steps = 5
	}
	if opts.Tech.FlitBits == 0 {
		opts.Tech = tech.Tech100nm()
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
	outcomes, err := engine.Evaluate(ctx, app, jobs, xo)
	if err != nil {
		return nil, err
	}
	type candPoint struct {
		pt  ParetoPoint
		res *mapping.Result
	}
	cands := make([]candPoint, 0, len(outcomes))
	for i, o := range outcomes {
		if o.Err != nil {
			return nil, fmt.Errorf("core: pareto explore: %w", o.Err)
		}
		res := o.Result
		if !res.Feasible() {
			continue
		}
		cands = append(cands, candPoint{
			pt: ParetoPoint{
				Weights: jobs[i].Opts.Weights,
				AreaMM2: res.DesignAreaMM2,
				PowerMW: res.PowerMW,
				AvgHops: res.AvgHops,
			},
			res: res,
		})
	}
	// Different weight vectors often converge to the same mapping; keep
	// one representative per distinct (area, power, hops) point.
	sort.Slice(cands, func(i, j int) bool {
		pi, pj := cands[i].pt, cands[j].pt
		if pi.AreaMM2 != pj.AreaMM2 {
			return pi.AreaMM2 < pj.AreaMM2
		}
		if pi.PowerMW != pj.PowerMW {
			return pi.PowerMW < pj.PowerMW
		}
		return pi.AvgHops < pj.AvgHops
	})
	dedup := cands[:0]
	for _, c := range cands {
		if len(dedup) > 0 {
			q := dedup[len(dedup)-1].pt
			if nearly(c.pt.AreaMM2, q.AreaMM2) && nearly(c.pt.PowerMW, q.PowerMW) && nearly(c.pt.AvgHops, q.AvgHops) {
				continue
			}
		}
		dedup = append(dedup, c)
	}
	cands = dedup
	if fm != nil {
		// One survivability sweep per surviving (deduplicated) point,
		// fanned out on the engine pool. The degraded rerouting starts
		// from the grid's shared routing function, so every point is
		// judged under the same failure discipline.
		ropts := fault.Degraded(opts.RouteOptions())
		comms := app.Commodities()
		// One scenario set serves every point: the topology and model are
		// shared, so enumerate (or sample) once, outside the fan-out.
		scenarios, exhaustive, err := fault.Scenarios(topo, *fm)
		if err != nil {
			return nil, fmt.Errorf("core: pareto reliability: %w", err)
		}
		sweepers := engine.NewFree(fault.NewSweeper)
		err = engine.Fan(ctx, len(cands), xo, func(ctx context.Context, i int) error {
			sw := sweepers.Get()
			rep, err := sw.SweepContext(ctx, topo, cands[i].res.Assign, comms, ropts, scenarios, exhaustive, xo.Parallelism, xo.Limit)
			sweepers.Put(sw)
			if err != nil {
				return fmt.Errorf("core: pareto reliability: %w", err)
			}
			cands[i].pt.Survivability = rep.Survivability()
			cands[i].pt.HasSurvivability = true
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	pts := make([]ParetoPoint, len(cands))
	for i, c := range cands {
		pts[i] = c.pt
	}
	markPareto(pts)
	return pts, nil
}

func nearly(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= 1e-6*(1+maxAbs(a, b))
}

func maxAbs(a, b float64) float64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a > b {
		return a
	}
	return b
}

// markPareto flags the non-dominated points in the
// (area, power, survivability) space: j dominates i when it is no worse
// on all three axes (lower-or-equal area and power, higher-or-equal
// survivability) and strictly better on at least one. Without a fault
// model every survivability is 0, and this is dominance in the
// (area, power) plane.
func markPareto(pts []ParetoPoint) {
	const tol = 1e-9
	for i := range pts {
		dominated := false
		for j := range pts {
			if i == j {
				continue
			}
			if pts[j].AreaMM2 <= pts[i].AreaMM2+tol && pts[j].PowerMW <= pts[i].PowerMW+tol &&
				pts[j].Survivability >= pts[i].Survivability-tol &&
				(pts[j].AreaMM2 < pts[i].AreaMM2-tol || pts[j].PowerMW < pts[i].PowerMW-tol ||
					pts[j].Survivability > pts[i].Survivability+tol) {
				dominated = true
				break
			}
		}
		pts[i].Dominant = !dominated
	}
}

// ParetoFront filters the dominant points.
func ParetoFront(pts []ParetoPoint) []ParetoPoint {
	var out []ParetoPoint
	for _, p := range pts {
		if p.Dominant {
			out = append(out, p)
		}
	}
	return out
}
