// Incremental swap evaluation.
//
// The reference sweep evaluates a candidate swap by re-routing every
// commodity from scratch and re-running the whole area/power cost model.
// The incremental evaluator in this file produces *bit-identical* results
// while doing a small fraction of that work. Three facts make this possible:
//
//  1. Routing is a deterministic function of its visible inputs. A
//     commodity's path depends only on its terminal pair and — for the
//     congestion-aware MinPath function — on the link loads inside its
//     quadrant at its position in the fixed decreasing-bandwidth order.
//     When a candidate evaluation replays commodities in that order, any
//     commodity whose endpoints did not move and whose quadrant contains
//     no link where the candidate's load history diverged from the
//     baseline's would run Dijkstra over identical weights and produce the
//     identical path, so its cached baseline path is spliced in instead.
//     Divergence ("dirty" links) only arises from commodities that were
//     actually re-routed onto a different path, which a swap keeps local.
//     Dimension-ordered paths read no loads at all, so only the moved
//     commodities ever re-route. The splitting functions splice at the
//     whole-commodity granularity: a commodity's chunk decomposition is a
//     deterministic function of the loads it can read (the minimum-hop
//     DAG's arcs for SM, everything for SA), so when none of those
//     diverged, the recorded merged-path/chunk structure is replayed with
//     the identical add/undo/commit arithmetic.
//
//  2. The scalar cost folds are replayed, not patched. Candidate link and
//     router loads are rebuilt in commodity order into reusable arrays
//     (bitwise equal to a from-scratch route because each element sees the
//     same additions in the same order), and the area/power aggregation
//     then runs the very same loops over them — same functions, same
//     iteration order, so the floats match to the last ulp and every swap
//     accept/reject decision lands exactly as the reference's would.
//     Assignment-independent terms (estimated link lengths and their
//     wiring area, total core area, NI hookup power) are computed once per
//     Map call; they are constants of the replayed expressions, not
//     approximations, so no drift can accumulate and no periodic full
//     re-evaluation is needed.
//
//  3. Most candidates are rejected without being evaluated to the end.
//     A verdict depends only on the assignment and the current cost, so
//     the sweep leaves out work whose outcome is certain. It stops once
//     a full cycle of terminal pairs has passed since the last accepted
//     swap: the reference would reject the rest of that pass and stop.
//     It skips a swap between two terminals on the same inject and eject
//     routers (the terminals of one Clos or butterfly edge switch): under
//     the load-aware functions that candidate is bitwise the current
//     design. DO is excluded, since Clos DO picks the middle switch from
//     the terminal IDs. And it abandons a candidate as soon as a
//     certified lower bound on its objective clears the current cost
//     (see lowerBound), before any routing or part-way through it.
//
// Everything the evaluator touches lives in a Scratch so steady-state
// candidate evaluation allocates nothing (BenchmarkMap/swap-eval asserts
// 0 allocs/op).
package mapping

import (
	"context"
	"math"
	"slices"

	"sunmap/internal/area"
	"sunmap/internal/floorplan"
	"sunmap/internal/graph"
	"sunmap/internal/power"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

// Scratch holds the reusable state of one mapping worker: the routing
// solver, the incremental evaluator's load arrays, path buffers,
// switch-config scratch and work counters, the greedy-placement and
// occupancy buffers, and the full-evaluation workspace (a routing Result
// plus the floorplanner's LP workspace) used by every non-incremental
// cost evaluation — the final exact evaluation of each Map call, the
// reference sweep, and the LP-in-the-loop mode. Buffers are bound to a
// topology per Map call and regrown as needed, so one Scratch serves an
// entire library sweep. It is single-goroutine state: give each worker
// its own (internal/engine pools them via internal/pool.Free).
type Scratch struct {
	rt  *route.Router
	inc incState
	fp  *floorplan.Planner

	// Greedy placement / sweep occupancy buffers.
	assign, occupant []int
	greedyFree       []bool

	// Full-evaluation scratch: the routing result every ev.cost call
	// accumulates into (cloned before escaping) and the switch-area list
	// fed to the floorplanner.
	evalRes route.Result
	swAreas []float64
}

// workCounts are the incremental sweep's work counters. Every candidate
// the reference sweep would evaluate lands in exactly one of the first
// four. The counts depend only on the inputs, never on timing.
type workCounts struct {
	evaluated   int // candidates evaluated to the end
	prunedEarly int // rejected by the bound before any routing
	prunedMid   int // rejected by the bound part-way through routing
	skipped     int // never evaluated: after convergence, or router-equivalent
	rerouted    int // commodities routed rather than spliced
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch {
	return &Scratch{rt: route.NewRouter(), fp: floorplan.NewPlanner()}
}

// incState is the incremental candidate evaluator.
type incState struct {
	ev    *evaluator
	rt    *route.Router
	topo  topology.Topology
	comms []graph.Commodity
	links []topology.Link

	oblivious     bool // DO: paths are load-independent
	loadSensitive bool // MP: paths read link loads inside the quadrant
	splitMin      bool // SM: chunk paths read loads on the min-hop DAG
	splitAll      bool // SA: chunk paths read loads anywhere
	effChunks     int  // splitting granularity after defaulting

	// Assignment-independent constants of the cost model.
	cores     []graph.Core
	linkLens  []float64
	linkMW    []float64 // power per MB/s on each link
	linkArea  float64
	coreArea  float64
	niMW      float64
	totalMBps float64

	// bounded reports that lowerBound is certified for this objective;
	// needHops and needPower say which of its terms the objective reads.
	bounded, needHops, needPower bool

	// Per-candidate terms fixed by the assignment before any routing:
	// the switch configs, the in-loop areas and each router's power per
	// MB/s.
	cfgs        []area.SwitchConfig
	networkArea float64
	designArea  float64
	routerMW    []float64

	// Running bound state of the candidate being evaluated:
	// hopSuffix[k] and powerSuffix[k] are the least hop sum and power
	// commodities k.. can add (see lowerBound), maxLoad the largest link
	// load routed so far and powerMW the power of the commodities routed
	// so far.
	hopSuffix   []float64
	powerSuffix []float64
	maxLoad     float64
	powerMW     float64

	// Baseline: the routed structure of every commodity under the
	// currently accepted assignment.
	base []flowRec

	// Candidate scratch, rebuilt by every eval call.
	res         route.Result // loads + hop/total aggregates
	cand        []flowRec
	reroutedIDs []int
	dirtyMark   []int
	dirtyIDs    []int
	dirtyEpoch  int
	scratchEval evalResult

	// work sums the sweep's work over every Map call on this Scratch.
	work workCounts
}

// sweepIncremental runs the pairwise-swap improvement with the incremental
// evaluator. It makes the reference sweep's accept/reject decision on
// every pair it visits and stops in the same state; it only leaves out
// candidates whose rejection is certain (see the file comment).
func sweepIncremental(ctx context.Context, ev *evaluator, assign, occupant []int, sc *Scratch) (int, error) {
	st := &sc.inc
	st.bind(ev, sc.rt)
	baseCost, _, err := st.eval(assign, -1, -1, true, math.Inf(1))
	if err != nil {
		return 0, err
	}
	st.promote()
	ev.norm = baseCost.raw // normalize weighted objectives by the seed mapping
	curCost := ev.objective(baseCost)
	topo := ev.topo
	numT := topo.NumTerminals()
	// since counts pair visits since the last accepted swap. Once it
	// covers every pair, each candidate has been rejected under the
	// current (assignment, cost), so the reference would reject the rest
	// of this pass and stop.
	pairs, since, swaps := numT*(numT-1)/2, 0, 0
	for pass := 0; pass < ev.opts.SwapPasses; pass++ {
		for a := 0; a < numT; a++ {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			for b := a + 1; b < numT; b++ {
				since++
				switch {
				case occupant[a] == -1 && occupant[b] == -1:
				case !st.oblivious && topo.InjectRouter(a) == topo.InjectRouter(b) &&
					topo.EjectRouter(a) == topo.EjectRouter(b):
					st.work.skipped++
				default:
					bound := math.Inf(1)
					if st.bounded {
						bound = curCost
					}
					ca, cb := occupant[a], occupant[b] // the cores about to move
					swapTerminals(assign, occupant, a, b)
					cand, pruned, err := st.eval(assign, ca, cb, false, bound)
					if err != nil {
						return 0, err
					}
					if !pruned {
						st.work.evaluated++
						if c := ev.objective(cand); c < curCost-1e-12 {
							curCost = c
							swaps++
							since = 0
							st.promote()
							continue
						}
					}
					swapTerminals(assign, occupant, a, b) // undo
				}
				if since == pairs {
					st.work.skipped += candidatesAfter(occupant, a, b)
					return swaps, nil
				}
			}
		}
	}
	return swaps, nil
}

// candidatesAfter counts the candidates a pass visits after pair (a, b):
// the pairs with at least one occupied terminal.
func candidatesAfter(occupant []int, a, b int) int {
	n := 0
	for x := a; x < len(occupant); x++ {
		y := x + 1
		if x == a {
			y = b + 1
		}
		for ; y < len(occupant); y++ {
			if occupant[x] != -1 || occupant[y] != -1 {
				n++
			}
		}
	}
	return n
}

// bind attaches the evaluator state to one Map call, resizing buffers and
// precomputing the assignment-independent cost-model terms.
func (st *incState) bind(ev *evaluator, rt *route.Router) {
	st.ev = ev
	st.rt = rt
	st.topo = ev.topo
	st.comms = ev.comms
	st.links = ev.topo.Links()
	rt.Bind(ev.topo)

	opts := ev.opts
	fn := opts.Routing
	st.oblivious = fn == route.DimensionOrdered
	st.loadSensitive = fn == route.MinPath
	st.splitMin = fn == route.SplitMin
	st.splitAll = fn == route.SplitAll
	st.effChunks = opts.Chunks
	if st.effChunks <= 0 {
		st.effChunks = route.DefaultChunks
	}

	st.cores = ev.coreList()
	// Estimated link lengths depend only on the topology template and the
	// application's average core pitch — not on the assignment — so the
	// in-loop wiring-area term is a per-Map constant.
	st.linkLens, _ = floorplan.EstimateLinkLengthsMM(st.topo, nil, st.cores, opts.Floorplan)
	st.linkArea = area.LinkAreaMM2(st.linkLens, opts.Tech)
	st.coreArea = ev.g.TotalCoreAreaMM2()
	st.niMW = ev.niHookupMW(st.cores)
	st.totalMBps = 0
	for _, c := range st.comms {
		st.totalMBps += c.ValueMBps
	}

	// The bound needs a non-negative, monotone score: negative (or NaN)
	// weights turn it off, and internal callers reach here without
	// request validation.
	w := opts.Weights
	st.bounded = st.totalMBps > 0 &&
		(opts.Objective != Weighted || w.Delay >= 0 && w.Area >= 0 && w.Power >= 0)
	st.needHops = opts.Objective == MinDelay || opts.Objective == Weighted && w.Delay != 0
	st.needPower = opts.Objective == MinPower || opts.Objective == Weighted && w.Power != 0
	if st.needPower {
		st.linkMW = resizeFloats(st.linkMW, len(st.links))
		for i, l := range st.linkLens {
			st.linkMW[i] = power.LinkBitEnergyPJ(l, opts.Tech) * power.MWPerMBpsPJ
		}
	}

	m := len(st.comms)
	st.base = resizeRecs(st.base, m)
	st.cand = resizeRecs(st.cand, m)
	st.reroutedIDs = st.reroutedIDs[:0]

	l, r := len(st.links), st.topo.NumRouters()
	st.dirtyMark = resizeInts(st.dirtyMark, l)
	st.dirtyIDs = st.dirtyIDs[:0]
	st.dirtyEpoch = 0
	if cap(st.cfgs) < r {
		st.cfgs = make([]area.SwitchConfig, r)
	}
	st.cfgs = st.cfgs[:r]
	st.routerMW = resizeFloats(st.routerMW, r)
	st.hopSuffix = resizeFloats(st.hopSuffix, m+1)
	st.powerSuffix = resizeFloats(st.powerSuffix, m+1)
}

// pruneSlack is the relative safety margin of the prune: a candidate is
// abandoned only when its certified lower bound clears the current cost
// by this margin. The bound and the objective sum the same non-negative
// terms in different orders, so they can differ by float rounding; this
// margin exceeds that by several orders of magnitude. The equivalence
// suite (incremental vs reference, which never prunes) is the regression
// gate on this reasoning.
const pruneSlack = 1e-10

// lowerBound returns a certified lower bound on the objective of every
// completion of the candidate after commodity k-1. Each term of the
// objective is bounded by what is known so far:
//   - hops: the routed hop sum plus every remaining commodity's minimum
//     hop count (hopSuffix);
//   - area: exact, since the in-loop area depends only on the
//     assignment;
//   - power: the power of the commodities routed so far, a partial sum of
//     non-negative loads times fixed bit energies, plus every remaining
//     commodity's flow through its inject and eject switches, which each
//     of its paths crosses (powerSuffix);
//   - the load-balance tie-break and the overload penalty: link loads
//     only grow at commodity boundaries, so the largest load so far and
//     the overload of the current loads are below the final ones.
//
// score and penalized are monotone in each of these, so no completion can
// score below the returned value. The full overload scan runs only once
// some load has crossed the capacity; until then the penalty is exactly
// 0.
func (st *incState) lowerBound(res *route.Result, k int) float64 {
	raw := rawMetrics{areaMM2: st.designArea}
	if st.needHops {
		raw.hops = (res.HopSumMBps + st.hopSuffix[k]) / st.totalMBps
	}
	if st.needPower {
		raw.powerMW = st.powerMW + st.powerSuffix[k] + st.niMW
	}
	var loads []float64
	if limit := st.ev.opts.CapacityMBps; limit > 0 && st.maxLoad > limit {
		loads = res.LinkLoads
	}
	return st.ev.penalized(st.ev.score(raw), st.maxLoad, st.totalMBps, loads)
}

// account folds commodity c's routing record, already applied to loads,
// into the running bound state: the largest load on its links and, when
// the objective reads power, its switch and link power.
func (st *incState) account(loads []float64, c graph.Commodity, rec *flowRec) {
	for i := 0; i < rec.n; i++ {
		for _, id := range rec.arcs[i] {
			st.maxLoad = max(st.maxLoad, loads[id])
		}
		if !st.needPower {
			continue
		}
		var mw float64
		for _, id := range rec.arcs[i] {
			mw += st.linkMW[id]
		}
		for _, r := range rec.verts[i] {
			mw += st.routerMW[r]
		}
		frac := 1.0
		if rec.split {
			frac = rec.fracs[i]
		}
		st.powerMW += c.ValueMBps * frac * mw
	}
}

// eval evaluates the current assignment. ca and cb are the cores the
// preceding swap moved (-1 when a terminal was free); all forces a full
// re-route of every commodity. The returned evalResult is scratch, valid
// until the next eval call.
//
// bound enables pruning: when finite (the sweep passes the current cost
// if the objective is bounded), the evaluation is abandoned — pruned=true,
// nil result — as soon as lowerBound shows the candidate cannot beat
// bound. A pruned candidate is exactly one the reference sweep would have
// evaluated and rejected.
//
//sunmap:hotpath
func (st *incState) eval(assign []int, ca, cb int, all bool, bound float64) (e *evalResult, pruned bool, err error) {
	opts := st.ev.opts
	t := opts.Tech
	// The switch configs and the in-loop area depend only on the
	// assignment: compute them before any routing.
	area.SwitchConfigsInto(st.cfgs, st.topo, assign, t)
	var swArea float64
	for _, c := range st.cfgs {
		swArea += area.SwitchAreaMM2(c, t)
	}
	st.networkArea = swArea + st.linkArea
	st.designArea = st.coreArea + st.networkArea

	res := &st.res
	res.Reset(len(st.links), st.topo.NumRouters())
	prune := !math.IsInf(bound, 1)
	if prune {
		st.maxLoad, st.powerMW = 0, 0
		if st.needHops {
			m := len(st.comms)
			st.hopSuffix[m] = 0
			for k := m - 1; k >= 0; k-- {
				c := st.comms[k]
				st.hopSuffix[k] = st.hopSuffix[k+1] +
					c.ValueMBps*float64(st.topo.MinHops(assign[c.Src], assign[c.Dst]))
			}
		}
		if st.needPower {
			for r, c := range st.cfgs {
				st.routerMW[r] = power.SwitchBitEnergyPJ(c, t) * power.MWPerMBpsPJ
			}
			m := len(st.comms)
			st.powerSuffix[m] = 0
			for k := m - 1; k >= 0; k-- {
				c := st.comms[k]
				src, dst := st.topo.InjectRouter(assign[c.Src]), st.topo.EjectRouter(assign[c.Dst])
				mw := st.routerMW[src]
				if dst != src {
					mw += st.routerMW[dst]
				}
				st.powerSuffix[k] = st.powerSuffix[k+1] + c.ValueMBps*mw
			}
		}
		if st.lowerBound(res, 0)*(1-pruneSlack) >= bound {
			st.work.prunedEarly++
			return nil, true, nil
		}
	}
	st.dirtyEpoch++
	st.dirtyIDs = st.dirtyIDs[:0]
	st.reroutedIDs = st.reroutedIDs[:0]

	for k := range st.comms {
		c := st.comms[k]
		reroute := all || c.Src == ca || c.Dst == ca || c.Src == cb || c.Dst == cb
		if !reroute && len(st.dirtyIDs) > 0 {
			// Re-route when a diverged link is one this commodity's
			// search could read a weight from; links outside that region
			// cannot influence the (deterministic) search, so the cached
			// record is provably what a fresh run would produce.
			switch {
			case st.oblivious:
				// DO paths read no loads at all.
			case st.loadSensitive:
				reroute = st.dirtyVisible(st.rt.Quadrant(assign[c.Src], assign[c.Dst]))
			case st.splitMin:
				reroute = st.dirtyOnDAG(st.rt.MinHopDAG(assign[c.Src], assign[c.Dst]))
			case st.splitAll:
				reroute = true
			}
		}
		rec := &st.base[k]
		if reroute {
			rec = &st.cand[k]
			if err := st.reroute(res, assign, c, rec); err != nil {
				return nil, false, err
			}
			st.work.rerouted++
			st.reroutedIDs = append(st.reroutedIDs, k) //sunmap:alloc amortized rerouted-ID scratch growth, reset per eval
			if !all && !st.oblivious && !recEqual(rec, &st.base[k]) {
				// The candidate's load history now differs from the
				// baseline's on the symmetric difference of the two
				// records' arcs; marking the union is a conservative
				// superset.
				st.markRecDirty(&st.base[k])
				st.markRecDirty(rec)
			}
		} else {
			st.applyRec(res, c, rec)
		}
		if prune {
			st.account(res.LinkLoads, c, rec)
			if st.lowerBound(res, k+1)*(1-pruneSlack) >= bound {
				st.work.prunedMid++
				return nil, true, nil
			}
		}
	}
	route.FinalizeLoads(res, opts.CapacityMBps)
	e, err = st.buildEval()
	return e, false, err
}

// reroute routes commodity c under assign into res and records its
// routing in rec.
func (st *incState) reroute(res *route.Result, assign []int, c graph.Commodity, rec *flowRec) error {
	srcT, dstT := assign[c.Src], assign[c.Dst]
	if st.splitMin || st.splitAll {
		return st.rerouteSplit(res, srcT, dstT, c, rec)
	}
	var verts, arcs []int
	var err error
	if st.oblivious {
		verts, arcs, err = st.rt.PathDO(srcT, dstT, c)
	} else {
		verts, arcs, err = st.rt.PathMP(srcT, dstT, c, res.LinkLoads, true)
	}
	if err != nil {
		return err
	}
	rec.setSingle(verts, arcs)
	st.applySingle(res, c, verts, arcs)
	return nil
}

// rerouteSplit routes one split commodity through the scratch router
// (which applies every aggregate itself) and copies the merged structure
// into rec.
func (st *incState) rerouteSplit(res *route.Result, srcT, dstT int, c graph.Commodity, rec *flowRec) error {
	n, err := st.rt.RouteSplitOne(res, srcT, dstT, c, st.effChunks, st.splitMin)
	if err != nil {
		return err
	}
	rec.split = true
	rec.n = n
	rec.verts = resizePathBufs(rec.verts, n)
	rec.arcs = resizePathBufs(rec.arcs, n)
	if cap(rec.fracs) < n {
		rec.fracs = make([]float64, n) //sunmap:alloc first-use growth of split-fraction buffer, kept on the record for reuse
	}
	rec.fracs = rec.fracs[:n]
	for i := 0; i < n; i++ {
		v, a, f := st.rt.SplitPath(i)
		rec.verts[i] = append(rec.verts[i][:0], v...)
		rec.arcs[i] = append(rec.arcs[i][:0], a...)
		rec.fracs[i] = f
	}
	rec.chunkAcc = append(rec.chunkAcc[:0], st.rt.SplitChunkAcc()...)
	return nil
}

// promote adopts the records of the just-evaluated (accepted) candidate
// as the new baseline by swapping buffers — no copies.
func (st *incState) promote() {
	for _, k := range st.reroutedIDs {
		st.base[k], st.cand[k] = st.cand[k], st.base[k]
	}
}

// applyRec replays a commodity's recorded routing into the candidate
// aggregates.
func (st *incState) applyRec(res *route.Result, c graph.Commodity, rec *flowRec) {
	if !rec.split {
		st.applySingle(res, c, rec.verts[0], rec.arcs[0])
		return
	}
	// Replicate routeSplit's arithmetic: per-chunk load application (so
	// every += lands in the same order with the same operand), the
	// per-merged-path undo, then the commit fold.
	frac := 1.0 / float64(st.effChunks)
	for _, ai := range rec.chunkAcc {
		bw := c.ValueMBps * frac
		for _, id := range rec.arcs[ai] {
			res.LinkLoads[id] += bw
		}
	}
	for i := 0; i < rec.n; i++ {
		bw := c.ValueMBps * rec.fracs[i]
		for _, id := range rec.arcs[i] {
			res.LinkLoads[id] -= bw
		}
	}
	for i := 0; i < rec.n; i++ {
		bw := c.ValueMBps * rec.fracs[i]
		for _, id := range rec.arcs[i] {
			res.LinkLoads[id] += bw
		}
		for _, r := range rec.verts[i] {
			res.RouterLoads[r] += bw
		}
		res.HopSumMBps += bw * float64(len(rec.verts[i]))
		res.TotalMBps += bw
	}
}

// applySingle folds one whole-commodity path into the candidate
// aggregates with exactly the arithmetic (and order) of route's commit.
func (st *incState) applySingle(res *route.Result, c graph.Commodity, verts, arcs []int) {
	bw := c.ValueMBps * 1.0
	for _, id := range arcs {
		res.LinkLoads[id] += bw
	}
	for _, r := range verts {
		res.RouterLoads[r] += bw
	}
	res.HopSumMBps += bw * float64(len(verts))
	res.TotalMBps += bw
}

// dirtyVisible reports whether any diverged link is inside the quadrant
// mask (both endpoints allowed — the superset of arcs a restricted
// Dijkstra can query).
func (st *incState) dirtyVisible(mask []bool) bool {
	for _, id := range st.dirtyIDs {
		l := st.links[id]
		if mask == nil || (mask[l.From] && mask[l.To]) {
			return true
		}
	}
	return false
}

// dirtyOnDAG reports whether any diverged link lies on the commodity's
// minimum-hop DAG — the only arcs an SM chunk search reads loads from.
func (st *incState) dirtyOnDAG(dag []bool) bool {
	for _, id := range st.dirtyIDs {
		if dag[id] {
			return true
		}
	}
	return false
}

// markRecDirty records a routing record's links as diverged,
// deduplicated by an epoch stamp.
func (st *incState) markRecDirty(rec *flowRec) {
	for i := 0; i < rec.n; i++ {
		for _, id := range rec.arcs[i] {
			if st.dirtyMark[id] != st.dirtyEpoch {
				st.dirtyMark[id] = st.dirtyEpoch
				st.dirtyIDs = append(st.dirtyIDs, id) //sunmap:alloc amortized dirty-ID scratch growth, reset per eval epoch
			}
		}
	}
}

// buildEval replays the in-loop cost model over the candidate loads: the
// switch configs and areas eval computed, and the same power fold as
// ev.cost runs, over the same element order, with the per-Map constants
// substituted for the assignment-independent terms. The result is
// bitwise equal to ev.cost(assign, nil)'s metrics.
func (st *incState) buildEval() (*evalResult, error) {
	bk, err := power.NetworkPowerBreakdown(st.cfgs, st.res.RouterLoads, st.res.LinkLoads, st.linkLens, st.ev.opts.Tech)
	if err != nil {
		return nil, err
	}
	bk.LinkMW += st.niMW

	e := &st.scratchEval
	*e = evalResult{
		route:       &st.res,
		cfgs:        st.cfgs,
		designArea:  st.designArea,
		networkArea: st.networkArea,
		powerMW:     bk.TotalMW(),
		powerBk:     bk,
		raw: rawMetrics{
			hops:    st.res.AvgHops(),
			areaMM2: st.designArea,
			powerMW: bk.TotalMW(),
		},
	}
	return e, nil
}

// flowRec is one commodity's recorded routing under an assignment: a
// single path (split=false, one entry) or the merged-path structure of a
// split routing plus the chunk-to-path assignment needed to replay its
// exact load arithmetic. Buffers are reused across candidates.
type flowRec struct {
	split    bool
	n        int
	verts    [][]int
	arcs     [][]int
	fracs    []float64
	chunkAcc []int
}

// setSingle records a whole-commodity path (copying out of router
// scratch).
func (rec *flowRec) setSingle(verts, arcs []int) {
	rec.split = false
	rec.n = 1
	rec.verts = resizePathBufs(rec.verts, 1)
	rec.arcs = resizePathBufs(rec.arcs, 1)
	rec.verts[0] = append(rec.verts[0][:0], verts...)
	rec.arcs[0] = append(rec.arcs[0][:0], arcs...)
}

// recEqual reports whether two records describe the identical routing
// (same paths, same chunk folding) — in which case their load histories
// coincide and no dirty marking is needed.
func recEqual(a, b *flowRec) bool {
	if a.split != b.split || a.n != b.n {
		return false
	}
	for i := 0; i < a.n; i++ {
		if !slices.Equal(a.arcs[i], b.arcs[i]) {
			return false
		}
	}
	if a.split && !slices.Equal(a.chunkAcc, b.chunkAcc) {
		return false
	}
	return true
}

// resizeRecs grows a flow-record table to n entries, keeping existing
// buffers for reuse.
func resizeRecs(recs []flowRec, n int) []flowRec {
	if cap(recs) < n {
		grown := make([]flowRec, n)
		copy(grown, recs)
		return grown
	}
	return recs[:n]
}

// resizePathBufs grows a per-commodity path-buffer table to n entries,
// keeping existing buffers for reuse.
func resizePathBufs(bufs [][]int, n int) [][]int {
	if cap(bufs) < n {
		grown := make([][]int, n) //sunmap:alloc first-use growth, existing buffers recycled
		copy(grown, bufs)
		return grown
	}
	return bufs[:n]
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// resizeFloats returns s resized to n without zeroing (callers overwrite
// every element).
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n) //sunmap:alloc first-use growth, recycled
	}
	return s[:n]
}

// resizeBools returns s resized to n without zeroing.
func resizeBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}
