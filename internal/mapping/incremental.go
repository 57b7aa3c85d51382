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
//  3. A candidate pays only for what its swap changes, and the sweep
//     leaves out work whose outcome is certain. The switch configs,
//     in-loop areas and router power factors read only which terminals
//     are occupied: a core-core swap reuses the baseline's, and only a
//     move onto a free terminal recomputes them. The bound's
//     per-commodity hop and power terms are kept for the baseline, and a
//     candidate adds the deltas of the commodities incident to its moved
//     cores (see lowerBound). Under MP and SM a pair whose quadrant holds
//     a single path (route.Router.SinglePath) is spliced even when
//     diverged links lie inside it: its route cannot depend on loads.
//
//     A verdict depends only on the assignment and the current cost. The
//     sweep stops once a full cycle of terminal pairs has passed since
//     the last accepted swap: the reference would reject the rest of that
//     pass and stop. Under the load-aware functions a design depends on a
//     terminal only through its inject and eject routers, so two kinds of
//     candidate repeat a design already judged: a swap between two
//     terminals on the same routers (the terminals of one Clos or
//     butterfly edge switch) is the current design, and moving a core
//     onto a free terminal builds the same design as an earlier move of
//     that core onto the same routers, rejected since the last accepted
//     swap. Both are skipped. DO is excluded, since Clos DO picks the
//     middle switch from the terminal IDs. And a candidate is abandoned
//     as soon as a certified lower bound on its objective clears the
//     current cost (see lowerBound), before any routing or part-way
//     through it.
//
//     The bound cannot reject an exact tie, and under MinDelay most
//     candidates on a Clos network, a butterfly or the star tie: every
//     route there has the same router count (route.Router.UniformHops).
//     A candidate's hop sum then adds the same terms in the same order as
//     the baseline's and is bitwise equal, so only the load-balance
//     tie-break and the overload factor can differ. While the baseline
//     has no link past capacity, its cost is the hop term plus a term
//     monotone in the largest link load, and an overload factor of at
//     least 1 can only raise a candidate's; so a candidate whose largest
//     link load reaches the baseline's scores at least the current cost,
//     and the sweep's strict accept test rejects it. Two certificates
//     find such candidates, with no slack.
//
//     The mid-route certificate (tieMid, MP and DO): a link's load only
//     grows at commodity boundaries, since adding a non-negative float
//     never lowers it, so once the running largest load that account
//     keeps reaches the baseline's, the final one does too. SM's
//     undo-and-commit fold is not monotone bit for bit, so SM is left
//     out. The certificate before routing (tieEarly): when every route is
//     load-independent (DO, or MP and SM with a single path for every
//     pair), a link on no moved commodity's old or new path receives the
//     same additions in the same order as in the baseline. If none of
//     those paths crosses a link at the baseline's largest load, that
//     load survives exactly (see tiesBeforeRouting), and the candidate is
//     rejected before its switch terms are built.
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
// cost evaluation — the final exact evaluation of each Map call and the
// reference sweep. Buffers are bound to a topology per Map call and
// regrown as needed, so one Scratch serves an entire library sweep. It is
// single-goroutine state: give each worker its own (internal/engine pools
// them on an engine.Free list).
type Scratch struct {
	rt  *route.Router
	inc incState
	fp  *floorplan.Planner

	// Greedy placement / sweep occupancy buffers: comm[i*n+j] is the
	// bandwidth between cores i and j, vol[i] core i's total.
	assign, occupant []int
	greedyFree       []bool
	comm, vol        []float64

	// Full-evaluation scratch: the routing result every ev.cost call
	// accumulates into (cloned before escaping) and the switch-area list
	// fed to the floorplanner.
	evalRes route.Result
	swAreas []float64
}

// workCounts are the incremental sweep's work counters. Every candidate
// the reference sweep would evaluate lands in exactly one of the first
// eight. The counts depend only on the inputs, never on timing.
type workCounts struct {
	evaluated   int // candidates evaluated to the end
	prunedEarly int // rejected by the bound before any routing
	prunedMid   int // rejected by the bound part-way through routing
	converged   int // never visited: after convergence
	routerEquiv int // skipped: both terminals on the same inject and eject routers
	sameDesign  int // skipped: an equivalent move was rejected since the last accepted swap
	tieEarly    int // rejected before any routing: it can at best tie the current cost
	tieMid      int // rejected part-way through routing: it can at best tie the current cost
	rerouted    int // commodities routed rather than spliced
	singlePath  int // commodities spliced past diverged links: their pair has one path
	reference   int // candidates the reference sweep evaluated, which the first eight partition
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch {
	return &Scratch{rt: route.NewRouter(), fp: floorplan.NewPlanner()}
}

// switchTerms are a design's per-candidate cost terms fixed before any
// routing: the switch configs, the in-loop areas and, when the bound
// reads power, each router's power per MB/s. They read only which
// terminals are occupied.
type switchTerms struct {
	cfgs        []area.SwitchConfig
	routerMW    []float64
	networkArea float64
	designArea  float64
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
	linkLens  []float64
	linkMW    []float64 // power per MB/s on each link
	linkArea  float64
	coreArea  float64
	niMW      float64
	totalMBps float64

	// bounded reports that lowerBound is certified for this objective;
	// needHops and needPower say which of its terms the objective reads.
	bounded, needHops, needPower bool

	// Switch terms of the baseline and of the last candidate that moved a
	// core onto a free terminal; sw points at the current candidate's.
	// promote swaps the two when such a candidate is accepted.
	swBase, swCand switchTerms
	sw             *switchTerms

	// incStart and incid list the commodities incident to each core:
	// those of core c are incid[incStart[c]:incStart[c+1]], ascending.
	// moved is the same for the candidate's moved cores, merged.
	incStart, incid, moved []int

	// Bound state of the baseline, rebuilt by promote: hopTerm[k] and
	// powTerm[k] are the least hop sum and switch power commodity k can
	// add, hopSuf and powSuf their suffix sums (see lowerBound).
	hopTerm, powTerm, hopSuf, powSuf []float64

	// Running bound state of the candidate being evaluated. Its suffixes
	// are the baseline's plus dHop[next] and dPow[next], where dHop[i]
	// and dPow[i] sum the term deltas of moved[i:] and next indexes the
	// first moved commodity not yet routed. After a move onto a free
	// terminal the power suffix is powCand instead. maxLoad is the
	// largest link load routed so far, powerMW the power of the
	// commodities routed so far and overIDs the links loaded past
	// capacity (deduplicated by overMark).
	dHop, dPow []float64
	powCand    []float64
	powFresh   bool
	next       int
	maxLoad    float64
	powerMW    float64
	overMark   []int
	overIDs    []int

	// Tie certificates (see the file comment). tie reports that they
	// apply to this Map call: the objective is MinDelay and every route
	// has the same router count. For the baseline, promote sets baseMax,
	// its largest link load, baseOK when no link is past capacity, atMax
	// and maxIDs, the links at baseMax (as a mask and a list), and, under
	// MP and SM, allSingle when every commodity's pair has a single path.
	tie, baseOK, allSingle bool
	baseMax                float64
	atMax                  []bool
	maxIDs                 []int

	// Same-design memo: termClass[t] is the lowest terminal with t's
	// inject and eject routers, and memo[core*T+class] holds gen+1 once
	// moving the core onto that class was rejected in acceptance
	// generation gen.
	termClass []int
	memo      []int
	gen       int

	// Baseline: the routed structure of every commodity under the
	// currently accepted assignment.
	base []flowRec

	// Candidate scratch, rebuilt by every eval call.
	res         route.Result // loads + hop/total aggregates
	cand        []flowRec
	reroutedIDs []int
	dirtyMark   []int
	dirtyIDs    []int
	epoch       int
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
	st.promote(assign)
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
				memo := st.memoSlot(occupant, a, b)
				switch {
				case occupant[a] == -1 && occupant[b] == -1:
				case !st.oblivious && st.termClass[a] == st.termClass[b]:
					st.work.routerEquiv++
				case memo >= 0 && st.memo[memo] == st.gen+1:
					st.work.sameDesign++
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
							st.promote(assign)
							continue
						}
					}
					swapTerminals(assign, occupant, a, b) // undo
					if memo >= 0 {
						st.memo[memo] = st.gen + 1
					}
				}
				if since == pairs {
					st.work.converged += candidatesAfter(occupant, a, b)
					return swaps, nil
				}
			}
		}
	}
	return swaps, nil
}

// memoSlot returns the same-design memo entry of moving the core on one
// of terminals a and b onto the other, free one, or -1 when the pair is
// not such a move or the routing function is DO.
func (st *incState) memoSlot(occupant []int, a, b int) int {
	x, to := occupant[a], b
	if x == -1 {
		x, to = occupant[b], a
	}
	if st.oblivious || x == -1 || occupant[to] != -1 {
		return -1
	}
	return x*len(st.termClass) + st.termClass[to]
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

	// Estimated link lengths depend only on the topology template and the
	// application's average core pitch — not on the assignment — so the
	// in-loop wiring-area term is a per-Map constant.
	st.linkLens, _ = floorplan.EstimateLinkLengthsMM(st.topo, nil, ev.cores, opts.Floorplan)
	st.linkArea = area.LinkAreaMM2(st.linkLens, opts.Tech)
	st.coreArea = ev.g.TotalCoreAreaMM2()
	st.niMW = ev.niHookupMW(ev.cores)
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
	st.tie = st.bounded && opts.Objective == MinDelay && !st.splitAll && rt.UniformHops()
	if st.needPower {
		st.linkMW = resizeFloats(st.linkMW, len(st.links))
		for i, l := range st.linkLens {
			st.linkMW[i] = power.LinkBitEnergyPJ(l, opts.Tech) * power.MWPerMBpsPJ
		}
	}

	m, n := len(st.comms), ev.g.NumCores()
	st.base = resizeRecs(st.base, m)
	st.cand = resizeRecs(st.cand, m)
	st.reroutedIDs = st.reroutedIDs[:0]
	// Incidence lists: count per core, prefix-sum into end offsets, then
	// fill each list back to front, which leaves incStart[c] at its start.
	st.incStart = resizeInts(st.incStart, n+1)
	for _, c := range st.comms {
		st.incStart[c.Src]++
		st.incStart[c.Dst]++
	}
	for c := 1; c <= n; c++ {
		st.incStart[c] += st.incStart[c-1]
	}
	st.incid = resizeInts(st.incid, 2*m)
	for k := m - 1; k >= 0; k-- {
		c := st.comms[k]
		st.incStart[c.Src]--
		st.incid[st.incStart[c.Src]] = k
		st.incStart[c.Dst]--
		st.incid[st.incStart[c.Dst]] = k
	}
	st.moved = resizeInts(st.moved, m)[:0]

	l, r, numT := len(st.links), st.topo.NumRouters(), st.topo.NumTerminals()
	st.dirtyMark = resizeInts(st.dirtyMark, l)
	st.dirtyIDs = st.dirtyIDs[:0]
	st.overMark = resizeInts(st.overMark, l)
	st.overIDs = st.overIDs[:0]
	st.atMax = resizeBools(st.atMax, l)
	clear(st.atMax)
	st.maxIDs = st.maxIDs[:0]
	st.epoch = 0
	for _, sw := range []*switchTerms{&st.swBase, &st.swCand} {
		if cap(sw.cfgs) < r {
			sw.cfgs = make([]area.SwitchConfig, r)
		}
		sw.cfgs = sw.cfgs[:r]
		sw.routerMW = resizeFloats(sw.routerMW, r)
	}
	for _, buf := range []*[]float64{&st.hopTerm, &st.powTerm, &st.hopSuf, &st.powSuf, &st.dHop, &st.dPow, &st.powCand} {
		*buf = resizeFloats(*buf, m+1)
	}

	st.termClass = resizeInts(st.termClass, numT)
	for t := range st.termClass {
		st.termClass[t] = t
		for u := 0; u < t; u++ {
			if st.topo.InjectRouter(u) == st.topo.InjectRouter(t) && st.topo.EjectRouter(u) == st.topo.EjectRouter(t) {
				st.termClass[t] = u
				break
			}
		}
	}
	st.memo = resizeInts(st.memo, n*numT)
	st.gen = 0
}

// pruneSlack is the relative safety margin of the prune: a candidate is
// abandoned only when its certified lower bound clears the current cost
// by this margin. The bound and the objective sum the same non-negative
// terms in different orders, so they can differ by float rounding. The
// candidate suffixes add to the baseline's a few term deltas of either
// sign, and the tracked overload sums its links out of link order; each
// error is a few ulps per term relative to the sum of the terms' absolute
// values, which stays within a small multiple of the bound itself (every
// path crosses at least one router, and switch power factors differ by
// bounded ratios). With at most thousands of commodities that is below
// 1e-12 relative, and this margin exceeds it by orders of magnitude. The
// equivalence suite and FuzzSweepMatchesReference (incremental vs
// reference, which never prunes) are the regression gate on this
// reasoning.
const pruneSlack = 1e-10

// lowerBound returns a certified lower bound on the objective of every
// completion of the candidate after commodity k-1. Each term of the
// objective is bounded by what is known so far:
//   - hops: the routed hop sum plus every remaining commodity's minimum
//     hop count (the baseline's hopSuf plus the moved commodities'
//     deltas);
//   - area: exact, since the in-loop area depends only on the
//     assignment;
//   - power: the power of the commodities routed so far, a partial sum of
//     non-negative loads times fixed bit energies, plus every remaining
//     commodity's flow through its inject and eject switches, which each
//     of its paths crosses (powSuf plus deltas, or powCand);
//   - the load-balance tie-break and the overload penalty: link loads
//     only grow at commodity boundaries, so the largest load so far and
//     the overload of the links already past capacity are below the
//     final ones.
//
// score and penalized are monotone in each of these, so no completion can
// score below the returned value.
func (st *incState) lowerBound(res *route.Result, k int) float64 {
	raw := rawMetrics{areaMM2: st.sw.designArea}
	if st.needHops {
		raw.hops = (res.HopSumMBps + st.hopSuf[k] + st.dHop[st.next]) / st.totalMBps
	}
	if st.needPower {
		suffix := st.powSuf[k] + st.dPow[st.next]
		if st.powFresh {
			suffix = st.powCand[k]
		}
		raw.powerMW = st.powerMW + suffix + st.niMW
	}
	var overload float64
	limit := st.ev.opts.CapacityMBps
	for _, id := range st.overIDs {
		if l := res.LinkLoads[id]; l > limit {
			overload += (l - limit) / limit
		}
	}
	return st.ev.penalized(st.ev.score(raw), st.maxLoad, st.totalMBps, overload)
}

// account folds commodity c's routing record, already applied to loads,
// into the running bound state: the largest load on its links, the links
// it pushed past capacity and, when the objective reads power, its switch
// and link power.
func (st *incState) account(loads []float64, c graph.Commodity, rec *flowRec) {
	limit := st.ev.opts.CapacityMBps
	for i := 0; i < rec.n; i++ {
		for _, id := range rec.arcs[i] {
			st.maxLoad = max(st.maxLoad, loads[id])
			if limit > 0 && loads[id] > limit && st.overMark[id] != st.epoch {
				st.overMark[id] = st.epoch
				st.overIDs = append(st.overIDs, id) //sunmap:alloc amortized overloaded-link scratch growth, reset per eval
			}
		}
		if !st.needPower {
			continue
		}
		var mw float64
		for _, id := range rec.arcs[i] {
			mw += st.linkMW[id]
		}
		for _, r := range rec.verts[i] {
			mw += st.sw.routerMW[r]
		}
		frac := 1.0
		if rec.split {
			frac = rec.fracs[i]
		}
		st.powerMW += c.ValueMBps * frac * mw
	}
}

// boundTerms returns commodity k's least hop sum and least switch power
// under assign and the current switch terms (0 for a term the objective
// does not read).
func (st *incState) boundTerms(assign []int, k int) (hops, mw float64) {
	c := st.comms[k]
	srcT, dstT := assign[c.Src], assign[c.Dst]
	if st.needHops {
		hops = c.ValueMBps * float64(st.topo.MinHops(srcT, dstT))
	}
	if st.needPower {
		src, dst := st.topo.InjectRouter(srcT), st.topo.EjectRouter(dstT)
		mw = st.sw.routerMW[src]
		if dst != src {
			mw += st.sw.routerMW[dst]
		}
		mw *= c.ValueMBps
	}
	return hops, mw
}

// startBound sets up the running bound state of a candidate: the deltas
// of its moved commodities' terms and, after a move onto a free terminal
// (fresh switch terms), its own power suffix.
func (st *incState) startBound(assign []int, fresh bool) {
	st.maxLoad, st.powerMW = 0, 0
	st.overIDs = st.overIDs[:0]
	nm := len(st.moved)
	st.dHop[nm], st.dPow[nm] = 0, 0
	for i := nm - 1; i >= 0; i-- {
		k := st.moved[i]
		h, p := st.boundTerms(assign, k)
		st.dHop[i] = st.dHop[i+1] + (h - st.hopTerm[k])
		st.dPow[i] = st.dPow[i+1] + (p - st.powTerm[k])
	}
	st.powFresh = fresh && st.needPower
	if st.powFresh {
		m := len(st.comms)
		st.powCand[m] = 0
		for k := m - 1; k >= 0; k-- {
			_, p := st.boundTerms(assign, k)
			st.powCand[k] = st.powCand[k+1] + p
		}
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
// evaluated and rejected. Pruning reads the baseline's bound state, so it
// needs a promote after the first, all-commodity evaluation.
//
//sunmap:hotpath
func (st *incState) eval(assign []int, ca, cb int, all bool, bound float64) (e *evalResult, pruned bool, err error) {
	st.epoch++
	st.setMoved(ca, cb)
	prune := !all && !math.IsInf(bound, 1)
	tie := prune && st.tie && st.baseOK
	if tie && st.tiesBeforeRouting(assign) {
		st.work.tieEarly++
		return nil, true, nil
	}
	// SM's undo-and-commit fold is not monotone bit for bit, so the
	// mid-route tie certificate needs MP or DO.
	tieMid := tie && !st.splitMin
	// The switch terms read only occupancy: a core-core swap keeps the
	// baseline's, any other candidate computes its own before routing.
	fresh := all || ca == -1 || cb == -1
	st.sw = &st.swBase
	if fresh {
		st.sw = &st.swCand
		st.setSwitchTerms(st.sw, assign)
	}
	st.next = 0

	res := &st.res
	res.Reset(len(st.links), st.topo.NumRouters())
	if prune {
		st.startBound(assign, fresh)
		if st.lowerBound(res, 0)*(1-pruneSlack) >= bound {
			st.work.prunedEarly++
			return nil, true, nil
		}
	}
	st.dirtyIDs = st.dirtyIDs[:0]
	st.reroutedIDs = st.reroutedIDs[:0]

	for k := range st.comms {
		c := st.comms[k]
		reroute := all
		if st.next < len(st.moved) && st.moved[st.next] == k {
			reroute = true
			st.next++
		}
		if !reroute && len(st.dirtyIDs) > 0 {
			// Re-route when a diverged link is one this commodity's
			// search could read a weight from; links outside that region
			// cannot influence the (deterministic) search, so the cached
			// record is provably what a fresh run would produce.
			srcT, dstT := assign[c.Src], assign[c.Dst]
			switch {
			case st.oblivious:
				// DO paths read no loads at all.
			case st.splitAll:
				reroute = true
			case st.rt.SinglePath(srcT, dstT):
				// MP and SM search only the pair's single path.
				st.work.singlePath++
			case st.loadSensitive:
				reroute = st.dirtyVisible(st.rt.Quadrant(srcT, dstT))
			case st.splitMin:
				reroute = st.dirtyOnDAG(st.rt.MinHopDAG(srcT, dstT))
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
			if tieMid && st.maxLoad >= st.baseMax {
				st.work.tieMid++
				return nil, true, nil
			}
			if st.lowerBound(res, k+1)*(1-pruneSlack) >= bound {
				st.work.prunedMid++
				return nil, true, nil
			}
		}
	}
	route.FinalizeLoads(res, st.ev.opts.CapacityMBps)
	e, err = st.buildEval()
	return e, false, err
}

// tiesBeforeRouting reports that the candidate can at best tie the
// baseline, before any of it is routed (the certificate before routing of
// the file comment). The caller has checked that the tie certificates
// apply and that no baseline link is past capacity.
func (st *incState) tiesBeforeRouting(assign []int) bool {
	if !st.oblivious && !st.allSingle {
		return false
	}
	for _, k := range st.moved {
		rec := &st.base[k]
		for i := 0; i < rec.n; i++ {
			if st.crossesMax(rec.arcs[i]) {
				return false
			}
		}
		c := st.comms[k]
		srcT, dstT := assign[c.Src], assign[c.Dst]
		switch {
		case st.oblivious:
			_, arcs, err := st.rt.PathDO(srcT, dstT, c)
			if err != nil || st.crossesMax(arcs) {
				return false // routing reports the error
			}
		case st.rt.SinglePath(srcT, dstT):
			// MP and SM search only inside the pair's quadrant.
			mask := st.rt.Quadrant(srcT, dstT)
			for _, id := range st.maxIDs {
				if l := st.links[id]; mask == nil || mask[l.From] && mask[l.To] {
					return false
				}
			}
		default:
			return false
		}
	}
	return true
}

// crossesMax reports whether a path crosses a link at the baseline's
// largest load.
func (st *incState) crossesMax(arcs []int) bool {
	for _, id := range arcs {
		if st.atMax[id] {
			return true
		}
	}
	return false
}

// setSwitchTerms computes the switch terms of assign into sw.
func (st *incState) setSwitchTerms(sw *switchTerms, assign []int) {
	t := st.ev.opts.Tech
	area.SwitchConfigsInto(sw.cfgs, st.topo, assign, t)
	var swArea float64
	for _, c := range sw.cfgs {
		swArea += area.SwitchAreaMM2(c, t)
	}
	sw.networkArea = swArea + st.linkArea
	sw.designArea = st.coreArea + sw.networkArea
	if st.bounded && st.needPower {
		for r, c := range sw.cfgs {
			sw.routerMW[r] = power.SwitchBitEnergyPJ(c, t) * power.MWPerMBpsPJ
		}
	}
}

// setMoved lists in moved the commodities incident to cores ca and cb
// (-1 for none), ascending and without repeats.
func (st *incState) setMoved(ca, cb int) {
	st.moved = st.moved[:0]
	var a, b []int
	if ca >= 0 {
		a = st.incid[st.incStart[ca]:st.incStart[ca+1]]
	}
	if cb >= 0 {
		b = st.incid[st.incStart[cb]:st.incStart[cb+1]]
	}
	for len(a) > 0 || len(b) > 0 {
		var k int
		switch {
		case len(b) == 0 || len(a) > 0 && a[0] < b[0]:
			k, a = a[0], a[1:]
		case len(a) == 0 || b[0] < a[0]:
			k, b = b[0], b[1:]
		default: // a commodity between ca and cb
			k, a, b = a[0], a[1:], b[1:]
		}
		st.moved = append(st.moved, k) //sunmap:alloc never grows: capacity is the commodity count, sized in bind
	}
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

// promote adopts the just-evaluated (accepted) candidate as the new
// baseline: its records by swapping buffers — no copies — its switch
// terms the same way, and, when the objective is bounded, the bound terms
// and suffixes of assign.
func (st *incState) promote(assign []int) {
	for _, k := range st.reroutedIDs {
		st.base[k], st.cand[k] = st.cand[k], st.base[k]
	}
	if st.sw == &st.swCand {
		st.swBase, st.swCand = st.swCand, st.swBase
		st.sw = &st.swBase
	}
	st.gen++
	if !st.bounded {
		return
	}
	m := len(st.comms)
	st.hopSuf[m], st.powSuf[m] = 0, 0
	for k := m - 1; k >= 0; k-- {
		h, p := st.boundTerms(assign, k)
		st.hopTerm[k], st.powTerm[k] = h, p
		st.hopSuf[k] = st.hopSuf[k+1] + h
		st.powSuf[k] = st.powSuf[k+1] + p
	}
	if st.tie {
		st.promoteTie(assign)
	}
}

// promoteTie records the tie certificates' view of the baseline, whose
// routing st.res holds.
func (st *incState) promoteTie(assign []int) {
	st.baseMax = st.res.MaxLinkLoad
	limit := st.ev.opts.CapacityMBps
	st.baseOK = limit <= 0 || st.baseMax <= limit
	for _, id := range st.maxIDs {
		st.atMax[id] = false
	}
	st.maxIDs = st.maxIDs[:0]
	for id, l := range st.res.LinkLoads {
		if l == st.baseMax {
			st.atMax[id] = true
			st.maxIDs = append(st.maxIDs, id)
		}
	}
	st.allSingle = !st.oblivious
	for k := 0; st.allSingle && k < len(st.comms); k++ {
		c := st.comms[k]
		st.allSingle = st.rt.SinglePath(assign[c.Src], assign[c.Dst])
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
			if st.dirtyMark[id] != st.epoch {
				st.dirtyMark[id] = st.epoch
				st.dirtyIDs = append(st.dirtyIDs, id) //sunmap:alloc amortized dirty-ID scratch growth, reset per eval epoch
			}
		}
	}
}

// buildEval replays the in-loop cost model over the candidate loads: the
// candidate's switch configs and areas, and the same power fold as
// ev.cost runs, over the same element order, with the per-Map constants
// substituted for the assignment-independent terms. The result is
// bitwise equal to ev.cost(assign, nil)'s metrics.
func (st *incState) buildEval() (*evalResult, error) {
	sw := st.sw
	bk, err := power.NetworkPowerBreakdown(sw.cfgs, st.res.RouterLoads, st.res.LinkLoads, st.linkLens, st.ev.opts.Tech)
	if err != nil {
		return nil, err
	}
	bk.LinkMW += st.niMW

	e := &st.scratchEval
	*e = evalResult{
		route:       &st.res,
		cfgs:        sw.cfgs,
		designArea:  sw.designArea,
		networkArea: sw.networkArea,
		powerMW:     bk.TotalMW(),
		raw: rawMetrics{
			hops:    st.res.AvgHops(),
			areaMM2: sw.designArea,
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
