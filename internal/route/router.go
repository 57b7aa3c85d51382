// Router: reusable scratch state for the routing hot path.
//
// The mapper's pairwise-swap improvement loop evaluates thousands of
// candidate mappings, each of which re-routes commodities. With the plain
// Route entry point every one of those evaluations allocates dist/prev
// arrays, a priority queue, path slices and a fresh quadrant mask per
// commodity. A Router owns all of that scratch — a graph.SPSolver, path
// buffers, a per-terminal-pair quadrant-mask cache and the split-routing
// accumulator arena — so steady-state routing work allocates nothing.
// Every search takes its weights as arguments: the live link loads plus a
// commodity-scaled tie-break bias for the load-aware functions, and an
// all-zero load vector with bias 1 for the unit-weight DO fallback.
//
// Ownership contract: a Router is single-goroutine state. The mapper owns
// one per Map call (or borrows one through mapping.Scratch), and
// internal/engine keeps a free list handing each evaluation worker its own.
// Slices returned by the path primitives (PathMP, PathDO) alias the
// Router's buffers and are valid only until the next call on the same
// Router.
package route

import (
	"fmt"

	"sunmap/internal/graph"
	"sunmap/internal/topology"
)

// Router holds preallocated routing scratch. The zero value is not usable;
// call NewRouter.
type Router struct {
	sp *graph.SPSolver

	// Path scratch shared by the single-path primitives.
	verts, arcs []int

	// zeros is the all-zero load vector of the oblivious DO fallback's
	// unit-weight search, grown on use to the bound topology's link count.
	zeros []float64

	// Split-routing (SM/SA) merged-path arena.
	accs []accum

	// down, when non-nil, is the active failed-link mask
	// (Options.DownLinks): the load-aware searches treat masked arcs as
	// unreachable, so they reroute around them.
	down []bool

	// chunkAcc records, for the last split-routed commodity, which merged
	// accumulator each chunk landed on (in chunk order) — the structure
	// the mapper's delta evaluator replays for spliced commodities.
	chunkAcc []int

	// Quadrant-mask, min-hop-DAG and single-path caches for the bound
	// topology, indexed src*T+dst. Entries are computed lazily and shared
	// read-only with the solver; all depend only on the terminal pair,
	// never on loads. single holds 0 (not computed), 1 (no) or 2 (yes).
	topo   topology.Topology
	quads  [][]bool
	dags   [][]bool
	single []uint8

	// uniform caches UniformHops for the bound topology: 0 (not
	// computed), 1 (no) or 2 (yes).
	uniform uint8

	// do is the bound topology's dimension-ordered routing shape.
	do doShape

	// BFS scratch for filling a min-hop-DAG cache entry.
	hopDist, hopQueue []int
	hopOn             []bool
}

// NewRouter returns a Router with empty scratch; buffers grow on first use.
func NewRouter() *Router {
	return &Router{sp: graph.NewSPSolver()}
}

// Bind points the Router's quadrant cache and DO shape at topo, clearing
// the cache when the topology changes. Routing entry points call it
// implicitly.
func (rt *Router) Bind(topo topology.Topology) {
	if rt.topo == topo {
		return
	}
	rt.topo = topo
	rt.do = doShapeOf(topo)
	rt.uniform = 0
	n := topo.NumTerminals() * topo.NumTerminals()
	if cap(rt.quads) < n {
		rt.quads = make([][]bool, n) //sunmap:alloc first-bind growth, recycled across topologies
		rt.dags = make([][]bool, n)  //sunmap:alloc first-bind growth, recycled across topologies
		rt.single = make([]uint8, n) //sunmap:alloc first-bind growth, recycled across topologies
	}
	rt.quads = rt.quads[:n]
	rt.dags = rt.dags[:n]
	rt.single = rt.single[:n]
	for i := range rt.quads {
		rt.quads[i] = nil
		rt.dags[i] = nil
		rt.single[i] = 0
	}
}

// Quadrant returns the cached minimum-path mask for the terminal pair,
// computing it on first use. The mask is shared and must not be mutated.
func (rt *Router) Quadrant(srcT, dstT int) []bool {
	i := srcT*rt.topo.NumTerminals() + dstT
	if rt.quads[i] == nil {
		rt.quads[i] = rt.topo.Quadrant(srcT, dstT)
	}
	return rt.quads[i]
}

// MinHopDAG returns the cached dense arc mask of the terminal pair's
// minimum-hop path DAG (the SM flow-splitting region), computing it on
// first use. The mask is shared and must not be mutated.
func (rt *Router) MinHopDAG(srcT, dstT int) []bool {
	i := srcT*rt.topo.NumTerminals() + dstT
	if rt.dags[i] == nil {
		mask := rt.Quadrant(srcT, dstT)
		src, dst := rt.topo.InjectRouter(srcT), rt.topo.EjectRouter(dstT)
		g := rt.topo.Graph()
		rt.growHopScratch(g.NumVertices())
		dense := make([]bool, len(rt.topo.Links())) //sunmap:alloc once-per-terminal-pair cache fill, cold after warmup
		g.MinHopArcsInto(dense, src, dst, mask, rt.hopDist, rt.hopQueue, rt.hopOn)
		rt.dags[i] = dense
	}
	return rt.dags[i]
}

// SinglePath reports whether the terminal pair's quadrant holds exactly
// one simple inject-to-eject path, computing the flag on first use. Then
// every quadrant-restricted search returns that path whatever the loads:
// MP's search and each of SM's chunk searches on the min-hop DAG. SA
// searches the whole graph, so the flag says nothing about SA routes.
//
// The flag is set when inject and eject are one router, or when the
// quadrant holds exactly MinHops routers. A quadrant path has at least
// MinHops routers, so each one visits every quadrant router; an arc that
// skipped ahead along a minimum path would make a shorter one, so each
// visits them in the same order. No topology has parallel links, so that
// order fixes the arcs too. Every butterfly pair, mesh pairs sharing a
// row or column, hypercube neighbours and the star qualify.
func (rt *Router) SinglePath(srcT, dstT int) bool {
	i := srcT*rt.topo.NumTerminals() + dstT
	if rt.single[i] == 0 {
		rt.single[i] = 1
		if rt.singlePath(srcT, dstT) {
			rt.single[i] = 2
		}
	}
	return rt.single[i] == 2
}

func (rt *Router) singlePath(srcT, dstT int) bool {
	hops := rt.topo.MinHops(srcT, dstT)
	if hops < 2 {
		return hops == 1
	}
	mask := rt.Quadrant(srcT, dstT)
	if mask == nil {
		return rt.topo.NumRouters() == hops
	}
	routers := 0
	for _, in := range mask {
		if in {
			routers++
		}
	}
	return routers == hops
}

// UniformHops reports whether every router path from an inject router to
// an eject router of the bound topology crosses the same number of
// routers, computing the flag on first use. Then every route of every
// routing function has MinHops routers, whatever the loads.
//
// The flag is set when the routers reachable from the inject routers fall
// into stages: every inject router in stage 0, every link from one stage
// to the next, and every eject router in the same last stage. A path
// gains one stage per link, so each has as many routers as there are
// stages. Clos networks, butterflies and the star qualify; a mesh,
// torus, hypercube or octagon, whose links run both ways, never does.
func (rt *Router) UniformHops() bool {
	if rt.uniform == 0 {
		rt.uniform = 1
		if rt.uniformHops() {
			rt.uniform = 2
		}
	}
	return rt.uniform == 2
}

func (rt *Router) uniformHops() bool {
	topo := rt.topo
	g := topo.Graph()
	n := g.NumVertices()
	rt.growHopScratch(n)
	stage, queue, tail := rt.hopDist[:n], rt.hopQueue[:n], 0
	for r := range stage {
		stage[r] = -1
	}
	numT := topo.NumTerminals()
	for t := 0; t < numT; t++ {
		if r := topo.InjectRouter(t); stage[r] == -1 {
			stage[r] = 0
			queue[tail] = r
			tail++
		}
	}
	for i := 0; i < tail; i++ {
		u := queue[i]
		for _, a := range g.Out(u) {
			switch stage[a.To] {
			case -1:
				stage[a.To] = stage[u] + 1
				queue[tail] = a.To
				tail++
			case stage[u] + 1:
			default:
				return false
			}
		}
	}
	last := stage[topo.EjectRouter(0)]
	for t := 1; t < numT; t++ {
		if stage[topo.EjectRouter(t)] != last {
			return false
		}
	}
	return last >= 0
}

// growHopScratch sizes the BFS scratch for n routers.
func (rt *Router) growHopScratch(n int) {
	if len(rt.hopDist) < n {
		rt.hopDist = make([]int, n)  //sunmap:alloc first-use growth, recycled across pairs and topologies
		rt.hopQueue = make([]int, n) //sunmap:alloc first-use growth, recycled across pairs and topologies
		rt.hopOn = make([]bool, n)   //sunmap:alloc first-use growth, recycled across pairs and topologies
	}
}

// PathMP computes the congestion-aware shortest path of commodity c from
// terminal srcT to dstT given the current per-link loads — the Fig. 5
// minimum-path step, restricted to the quadrant graph when useQuadrant is
// set. The returned slices alias Router scratch.
func (rt *Router) PathMP(srcT, dstT int, c graph.Commodity, linkLoads []float64, useQuadrant bool) (verts, arcs []int, err error) {
	var mask []bool
	if useQuadrant {
		mask = rt.Quadrant(srcT, dstT)
	}
	src, dst := rt.topo.InjectRouter(srcT), rt.topo.EjectRouter(dstT)
	verts, arcs, ok := rt.shortest(src, dst, linkLoads, hopBiasFor(c.ValueMBps), nil, rt.down, mask)
	if !ok {
		return nil, nil, fmt.Errorf("route: no path for commodity %d (terminals %d->%d) on %s", //sunmap:alloc error path
			c.ID, srcT, dstT, rt.topo.Name())
	}
	return verts, arcs, nil
}

// shortest runs the solver over the bound topology's router graph under
// the weight loads[arc]+bias, restricted to the dag arc mask and the mask
// of routers (nil = no restriction) and skipping arcs marked in down. It
// handles the degenerate case where inject and eject are the same router
// (a one-router path, as on the star hub). The search stops once dst
// settles.
func (rt *Router) shortest(src, dst int, loads []float64, bias float64, dag, down, mask []bool) (verts, arcs []int, ok bool) {
	if src == dst {
		rt.verts = append(rt.verts[:0], src)
		rt.arcs = rt.arcs[:0]
		return rt.verts, rt.arcs, true
	}
	rt.sp.DijkstraLoads(rt.topo.Graph(), src, dst, loads, bias, dag, down, mask)
	rt.verts, rt.arcs, ok = rt.sp.PathTo(src, dst, rt.verts, rt.arcs)
	return rt.verts, rt.arcs, ok
}

// resizeFloats returns buf resized to n with every element zeroed.
func resizeFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n) //sunmap:alloc first-use growth, recycled
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// Reset prepares res for re-accumulation over a topology with the given
// link and router counts, reusing its slices. Both RouteInto and the
// mapper's delta evaluator start every routing replay here.
func (r *Result) Reset(numLinks, numRouters int) {
	r.LinkLoads = resizeFloats(r.LinkLoads, numLinks)
	r.RouterLoads = resizeFloats(r.RouterLoads, numRouters)
	r.Paths = r.Paths[:0]
	r.MaxLinkLoad = 0
	r.HopSumMBps = 0
	r.TotalMBps = 0
	r.Feasible = false
}

// FinalizeLoads derives MaxLinkLoad and the feasibility verdict from the
// accumulated LinkLoads — the closing step of every routing run, shared so
// scratch-based callers fold loads exactly like Route does.
func FinalizeLoads(res *Result, capacityMBps float64) {
	res.MaxLinkLoad = 0
	for _, l := range res.LinkLoads {
		if l > res.MaxLinkLoad {
			res.MaxLinkLoad = l
		}
	}
	res.Feasible = capacityMBps <= 0 || res.MaxLinkLoad <= capacityMBps+feasTolerance
}

// RouteInto routes every commodity like Route, but reuses res's slices and
// the Router's scratch so steady-state calls allocate nothing (Paths
// excepted — see Options.LoadsOnly). res is reset first; on error it holds
// partially accumulated state and must not be read.
//
//sunmap:hotpath
func (rt *Router) RouteInto(res *Result, topo topology.Topology, assign []int, comms []graph.Commodity, opts Options) error {
	opts = opts.withDefaults()
	rt.Bind(topo)
	if opts.DownLinks != nil && len(opts.DownLinks) != len(topo.Links()) {
		return fmt.Errorf("route: DownLinks mask has %d entries for %d links of %s", //sunmap:alloc error path
			len(opts.DownLinks), len(topo.Links()), topo.Name())
	}
	rt.down = opts.DownLinks
	defer func() { rt.down = nil }() //sunmap:alloc non-escaping deferred closure, stack-allocated
	res.Reset(len(topo.Links()), topo.NumRouters())
	collect := !opts.LoadsOnly
	for _, c := range comms {
		if c.Src < 0 || c.Src >= len(assign) || c.Dst < 0 || c.Dst >= len(assign) {
			return fmt.Errorf("route: commodity %d endpoints (%d,%d) outside assignment of %d cores", //sunmap:alloc error path
				c.ID, c.Src, c.Dst, len(assign))
		}
		srcT, dstT := assign[c.Src], assign[c.Dst]
		if srcT < 0 || srcT >= topo.NumTerminals() || dstT < 0 || dstT >= topo.NumTerminals() {
			return fmt.Errorf("route: commodity %d mapped to invalid terminals (%d,%d)", c.ID, srcT, dstT) //sunmap:alloc error path
		}
		if srcT == dstT {
			return fmt.Errorf("route: commodity %d has source and destination on terminal %d", c.ID, srcT) //sunmap:alloc error path
		}
		var err error
		switch opts.Function {
		case DimensionOrdered:
			err = rt.routeDO(srcT, dstT, c, res, collect)
		case MinPath:
			// With links down, a surviving path need not stay inside the
			// quadrant (which only bounds fault-free minimum paths), so
			// masked MP searches the full router graph.
			err = rt.routeSingle(srcT, dstT, c, res, !opts.DisableQuadrant && rt.down == nil, collect)
		case SplitMin:
			err = rt.routeSplit(srcT, dstT, c, res, opts.Chunks, true, collect)
		case SplitAll:
			err = rt.routeSplit(srcT, dstT, c, res, opts.Chunks, false, collect)
		default:
			err = fmt.Errorf("route: unknown routing function %v", opts.Function) //sunmap:alloc error path
		}
		if err != nil {
			return err
		}
	}
	FinalizeLoads(res, opts.CapacityMBps)
	return nil
}
