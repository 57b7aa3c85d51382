// Router: reusable scratch state for the routing hot path.
//
// The mapper's pairwise-swap improvement loop evaluates thousands of
// candidate mappings, each of which re-routes commodities. With the plain
// Route entry point every one of those evaluations allocates dist/prev
// arrays, a priority queue, path slices and a fresh quadrant mask per
// commodity. A Router owns all of that scratch — a graph.SPSolver, path
// buffers and the split-routing accumulator arena — and reads quadrant
// masks from the bound topology's shared routing tables, so steady-state
// routing work allocates nothing.
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
	"reflect"

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

	// topo is the bound topology and tb its routing tables: quadrant
	// masks, min-hop DAGs and single-path and uniform-hops flags, all
	// functions of the structure alone. A topology of the topology
	// package shares one set of tables with every Router (see
	// topology.SharedTables); any other implementation gets a private
	// set, flagged by private.
	topo    topology.Topology
	tb      *topology.RouteTables
	private bool

	// do is the bound topology's dimension-ordered routing shape.
	do doShape

	// hop is the BFS scratch of a min-hop-DAG or uniform-hops fill.
	hop topology.HopScratch
}

// NewRouter returns a Router with empty scratch; buffers grow on first use.
func NewRouter() *Router {
	return &Router{sp: graph.NewSPSolver()}
}

// Bind points the Router at topo's routing tables and DO shape. Routing
// entry points call it implicitly. Identity is the tables' pointer: a
// topology of the topology package brings its shared tables, so Bind
// never compares Topology values, and every Router bound to one object
// reads the same read-only masks. Any other implementation gets private
// tables, kept while Bind sees the same value again; a value that cannot
// be compared gets fresh tables at every Bind.
func (rt *Router) Bind(topo topology.Topology) {
	tb := topology.SharedTables(topo)
	private := tb == nil
	switch {
	case !private && tb == rt.tb, private && rt.private && identical(rt.topo, topo):
		return
	case private:
		tb = topology.NewRouteTables(topo)
	}
	rt.topo, rt.tb, rt.private = topo, tb, private
	rt.do = doShapeOf(topo)
}

// identical reports whether a and b are one Topology value without the
// panic == raises on two values of one non-comparable dynamic type.
func identical(a, b topology.Topology) bool {
	v := reflect.ValueOf(a)
	return v.IsValid() && v.Type() == reflect.TypeOf(b) && v.Comparable() && a == b
}

// Quadrant returns the bound topology's minimum-path mask for the
// terminal pair (topology.RouteTables.Quadrant). The mask is shared and
// must not be mutated.
func (rt *Router) Quadrant(srcT, dstT int) []bool { return rt.tb.Quadrant(srcT, dstT) }

// MinHopDAG returns the dense arc mask of the terminal pair's
// minimum-hop path DAG (the SM flow-splitting region). The mask is
// shared and must not be mutated.
func (rt *Router) MinHopDAG(srcT, dstT int) []bool { return rt.tb.MinHopDAG(srcT, dstT, &rt.hop) }

// SinglePath reports whether the terminal pair's quadrant holds exactly
// one simple inject-to-eject path (topology.RouteTables.SinglePath).
func (rt *Router) SinglePath(srcT, dstT int) bool { return rt.tb.SinglePath(srcT, dstT) }

// UniformHops reports whether every inject-to-eject router path of the
// bound topology crosses the same number of routers
// (topology.RouteTables.UniformHops).
func (rt *Router) UniformHops() bool { return rt.tb.UniformHops(&rt.hop) }

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
