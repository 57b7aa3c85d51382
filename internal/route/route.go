// Package route implements SUNMAP's routing functions: dimension-ordered
// (DO), minimum-path (MP), traffic splitting across minimum paths (SM) and
// traffic splitting across all paths (SA), as enumerated in Sections 1 and
// 6.3 of the paper.
//
// Given a topology, a core-to-terminal assignment and the commodity set,
// Route produces per-link and per-router traffic loads, the flow paths (for
// power estimation and for the simulator's route tables) and the bandwidth
// feasibility verdict: the mapping is feasible when no link carries more
// than its capacity (footnote 1 of the paper treats capacity as a tool
// input).
package route

import (
	"fmt"
	"slices"

	"sunmap/internal/graph"
	"sunmap/internal/topology"
)

// Function selects one of the paper's routing functions.
type Function int

const (
	// DimensionOrdered routes obliviously: XY on meshes and tori,
	// bit-ordered on hypercubes, a terminal-determined middle on Clos.
	DimensionOrdered Function = iota
	// MinPath routes each commodity, in decreasing bandwidth order, on a
	// single congestion-aware shortest path inside its quadrant graph
	// (the Fig. 5 algorithm).
	MinPath
	// SplitMin splits each commodity across the minimum-hop path DAG.
	SplitMin
	// SplitAll splits each commodity across arbitrary paths.
	SplitAll
)

// String returns the paper's abbreviation for the routing function.
func (f Function) String() string {
	switch f {
	case DimensionOrdered:
		return "DO"
	case MinPath:
		return "MP"
	case SplitMin:
		return "SM"
	case SplitAll:
		return "SA"
	default:
		return fmt.Sprintf("Function(%d)", int(f))
	}
}

// ParseFunction converts the paper's abbreviation to a Function.
func ParseFunction(s string) (Function, error) {
	switch s {
	case "DO", "do":
		return DimensionOrdered, nil
	case "MP", "mp":
		return MinPath, nil
	case "SM", "sm":
		return SplitMin, nil
	case "SA", "sa":
		return SplitAll, nil
	}
	return 0, fmt.Errorf("route: unknown routing function %q (want DO, MP, SM or SA)", s)
}

// Options configures Route.
type Options struct {
	// Function is the routing function (default DimensionOrdered, the
	// zero value; callers usually set MinPath or a splitting variant).
	Function Function
	// CapacityMBps is the uniform link capacity used for the feasibility
	// verdict. Zero or negative means unconstrained (the "relaxed
	// bandwidth constraints" mode of Section 6.2).
	CapacityMBps float64
	// Chunks is the splitting granularity for SM and SA: each commodity
	// is divided into this many equal chunks, each routed on the least
	// loaded (remaining) path. Default 32.
	Chunks int
	// DisableQuadrant searches the full router graph instead of the
	// quadrant graph for MP routing. The paper restricts Dijkstra to
	// quadrants for "large computational time savings" (Section 4.1);
	// this knob exists for the ablation benchmark quantifying that claim.
	DisableQuadrant bool
	// LoadsOnly skips FlowPath collection: Result.Paths stays empty while
	// every load, hop and feasibility aggregate is still maintained. The
	// mapper's swap loop sets it — candidate evaluations only consume the
	// aggregates, and the per-path slice copies dominate its allocations.
	LoadsOnly bool
	// DownLinks marks failed links by link ID; masked links are unusable
	// by every routing function. The congestion-aware functions (MP, SA)
	// route around them — MP additionally searches the full router graph
	// instead of the quadrant, since with links down a surviving path need
	// not stay inside it — while the oblivious DO discipline fails with an
	// error when its fixed path crosses a down link, and SM fails when the
	// fault cuts its minimum-hop DAG. A non-nil mask must have one entry
	// per topology link. The fault subsystem sets this per failure
	// scenario, reusing one mask buffer across evaluations.
	DownLinks []bool
}

// DefaultChunks is the traffic-splitting granularity used when
// Options.Chunks is unset.
const DefaultChunks = 32

func (o Options) withDefaults() Options {
	if o.Chunks <= 0 {
		o.Chunks = DefaultChunks
	}
	return o
}

// FlowPath is one routed fraction of a commodity.
type FlowPath struct {
	// Commodity identifies the flow being carried.
	Commodity graph.Commodity
	// Fraction is the share of the commodity's bandwidth on this path.
	Fraction float64
	// Routers is the router sequence from inject to eject router.
	Routers []int
	// LinkIDs are the traversed link IDs; len(LinkIDs) = len(Routers)-1.
	LinkIDs []int
}

// Hops returns the number of routers traversed (the paper's hop count).
func (p FlowPath) Hops() int { return len(p.Routers) }

// Result is the outcome of routing every commodity.
type Result struct {
	// LinkLoads holds the traffic on each link, indexed by link ID.
	LinkLoads []float64
	// RouterLoads holds the traffic through each router (every flit both
	// enters and leaves a router once, so this counts each flow once per
	// traversed router); the power model multiplies it by the switch bit
	// energy.
	RouterLoads []float64
	// Paths lists every flow path with its bandwidth fraction.
	Paths []FlowPath
	// MaxLinkLoad is the largest entry of LinkLoads: the minimum link
	// capacity that would make this routing feasible (Fig. 9a's metric).
	MaxLinkLoad float64
	// HopSumMBps is the bandwidth-weighted hop total Σ vl(d)·hops(d).
	HopSumMBps float64
	// TotalMBps is the summed commodity bandwidth.
	TotalMBps float64
	// Feasible reports MaxLinkLoad <= capacity (true when capacity is
	// unconstrained).
	Feasible bool
}

// AvgHops returns the bandwidth-weighted average hop count, the paper's
// "average communication delay" metric (Fig. 3d, Fig. 6a, Fig. 7b).
func (r *Result) AvgHops() float64 {
	if r.TotalMBps == 0 {
		return 0
	}
	return r.HopSumMBps / r.TotalMBps
}

// feasTolerance absorbs float accumulation error in the capacity check.
const feasTolerance = 1e-6

// Clone returns a deep, independently owned copy of r. All FlowPath
// vertex and arc sequences are packed into two flat backing arrays, so
// the copy costs six allocations regardless of path count — this is how
// scratch-based evaluations (whose Result and Paths alias reused
// buffers) hand a result to a caller that outlives the scratch.
func (r *Result) Clone() *Result {
	out := &Result{
		LinkLoads:   append([]float64(nil), r.LinkLoads...),
		RouterLoads: append([]float64(nil), r.RouterLoads...),
		MaxLinkLoad: r.MaxLinkLoad,
		HopSumMBps:  r.HopSumMBps,
		TotalMBps:   r.TotalMBps,
		Feasible:    r.Feasible,
	}
	if len(r.Paths) == 0 {
		return out
	}
	nv, na := 0, 0
	for i := range r.Paths {
		nv += len(r.Paths[i].Routers)
		na += len(r.Paths[i].LinkIDs)
	}
	verts := make([]int, 0, nv)
	arcs := make([]int, 0, na)
	out.Paths = make([]FlowPath, len(r.Paths))
	for i := range r.Paths {
		p := &r.Paths[i]
		v0, a0 := len(verts), len(arcs)
		verts = append(verts, p.Routers...)
		arcs = append(arcs, p.LinkIDs...)
		out.Paths[i] = FlowPath{
			Commodity: p.Commodity,
			Fraction:  p.Fraction,
			Routers:   verts[v0:len(verts):len(verts)],
			LinkIDs:   arcs[a0:len(arcs):len(arcs)],
		}
	}
	return out
}

// Route routes every commodity over topo under the given core-to-terminal
// assignment. assign[c] is the terminal hosting core c; every commodity's
// endpoints must be assigned. Commodities are processed in the given order,
// which per Fig. 5 should be decreasing bandwidth (graph.Commodities
// guarantees it).
func Route(topo topology.Topology, assign []int, comms []graph.Commodity, opts Options) (*Result, error) {
	res := &Result{}
	if err := NewRouter().RouteInto(res, topo, assign, comms, opts); err != nil {
		return nil, err
	}
	return res, nil
}

// commit records one flow path carrying fraction f of commodity c. When
// collect is false the FlowPath record (and its slice copies) is skipped;
// every aggregate update is identical either way. Collected FlowPath
// entries reuse the buffers of whatever path occupied the same Paths slot
// before the last Reset, so a steady-state RouteInto caller collects
// paths without allocating; Clone makes an owned snapshot.
func commit(res *Result, c graph.Commodity, f float64, verts, arcs []int, collect bool) {
	bw := c.ValueMBps * f
	for _, id := range arcs {
		res.LinkLoads[id] += bw
	}
	for _, r := range verts {
		res.RouterLoads[r] += bw
	}
	res.HopSumMBps += bw * float64(len(verts))
	res.TotalMBps += bw
	if collect {
		var p *FlowPath
		if n := len(res.Paths); n < cap(res.Paths) {
			res.Paths = res.Paths[:n+1]
			p = &res.Paths[n]
		} else {
			res.Paths = append(res.Paths, FlowPath{}) //sunmap:alloc arena growth; steady-state reuses capacity (cap-check branch above)
			p = &res.Paths[len(res.Paths)-1]
		}
		p.Commodity = c
		p.Fraction = f
		p.Routers = append(p.Routers[:0], verts...)
		p.LinkIDs = append(p.LinkIDs[:0], arcs...)
	}
}

// hopBiasFor scales the tie-breaking bias to the commodity sizes in play so
// it never dominates a real load difference.
func hopBiasFor(comms float64) float64 {
	if comms <= 0 {
		return 1e-9
	}
	return comms * 1e-9
}

// routeSingle routes the whole commodity on one congestion-aware shortest
// path, restricted to the quadrant graph when useQuadrant is set.
func (rt *Router) routeSingle(srcT, dstT int, c graph.Commodity, res *Result, useQuadrant, collect bool) error {
	verts, arcs, err := rt.PathMP(srcT, dstT, c, res.LinkLoads, useQuadrant)
	if err != nil {
		return err
	}
	commit(res, c, 1.0, verts, arcs, collect)
	return nil
}

// accum is one merged chunk path of a split-routed commodity. Its slices
// live in the Router's arena and are reused across calls.
type accum struct {
	verts, arcs []int
	fraction    float64
}

// routeSplit divides the commodity into chunks and water-fills them over
// the minimum-hop DAG (SM) or the whole router graph (SA), recording the
// merged structure in the Router's arena (see RouteSplitOne).
func (rt *Router) routeSplit(srcT, dstT int, c graph.Commodity, res *Result, chunks int, minOnly, collect bool) error {
	topo := rt.topo
	src, dst := topo.InjectRouter(srcT), topo.EjectRouter(dstT)
	var mask, dag []bool
	if minOnly {
		mask = rt.Quadrant(srcT, dstT)
		dag = rt.MinHopDAG(srcT, dstT)
	}
	bias := hopBiasFor(c.ValueMBps)
	// Accumulate identical consecutive chunk paths into one FlowPath to
	// keep Paths compact; loads must still be updated per chunk so later
	// chunks see the congestion earlier ones created.
	//
	// A fault-free SM pair whose quadrant holds one path gets that path
	// from every chunk's search, whatever the loads, so only the first
	// chunk searches; the rest replay its path through the same load and
	// merge steps.
	single := minOnly && rt.down == nil && rt.SinglePath(srcT, dstT)
	frac := 1.0 / float64(chunks)
	acc := rt.accs[:0]
	rt.chunkAcc = rt.chunkAcc[:0]
	for i := 0; i < chunks; i++ {
		var verts, arcs []int
		if single && i > 0 {
			verts, arcs = acc[0].verts, acc[0].arcs
		} else {
			var ok bool
			verts, arcs, ok = rt.shortest(src, dst, res.LinkLoads, bias, dag, rt.down, mask)
			if !ok {
				rt.accs = acc
				return fmt.Errorf("route: no path for commodity %d chunk %d on %s", c.ID, i, topo.Name()) //sunmap:alloc error path
			}
		}
		bw := c.ValueMBps * frac
		for _, id := range arcs {
			res.LinkLoads[id] += bw
		}
		merged := -1
		for j := range acc {
			if slices.Equal(acc[j].arcs, arcs) {
				acc[j].fraction += frac
				merged = j
				break
			}
		}
		if merged == -1 {
			// Grow into the arena, copying the path out of the shared
			// scratch the next chunk's search will overwrite.
			if len(acc) < cap(acc) {
				acc = acc[:len(acc)+1]
			} else {
				acc = append(acc, accum{}) //sunmap:alloc arena growth; steady-state reuses capacity (cap-check branch above)
			}
			a := &acc[len(acc)-1]
			a.verts = append(a.verts[:0], verts...)
			a.arcs = append(a.arcs[:0], arcs...)
			a.fraction = frac
			merged = len(acc) - 1
		}
		rt.chunkAcc = append(rt.chunkAcc, merged) //sunmap:alloc amortized growth of chunk-merge scratch, reset per commodity
	}
	// Loads for links were applied per chunk above; undo and let commit
	// re-apply once per merged path so bookkeeping has a single source of
	// truth for router loads and hop sums.
	for _, a := range acc {
		bw := c.ValueMBps * a.fraction
		for _, id := range a.arcs {
			res.LinkLoads[id] -= bw
		}
	}
	for i := range acc {
		commit(res, c, acc[i].fraction, acc[i].verts, acc[i].arcs, collect)
	}
	rt.accs = acc
	return nil
}

// RouteSplitOne routes one commodity with traffic splitting against res
// (loads only, no FlowPath collection), updating every aggregate exactly
// like the public routing path, and returns the number of merged paths.
// The merged structure is readable through SplitPath/SplitChunkAcc until
// the next split routing on this Router; the mapper's delta evaluator
// copies it out as the commodity's baseline record.
func (rt *Router) RouteSplitOne(res *Result, srcT, dstT int, c graph.Commodity, chunks int, minOnly bool) (int, error) {
	if chunks <= 0 {
		chunks = DefaultChunks
	}
	if err := rt.routeSplit(srcT, dstT, c, res, chunks, minOnly, false); err != nil {
		return 0, err
	}
	return len(rt.accs), nil
}

// SplitPath returns merged path i of the last split routing. The slices
// alias Router scratch.
func (rt *Router) SplitPath(i int) (verts, arcs []int, fraction float64) {
	a := &rt.accs[i]
	return a.verts, a.arcs, a.fraction
}

// SplitChunkAcc returns, per chunk of the last split routing, the merged
// path index the chunk was folded into (chunk order). The slice aliases
// Router scratch.
func (rt *Router) SplitChunkAcc() []int { return rt.chunkAcc }

// RequiredBandwidth maps the commodity set with the given function and
// returns the minimum uniform link capacity that makes it feasible — the
// metric of Fig. 9(a).
func RequiredBandwidth(topo topology.Topology, assign []int, comms []graph.Commodity, fn Function) (float64, error) {
	res, err := Route(topo, assign, comms, Options{Function: fn})
	if err != nil {
		return 0, err
	}
	return res.MaxLinkLoad, nil
}
