package sim

import (
	"fmt"

	"sunmap/internal/graph"
	"sunmap/internal/route"
	"sunmap/internal/topology"
)

// BuildRoutes precomputes static routes for every ordered terminal pair:
// dimension-ordered single paths on direct topologies (the deterministic
// routing of ×pipes-style switches), the unique path on butterflies, and
// the full middle-stage spread on Clos networks (weight 1/m each) — the
// path diversity that wins Fig. 8(b) for the Clos. Every routed pair
// reuses one route.Router and one route.Result, so the table costs its
// own paths and little else.
func BuildRoutes(topo topology.Topology) (*RouteTable, error) {
	n := topo.NumTerminals()
	rt := &RouteTable{n: n, paths: make([][]Path, n*n)}
	cl, isClos := topo.(topology.ClosLike)
	router := route.NewRouter()
	var res route.Result
	assign := make([]int, 2)
	comms := []graph.Commodity{{ID: 0, Src: 0, Dst: 1, ValueMBps: 1}}
	opts := route.Options{Function: route.DimensionOrdered}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			if isClos {
				m, _, r := cl.Params()
				for mid := 0; mid < m; mid++ {
					l1, err := findLink(topo, topo.InjectRouter(s), r+mid)
					if err != nil {
						return nil, err
					}
					l2, err := findLink(topo, r+mid, topo.EjectRouter(d))
					if err != nil {
						return nil, err
					}
					rt.paths[s*n+d] = append(rt.paths[s*n+d], Path{
						LinkIDs: []int{l1, l2},
						Weight:  1 / float64(m),
					})
				}
				continue
			}
			assign[0], assign[1] = s, d
			if err := router.RouteInto(&res, topo, assign, comms, opts); err != nil {
				return nil, fmt.Errorf("sim: building route %d->%d on %s: %w", s, d, topo.Name(), err)
			}
			for _, p := range res.Paths {
				rt.paths[s*n+d] = append(rt.paths[s*n+d], Path{
					// Copied: res reuses its path buffers on the next pair.
					LinkIDs: append([]int(nil), p.LinkIDs...),
					Weight:  p.Fraction,
				})
			}
		}
	}
	return rt, nil
}

// BuildRoutesFromResult converts an optimized mapping's flow paths into a
// simulator route table: each commodity's split fractions become weighted
// path choices between the mapped terminals. Used for trace-driven runs
// (the DSP study simulates the SUNMAP-produced mapping).
func BuildRoutesFromResult(topo topology.Topology, assign []int, res *route.Result) (*RouteTable, error) {
	n := topo.NumTerminals()
	rt := &RouteTable{n: n, paths: make([][]Path, n*n)}
	for _, p := range res.Paths {
		if p.Commodity.Src >= len(assign) || p.Commodity.Dst >= len(assign) {
			return nil, fmt.Errorf("sim: flow path endpoints outside assignment")
		}
		s, d := assign[p.Commodity.Src], assign[p.Commodity.Dst]
		rt.paths[s*n+d] = append(rt.paths[s*n+d], Path{
			LinkIDs: append([]int(nil), p.LinkIDs...),
			Weight:  p.Fraction,
		})
	}
	return rt, nil
}

// findLink locates the link ID from router u to router v.
func findLink(topo topology.Topology, u, v int) (int, error) {
	for _, a := range topo.Graph().Out(u) {
		if a.To == v {
			return a.ID, nil
		}
	}
	return 0, fmt.Errorf("sim: no link %d->%d in %s", u, v, topo.Name())
}
