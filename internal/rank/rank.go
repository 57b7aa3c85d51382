// Package rank defines Phase 2's order over feasible design points
// (Section 3 of the paper): the one comparison by which the selection,
// its fault-aware re-pick and the figure reproductions of internal/exp
// fold candidates. It depends on nothing, so both the selection layer and
// code that sees only Session reports can call it.
package rank

// Point is what Phase 2 ranks a feasible design point by.
type Point struct {
	// Cost is the mapping objective's cost.
	Cost    float64
	PowerMW float64
	// AreaMM2 is the design area (cores plus network).
	AreaMM2 float64
	Routers int
	// Name is the topology's name, the last tie-break.
	Name string
}

// Less orders design points by objective cost, breaking ties toward lower
// power, then lower area, then fewer routers, then name: among
// configurations the objective cannot distinguish (every Clos is 3 hops),
// the cheaper network wins, as a designer would choose. Costs within the
// mapper's tiny load-balance tie-break term (1e-3) count as equal, so Less
// is not transitive: a pick is reproducible only when the candidates are
// folded in one fixed order, library order in Phase 2.
func Less(a, b Point) bool {
	const tieTol = 2e-3
	if d := a.Cost - b.Cost; d < -tieTol || d > tieTol {
		return d < 0
	}
	if a.PowerMW != b.PowerMW {
		return a.PowerMW < b.PowerMW
	}
	if a.AreaMM2 != b.AreaMM2 {
		return a.AreaMM2 < b.AreaMM2
	}
	if a.Routers != b.Routers {
		return a.Routers < b.Routers
	}
	return a.Name < b.Name
}
