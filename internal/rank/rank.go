// Package rank defines Phase 2's order over feasible design points
// (Section 3 of the paper): the one comparison by which the selection,
// its fault-aware re-pick and the figure reproductions of internal/exp
// fold candidates, and the composite score by which the re-pick and the
// topology search weigh cost against survivability. It depends on
// nothing, so the selection layer, the search and code that sees only
// Session reports can all call it.
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

// ReliabilityScore is the composite objective of a fault-aware ranking:
// objective cost normalized by the best feasible cost, plus w·(1 −
// survivability). A non-positive w selects the default weight 1. Phase
// 2's reliability re-pick and the topology search's final fold share this
// function, so a machine-discovered network is judged by exactly the rule
// that ranks library candidates.
func ReliabilityScore(cost, bestCost, survivability, w float64) float64 {
	if w <= 0 {
		w = 1
	}
	norm := 1.0
	if bestCost > 0 {
		norm = cost / bestCost
	}
	return norm + w*(1-survivability)
}
