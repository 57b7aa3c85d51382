package topology

import "fmt"

// CustomSpec describes an arbitrary topology for NewCustom — the escape
// hatch the synthesized (application-specific) topologies of internal/synth
// are built through. Links are given as undirected router pairs; each
// becomes a bidirectional channel pair, matching the mesh-style links of
// the library's direct topologies.
type CustomSpec struct {
	// Name is the canonical identifier (e.g. "synth-cluster4-mpeg4"); it
	// must be non-empty and should not collide with the library's name
	// grammar (mesh-RxC, clos-mMnNrR, ...).
	Name string
	// NumRouters is the switch count.
	NumRouters int
	// BiLinks lists undirected router pairs; each adds channels both ways.
	// Pairs must not repeat (in either orientation) or self-loop.
	BiLinks [][2]int
	// Terminals[t] is the router terminal t attaches to. Traffic of a core
	// mapped to terminal t both enters and leaves the network there.
	Terminals []int
	// RouterPos holds the relative placement of each router (grid units,
	// consumed by the floorplanner). Length NumRouters.
	RouterPos [][2]float64
	// TerminalPos holds the relative placement of each terminal's core
	// block. Length len(Terminals).
	TerminalPos [][2]float64
}

// customTopology is an arbitrary synthesized network. Unlike the library
// families it has no closed-form quadrant; per-pair masks are precomputed
// from BFS distances so minimum-path routing still searches a restricted
// region (the union of all minimum paths, the defining property of
// Section 4.3).
type customTopology struct {
	*base
	// quad[s*numRouters+d] is the allowed-router mask for traffic entering
	// at router s and leaving at router d.
	quad [][]bool
}

// NewCustom builds and validates a topology from an explicit specification.
// The returned topology has Kind Synth.
func NewCustom(spec CustomSpec) (Topology, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("topology: custom topology needs a name")
	}
	if spec.NumRouters < 1 {
		return nil, fmt.Errorf("topology: custom %s has %d routers", spec.Name, spec.NumRouters)
	}
	if len(spec.Terminals) < 1 {
		return nil, fmt.Errorf("topology: custom %s has no terminals", spec.Name)
	}
	if len(spec.RouterPos) != spec.NumRouters {
		return nil, fmt.Errorf("topology: custom %s has %d router positions, want %d",
			spec.Name, len(spec.RouterPos), spec.NumRouters)
	}
	if len(spec.TerminalPos) != len(spec.Terminals) {
		return nil, fmt.Errorf("topology: custom %s has %d terminal positions, want %d",
			spec.Name, len(spec.TerminalPos), len(spec.Terminals))
	}
	c := &customTopology{base: newBase(spec.Name, Synth, spec.NumRouters, len(spec.Terminals))}
	seen := make(map[[2]int]bool, len(spec.BiLinks))
	for _, l := range spec.BiLinks {
		u, v := l[0], l[1]
		if u < 0 || u >= spec.NumRouters || v < 0 || v >= spec.NumRouters {
			return nil, fmt.Errorf("topology: custom %s link %d-%d out of range", spec.Name, u, v)
		}
		if u == v {
			return nil, fmt.Errorf("topology: custom %s has self-loop on router %d", spec.Name, u)
		}
		key := [2]int{minInt(u, v), maxInt(u, v)}
		if seen[key] {
			return nil, fmt.Errorf("topology: custom %s repeats link %d-%d", spec.Name, u, v)
		}
		seen[key] = true
		c.addBiLink(u, v)
	}
	for t, r := range spec.Terminals {
		if r < 0 || r >= spec.NumRouters {
			return nil, fmt.Errorf("topology: custom %s terminal %d on router %d out of range",
				spec.Name, t, r)
		}
		c.inject[t] = r
		c.eject[t] = r
		c.tpos[t] = spec.TerminalPos[t]
	}
	for r := range spec.RouterPos {
		c.pos[r] = spec.RouterPos[r]
	}
	c.buildQuadrants()
	if err := Validate(c); err != nil {
		return nil, err
	}
	return c, nil
}

// buildQuadrants precomputes, for every router pair (s,d), the set of
// routers lying on at least one minimum-hop s->d path: router u qualifies
// when dist(s,u) + dist(u,d) equals dist(s,d). The masks therefore preserve
// minimum distances by construction. Pairs with no path fall back to the
// full-router mask so the disconnection surfaces as a routing error rather
// than a silently wrong restriction.
func (c *customTopology) buildQuadrants() {
	n := c.NumRouters()
	fwd := make([][]int, n) // fwd[s][u]: hop distance s->u
	bwd := make([][]int, n) // bwd[d][u]: hop distance u->d
	for r := 0; r < n; r++ {
		fwd[r] = c.rg.BFSDistances(r, false)
		bwd[r] = c.rg.BFSDistances(r, true)
	}
	c.quad = make([][]bool, n*n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			total := fwd[s][d]
			if total < 0 {
				c.quad[s*n+d] = c.allRouters()
				continue
			}
			mask := make([]bool, n)
			for u := 0; u < n; u++ {
				if fwd[s][u] >= 0 && bwd[d][u] >= 0 && fwd[s][u]+bwd[d][u] == total {
					mask[u] = true
				}
			}
			c.quad[s*n+d] = mask
		}
	}
}

// Quadrant returns a copy of the precomputed minimum-path mask for the
// terminal pair's routers.
func (c *customTopology) Quadrant(src, dst int) []bool {
	mask := c.mask(src, dst)
	out := make([]bool, len(mask))
	copy(out, mask)
	return out
}

// mask is the terminal pair's precomputed mask itself, which must not be
// mutated; the routing tables read it in place.
func (c *customTopology) mask(src, dst int) []bool {
	return c.quad[c.inject[src]*c.NumRouters()+c.eject[dst]]
}
