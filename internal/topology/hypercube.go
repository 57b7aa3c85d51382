package topology

import "fmt"

// hypercubeTopology is a 2-ary n-cube (Fig. 1c): 2^dim routers, each the
// attachment point of one terminal, with neighbours at Hamming distance 1.
type hypercubeTopology struct {
	*base
	dim int
}

// NewHypercube constructs a hypercube of the given dimension: at least 1
// and, under the 4096-terminal bound, at most 12.
func NewHypercube(dim int) (Topology, error) {
	if dim < 1 {
		return nil, fmt.Errorf("topology: invalid hypercube dimension %d", dim)
	}
	name := fmt.Sprintf("hypercube-%d", dim)
	n := 1
	for i := 0; i < dim; i++ {
		var err error
		if n, err = checkSize(name, "terminals", n, 2); err != nil {
			return nil, err
		}
	}
	h := &hypercubeTopology{
		base: newBase(name, Hypercube, n, n),
		dim:  dim,
	}
	// Project onto a 2-D grid for placement: the low half of the address
	// bits select the column, the high half the row.
	loBits := (dim + 1) / 2
	for u := 0; u < n; u++ {
		for b := 0; b < dim; b++ {
			v := u ^ (1 << b)
			if u < v { // add each undirected pair once
				h.addBiLink(u, v)
			}
		}
		h.inject[u] = u
		h.eject[u] = u
		h.pos[u] = [2]float64{float64(u & (1<<loBits - 1)), float64(u >> loBits)}
		h.tpos[u] = h.pos[u]
	}
	return h, nil
}

// Dim returns the hypercube dimension; dimension-ordered routing uses it.
func (h *hypercubeTopology) Dim() int { return h.dim }

// Quadrant returns the subcube spanned by the source and destination: all
// routers agreeing with both endpoints on every address bit where the
// endpoints agree (the (0,*,*) example of Section 4.3).
func (h *hypercubeTopology) Quadrant(src, dst int) []bool {
	same := ^(src ^ dst) // bits where src and dst agree
	mask := make([]bool, h.NumRouters())
	for u := 0; u < h.NumRouters(); u++ {
		if (u^src)&same&(1<<h.dim-1) == 0 {
			mask[u] = true
		}
	}
	return mask
}
