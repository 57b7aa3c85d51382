package topology

import "fmt"

// meshTopology is a rows x cols 2-D mesh (Fig. 1a). Router (r,c) has index
// r*cols+c; every router is a terminal.
type meshTopology struct {
	*base
	rows, cols int
}

// NewMesh constructs a rows x cols mesh. Both dimensions must be at least 1
// and the mesh must contain at least 2 routers.
func NewMesh(rows, cols int) (Topology, error) {
	if rows < 1 || cols < 1 || rows == 1 && cols == 1 {
		return nil, fmt.Errorf("topology: invalid mesh %dx%d", rows, cols)
	}
	name := fmt.Sprintf("mesh-%dx%d", rows, cols)
	n, err := checkSize(name, "terminals", rows, cols)
	if err != nil {
		return nil, err
	}
	m := &meshTopology{
		base: newBase(name, Mesh, n, n),
		rows: rows,
		cols: cols,
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			u := r*cols + c
			if c+1 < cols {
				m.addBiLink(u, u+1)
			}
			if r+1 < rows {
				m.addBiLink(u, u+cols)
			}
			m.inject[u] = u
			m.eject[u] = u
			m.pos[u] = [2]float64{float64(c), float64(r)}
			m.tpos[u] = m.pos[u]
		}
	}
	return m, nil
}

// Quadrant returns the bounding box spanned by the source and destination
// rows and columns — the shaded region of Fig. 3(b).
func (m *meshTopology) Quadrant(src, dst int) []bool {
	sr, sc := src/m.cols, src%m.cols
	dr, dc := dst/m.cols, dst%m.cols
	r0, r1 := minInt(sr, dr), maxInt(sr, dr)
	c0, c1 := minInt(sc, dc), maxInt(sc, dc)
	mask := make([]bool, m.NumRouters())
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			mask[r*m.cols+c] = true
		}
	}
	return mask
}

// GridDims returns the mesh dimensions; dimension-ordered routing uses it.
func (m *meshTopology) GridDims() (rows, cols int) { return m.rows, m.cols }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
