package topology

import "fmt"

// torusTopology is a rows x cols 2-D torus (Fig. 1b): a mesh plus
// wrap-around channels joining opposite edges.
type torusTopology struct {
	*base
	rows, cols int
}

// NewTorus constructs a rows x cols torus. Each dimension must be at least
// 3 so that wrap-around channels are distinct from mesh channels.
func NewTorus(rows, cols int) (Topology, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("topology: invalid torus %dx%d (dims must be >= 3)", rows, cols)
	}
	name := fmt.Sprintf("torus-%dx%d", rows, cols)
	n, err := checkSize(name, "terminals", rows, cols)
	if err != nil {
		return nil, err
	}
	t := &torusTopology{
		base: newBase(name, Torus, n, n),
		rows: rows,
		cols: cols,
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			u := r*cols + c
			right := r*cols + (c+1)%cols
			down := ((r+1)%rows)*cols + c
			t.addBiLink(u, right)
			t.addBiLink(u, down)
			t.inject[u] = u
			t.eject[u] = u
			t.pos[u] = [2]float64{float64(c), float64(r)}
			t.tpos[u] = t.pos[u]
		}
	}
	return t, nil
}

// Quadrant returns the smallest wrap-aware bounding box between source and
// destination (Fig. 3c): per axis the shorter of the direct and wrap-around
// intervals, preferring the direct one on ties.
func (t *torusTopology) Quadrant(src, dst int) []bool {
	sr, sc := src/t.cols, src%t.cols
	dr, dc := dst/t.cols, dst%t.cols
	rowOK := cyclicInterval(sr, dr, t.rows)
	colOK := cyclicInterval(sc, dc, t.cols)
	mask := make([]bool, t.NumRouters())
	for r := 0; r < t.rows; r++ {
		if !rowOK[r] {
			continue
		}
		for c := 0; c < t.cols; c++ {
			if colOK[c] {
				mask[r*t.cols+c] = true
			}
		}
	}
	return mask
}

// GridDims returns the torus dimensions; dimension-ordered routing uses it.
func (t *torusTopology) GridDims() (rows, cols int) { return t.rows, t.cols }

// cyclicInterval marks the coordinates on the shorter cyclic route from a
// to b on a ring of size n (direct route preferred on ties).
func cyclicInterval(a, b, n int) []bool {
	ok := make([]bool, n)
	if a == b {
		ok[a] = true
		return ok
	}
	fwdLen := (b - a + n) % n // steps going +1 from a to b
	bwdLen := (a - b + n) % n // steps going -1
	if fwdLen <= bwdLen {
		for i, x := 0, a; i <= fwdLen; i, x = i+1, (x+1)%n {
			ok[x] = true
		}
	} else {
		for i, x := 0, a; i <= bwdLen; i, x = i+1, (x-1+n)%n {
			ok[x] = true
		}
	}
	return ok
}
