package topology

import "fmt"

// closTopology is a 3-stage Clos network (Fig. 2a): r ingress switches of
// n terminals each, m middle switches, r egress switches. Every ingress
// switch connects to every middle switch and every middle switch to every
// egress switch, giving m disjoint paths between any terminal pair — the
// maximum path diversity exploited in Section 6.2.
type closTopology struct {
	*base
	m, n, r int
}

// NewClos constructs a Clos(m, n, r) with m middle switches, n terminals
// per ingress/egress switch and r ingress (and egress) switches.
func NewClos(m, n, r int) (Topology, error) {
	if m < 1 || n < 1 || r < 1 || n == 1 && r == 1 {
		return nil, fmt.Errorf("topology: invalid clos(m=%d,n=%d,r=%d)", m, n, r)
	}
	name := fmt.Sprintf("clos-m%dn%dr%d", m, n, r)
	terms, err := checkSize(name, "terminals", n, r)
	if err != nil {
		return nil, err
	}
	// Each stage has m·r channels; bound them like the terminals.
	if _, err := checkSize(name, "channels per stage", m, r); err != nil {
		return nil, err
	}
	c := &closTopology{
		base: newBase(name, Clos, 2*r+m, terms),
		m:    m, n: n, r: r,
	}
	// Router indices: ingress 0..r-1, middle r..r+m-1, egress r+m..2r+m-1.
	for i := 0; i < r; i++ {
		for j := 0; j < m; j++ {
			c.addLink(i, r+j)     // ingress -> middle
			c.addLink(r+j, r+m+i) // middle -> egress
		}
	}
	for t := 0; t < n*r; t++ {
		c.inject[t] = t / n
		c.eject[t] = r + m + t/n
	}
	// Placement: ingress column 1, middle column 2, egress column 3;
	// terminals alternate between columns 0 and 4.
	for i := 0; i < r; i++ {
		c.pos[i] = [2]float64{1, float64(i)}
		c.pos[r+m+i] = [2]float64{3, float64(i)}
	}
	midScale := 1.0
	if m > 1 && r > 1 {
		midScale = float64(r-1) / float64(m-1)
	}
	for j := 0; j < m; j++ {
		c.pos[r+j] = [2]float64{2, float64(j) * midScale}
	}
	for t := 0; t < n*r; t++ {
		col := 0.0
		if t%2 == 1 {
			col = 4
		}
		c.tpos[t] = [2]float64{col, float64(t / 2)}
	}
	return c, nil
}

// Quadrant admits the source ingress switch, every middle switch and the
// destination egress switch: with full inter-stage connectivity every
// minimum path has this shape (Section 4.3 calls the construction trivial).
func (c *closTopology) Quadrant(src, dst int) []bool {
	mask := make([]bool, c.NumRouters())
	mask[src/c.n] = true
	for j := 0; j < c.m; j++ {
		mask[c.r+j] = true
	}
	mask[c.r+c.m+dst/c.n] = true
	return mask
}

// Params returns the (m, n, r) configuration.
func (c *closTopology) Params() (m, n, r int) { return c.m, c.n, c.r }
