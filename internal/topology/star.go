package topology

import "fmt"

// starTopology is the star-connected on-chip network of Lee et al. [10]:
// a single central switch to which every core attaches directly. Every
// route is one hop through the hub, at the price of an n x n crossbar whose
// area and energy grow quadratically — a useful extreme point for design-
// space exploration.
type starTopology struct {
	*base
}

// NewStar constructs a star with n terminals (n >= 2) around one hub.
func NewStar(n int) (Topology, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: invalid star with %d terminals", n)
	}
	name := fmt.Sprintf("star-%d", n)
	if _, err := checkSize(name, "terminals", n); err != nil {
		return nil, err
	}
	s := &starTopology{base: newBase(name, Star, 1, n)}
	// The hub sits at the centre of a ring of cores.
	side := (n + 3) / 4 // cores per side of the surrounding square, roughly
	if side < 1 {
		side = 1
	}
	s.pos[0] = [2]float64{float64(side) / 2, float64(side) / 2}
	for t := 0; t < n; t++ {
		s.inject[t] = 0
		s.eject[t] = 0
		// Spread terminals around the hub on a square spiral.
		angleIdx := t % 4
		ring := t/4 + 1
		var x, y float64
		switch angleIdx {
		case 0:
			x, y = s.pos[0][0]+float64(ring), s.pos[0][1]
		case 1:
			x, y = s.pos[0][0]-float64(ring), s.pos[0][1]
		case 2:
			x, y = s.pos[0][0], s.pos[0][1]+float64(ring)
		default:
			x, y = s.pos[0][0], s.pos[0][1]-float64(ring)
		}
		s.tpos[t] = [2]float64{x, y}
	}
	return s, nil
}

// Quadrant is the single hub router.
func (s *starTopology) Quadrant(src, dst int) []bool {
	return []bool{true}
}
