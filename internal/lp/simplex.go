// Package lp provides a small dense linear-programming solver used by
// SUNMAP's LP-based floorplanner (Section 5 of the paper, after [21]).
// Problems are stated as minimization of a non-negative objective over
// non-negative variables with <= and >= constraints — exactly the
// floorplanner's shape. The slack basis of such a problem is always dual
// feasible and the problem is never unbounded below, so one algorithm
// covers it: dual simplex from the all-slack basis, with no phase-1
// artificials. The solver targets the floorplanner's scale (tens to a
// few hundred variables); it is exact up to floating-point tolerance,
// not a high-performance general solver.
package lp

import (
	"fmt"
	"math"
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // <=
	GE            // >=
)

// Constraint is one row: Coeffs · x  Rel  RHS. Coeffs may be shorter than
// the variable count; missing entries are zero.
type Constraint struct {
	Coeffs []float64
	Rel    Rel
	RHS    float64
}

// Problem is minimize Objective · x subject to Constraints, x >= 0.
type Problem struct {
	// NumVars is the number of decision variables.
	NumVars int
	// Objective holds the cost coefficients (length NumVars; shorter
	// slices are zero-padded). Every coefficient must be non-negative.
	Objective []float64
	// Constraints are the rows.
	Constraints []Constraint
}

// AddConstraint appends a row and returns its index.
func (p *Problem) AddConstraint(coeffs []float64, rel Rel, rhs float64) int {
	p.Constraints = append(p.Constraints, Constraint{Coeffs: coeffs, Rel: rel, RHS: rhs})
	return len(p.Constraints) - 1
}

// Status reports the outcome of Solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
}

const (
	eps = 1e-9
	// maxPivots caps one solve. The largest floorplan LPs (hundreds of
	// soft cores, thousands of rows) need a few thousand pivots.
	maxPivots = 50000
)

// Solver holds reusable dual-simplex workspace: the tableau rows live in
// one flat arena, and the basis, reduced-cost and solution vectors are
// recycled across Solve calls. One Solver serves one goroutine; the
// floorplanner keeps one per mapping Scratch so the per-candidate (and
// final) LP solves perform no steady-state allocations. Solutions
// returned by a Solver alias its scratch (see Solver.Solve).
type Solver struct {
	arena []float64
	tab   [][]float64
	basis []int
	z     []float64
	x     []float64
}

// NewSolver returns a Solver with empty workspace; buffers grow on first
// use.
func NewSolver() *Solver { return &Solver{} }

// Solve minimizes p by dual simplex from the all-slack basis. It rejects
// malformed problems (no variables, oversized rows, unknown relations,
// negative objective coefficients) and reports an error if the pivot cap
// trips.
//
// The returned Solution's X aliases the Solver's scratch and is valid
// only until the next Solve call on the same Solver; callers keeping it
// must copy it out.
func (s *Solver) Solve(p Problem) (Solution, error) {
	if p.NumVars <= 0 {
		return Solution{}, fmt.Errorf("lp: no variables")
	}
	for i, c := range p.Constraints {
		if len(c.Coeffs) > p.NumVars {
			return Solution{}, fmt.Errorf("lp: constraint %d has %d coefficients for %d variables",
				i, len(c.Coeffs), p.NumVars)
		}
		if c.Rel != LE && c.Rel != GE {
			return Solution{}, fmt.Errorf("lp: constraint %d has unknown relation %d", i, int(c.Rel))
		}
	}
	if len(p.Objective) > p.NumVars {
		return Solution{}, fmt.Errorf("lp: objective has %d coefficients for %d variables",
			len(p.Objective), p.NumVars)
	}
	for j, c := range p.Objective {
		if c < 0 {
			return Solution{}, fmt.Errorf("lp: objective coefficient %d is negative (%g)", j, c)
		}
	}
	return s.solveDual(p)
}

// rows carves m zeroed rows of the given width out of the Solver's
// arena, growing it only when the problem outgrows every previous one.
func (s *Solver) rows(m, width int) [][]float64 {
	need := m * width
	if cap(s.arena) < need {
		s.arena = make([]float64, need)
	}
	s.arena = s.arena[:need]
	for i := range s.arena {
		s.arena[i] = 0
	}
	if cap(s.tab) < m {
		s.tab = make([][]float64, m)
	}
	s.tab = s.tab[:m]
	for i := 0; i < m; i++ {
		s.tab[i] = s.arena[i*width : (i+1)*width]
	}
	return s.tab
}

func resizeInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func resizeFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

// solveDual runs dual simplex from the all-slack basis. Solve has already
// checked that every objective coefficient is non-negative, so the slack
// basis is dual feasible and the problem can never be unbounded below.
func (s *Solver) solveDual(p Problem) (Solution, error) {
	m := len(p.Constraints)
	n := p.NumVars
	if m == 0 {
		s.x = resizeFloats(s.x, n)
		return Solution{Status: Optimal, X: s.x}, nil
	}
	total := n + m
	tab := s.rows(m, total+1)
	basis := resizeInts(s.basis, m)
	s.basis = basis
	for i, c := range p.Constraints {
		row := tab[i]
		sign := 1.0
		if c.Rel == GE { // a·x >= b  ⇔  -a·x <= -b
			sign = -1
		}
		for j, v := range c.Coeffs {
			row[j] = sign * v
		}
		row[total] = sign * c.RHS
		row[n+i] = 1
		basis[i] = n + i
	}
	// Reduced costs start at the objective itself (all basis costs are 0)
	// and stay non-negative throughout — the dual-feasibility invariant.
	z := resizeFloats(s.z, total+1)
	s.z = z
	copy(z, p.Objective)
	for iter := 0; iter <= maxPivots; iter++ {
		// Leaving row: most negative RHS (most violated constraint),
		// ties toward the smallest basis index for determinism.
		leave := -1
		worst := -eps
		for i := 0; i < m; i++ {
			if r := tab[i][total]; r < worst-eps || (r < worst+eps && r < -eps && (leave == -1 || basis[i] < basis[leave])) {
				worst = r
				leave = i
			}
		}
		if leave == -1 {
			// Primal feasible and still dual feasible: optimal.
			x := resizeFloats(s.x, n)
			s.x = x
			for i, b := range basis {
				if b < n {
					x[b] = tab[i][total]
				}
			}
			var objVal float64
			for j := 0; j < n && j < len(p.Objective); j++ {
				objVal += p.Objective[j] * x[j]
			}
			return Solution{Status: Optimal, X: x, Objective: objVal}, nil
		}
		// Entering column: dual ratio test over negative row entries,
		// ties toward the smallest column index.
		enter := -1
		best := math.Inf(1)
		row := tab[leave]
		for j := 0; j < total; j++ {
			if a := row[j]; a < -eps {
				if ratio := z[j] / -a; ratio < best-eps {
					best = ratio
					enter = j
				}
			}
		}
		if enter == -1 {
			// The violated row has no negative coefficient: infeasible.
			return Solution{Status: Infeasible}, nil
		}
		pivot(tab, basis, z, leave, enter)
	}
	return Solution{}, fmt.Errorf("lp: dual simplex did not converge in %d pivots (%d variables, %d rows)",
		maxPivots, n, m)
}

// pivot performs a basis change on row r, column c, updating the
// reduced-cost row z too.
func pivot(tab [][]float64, basis []int, z []float64, r, c int) {
	norm := tab[r][c]
	for j := range tab[r] {
		tab[r][j] /= norm
	}
	for i := range tab {
		if i == r {
			continue
		}
		f := tab[i][c]
		if f == 0 {
			continue
		}
		for j := range tab[i] {
			tab[i][j] -= f * tab[r][j]
		}
	}
	basis[r] = c
	if f := z[c]; f != 0 {
		for j := range z {
			z[j] -= f * tab[r][j]
		}
	}
}
