package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func solveOK(t *testing.T, p Problem) Solution {
	t.Helper()
	s, err := NewSolver().Solve(p)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v, want optimal", s.Status)
	}
	return s
}

func TestGEAndEQConstraints(t *testing.T) {
	// min 2x+3y s.t. x+y = 10 (stated as a <=/>= pair), x >= 4. y = 10-x
	// makes the cost 30-x, so push x up to 10: x=10, y=0, cost 20.
	p := Problem{NumVars: 2, Objective: []float64{2, 3}}
	p.AddConstraint([]float64{1, 1}, LE, 10)
	p.AddConstraint([]float64{1, 1}, GE, 10)
	p.AddConstraint([]float64{1, 0}, GE, 4)
	s := solveOK(t, p)
	if math.Abs(s.Objective-20) > 1e-6 {
		t.Errorf("objective = %g, want 20 (x=%v)", s.Objective, s.X)
	}
}

func TestNegativeRHSNormalization(t *testing.T) {
	// -x <= -3  is  x >= 3; min x -> 3.
	p := Problem{NumVars: 1, Objective: []float64{1}}
	p.AddConstraint([]float64{-1}, LE, -3)
	s := solveOK(t, p)
	if math.Abs(s.X[0]-3) > 1e-6 {
		t.Errorf("x = %g, want 3", s.X[0])
	}
}

func TestInfeasible(t *testing.T) {
	p := Problem{NumVars: 1, Objective: []float64{1}}
	p.AddConstraint([]float64{1}, GE, 5)
	p.AddConstraint([]float64{1}, LE, 2)
	s, err := NewSolver().Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestBasicMaximizationAsMinimization(t *testing.T) {
	// max x+y s.t. x+y<=4, x<=2  ->  min -x-y; optimum -4 at (2,2). A
	// negative cost is outside the solver's domain, so Solve rejects it
	// before pivoting; the reference solver still finds the optimum.
	p := Problem{NumVars: 2, Objective: []float64{-1, -1}}
	p.AddConstraint([]float64{1, 1}, LE, 4)
	p.AddConstraint([]float64{1, 0}, LE, 2)
	if _, err := NewSolver().Solve(p); err == nil {
		t.Errorf("negative objective %v accepted", p.Objective)
	}
	status, objective, ok := twoPhaseBland(p)
	if !ok || status != Optimal || math.Abs(objective-(-4)) > 1e-6 {
		t.Errorf("reference: status %v, objective %g, ok %v; want optimal -4", status, objective, ok)
	}
}

func TestUnbounded(t *testing.T) {
	// min -x is unbounded below, with or without rows: Solve rejects the
	// negative cost up front instead of reporting a status, and the
	// reference solver runs away.
	p := Problem{NumVars: 2, Objective: []float64{-1, 0}}
	p.AddConstraint([]float64{0, 1}, LE, 5)
	noRows := Problem{NumVars: 1, Objective: []float64{-1}}
	for _, q := range []Problem{p, noRows} {
		if _, err := NewSolver().Solve(q); err == nil {
			t.Errorf("negative objective %v accepted", q.Objective)
		}
	}
	if _, _, ok := twoPhaseBland(p); ok {
		t.Error("reference solver bounded min -x")
	}
}

func TestNoConstraints(t *testing.T) {
	// With no rows, x = 0 minimizes any non-negative objective.
	s := solveOK(t, Problem{NumVars: 2, Objective: []float64{1, 0}})
	if s.X[0] != 0 || s.X[1] != 0 || s.Objective != 0 {
		t.Errorf("trivial problem: %+v", s)
	}
}

func TestRedundantEquality(t *testing.T) {
	// x+y = 2 stated twice, once scaled, each as a <=/>= pair: the
	// duplicated rows leave the problem degenerate, not infeasible.
	p := Problem{NumVars: 2, Objective: []float64{1, 1}}
	p.AddConstraint([]float64{1, 1}, LE, 2)
	p.AddConstraint([]float64{1, 1}, GE, 2)
	p.AddConstraint([]float64{2, 2}, LE, 4)
	p.AddConstraint([]float64{2, 2}, GE, 4)
	s := solveOK(t, p)
	if math.Abs(s.Objective-2) > 1e-6 {
		t.Errorf("objective = %g, want 2", s.Objective)
	}
}

func TestInputValidation(t *testing.T) {
	s := NewSolver()
	if _, err := s.Solve(Problem{NumVars: 0}); err == nil {
		t.Error("zero variables accepted")
	}
	p := Problem{NumVars: 1, Objective: []float64{1, 2}}
	if _, err := s.Solve(p); err == nil {
		t.Error("oversized objective accepted")
	}
	p2 := Problem{NumVars: 1}
	p2.AddConstraint([]float64{1, 2}, LE, 1)
	if _, err := s.Solve(p2); err == nil {
		t.Error("oversized constraint accepted")
	}
	p3 := Problem{NumVars: 1}
	p3.AddConstraint([]float64{1}, Rel(2), 1)
	if _, err := s.Solve(p3); err == nil {
		t.Error("unknown relation accepted")
	}
}

// feasible reports whether x satisfies p within tolerance.
func feasible(p Problem, x []float64) bool {
	for _, xi := range x {
		if xi < -1e-6 {
			return false
		}
	}
	for _, c := range p.Constraints {
		var lhs float64
		for j, v := range c.Coeffs {
			lhs += v * x[j]
		}
		switch c.Rel {
		case LE:
			if lhs > c.RHS+1e-6 {
				return false
			}
		case GE:
			if lhs < c.RHS-1e-6 {
				return false
			}
		}
	}
	return true
}

// bruteForce2D solves a 2-variable LP by enumerating candidate vertices:
// intersections of all constraint boundary pairs (including the axes).
func bruteForce2D(p Problem) (float64, bool) {
	type line struct{ a, b, c float64 } // a x + b y = c
	lines := []line{{1, 0, 0}, {0, 1, 0}}
	for _, cn := range p.Constraints {
		var a, b float64
		if len(cn.Coeffs) > 0 {
			a = cn.Coeffs[0]
		}
		if len(cn.Coeffs) > 1 {
			b = cn.Coeffs[1]
		}
		lines = append(lines, line{a, b, cn.RHS})
	}
	best := math.Inf(1)
	found := false
	for i := 0; i < len(lines); i++ {
		for j := i + 1; j < len(lines); j++ {
			det := lines[i].a*lines[j].b - lines[j].a*lines[i].b
			if math.Abs(det) < 1e-9 {
				continue
			}
			x := (lines[i].c*lines[j].b - lines[j].c*lines[i].b) / det
			y := (lines[i].a*lines[j].c - lines[j].a*lines[i].c) / det
			if !feasible(p, []float64{x, y}) {
				continue
			}
			found = true
			var obj float64
			if len(p.Objective) > 0 {
				obj += p.Objective[0] * x
			}
			if len(p.Objective) > 1 {
				obj += p.Objective[1] * y
			}
			if obj < best {
				best = obj
			}
		}
	}
	return best, found
}

// Property: on random bounded 2-variable LPs the simplex optimum matches
// brute-force vertex enumeration and the returned point is feasible.
func TestSimplexMatchesBruteForce2D(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Problem{
			NumVars:   2,
			Objective: []float64{rng.Float64() * 2, rng.Float64() * 2},
		}
		// Bounding box keeps every instance bounded; >= rows with a
		// positive right-hand side push the optimum off the origin.
		p.AddConstraint([]float64{1, 0}, LE, 5+rng.Float64()*5)
		p.AddConstraint([]float64{0, 1}, LE, 5+rng.Float64()*5)
		for k := 0; k < 3; k++ {
			a := rng.Float64()*4 - 2
			b := rng.Float64()*4 - 2
			rhs := rng.Float64() * 10
			if rng.Intn(2) == 0 {
				p.AddConstraint([]float64{a, b}, LE, rhs)
			} else {
				p.AddConstraint([]float64{a, b}, GE, rhs-5)
			}
		}
		s, err := NewSolver().Solve(p)
		if err != nil {
			return false
		}
		want, ok := bruteForce2D(p)
		if s.Status == Infeasible {
			return !ok
		}
		if !feasible(p, s.X) {
			return false
		}
		return math.Abs(s.Objective-want) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDualMatchesTwoPhase checks the dual simplex against twoPhaseBland
// on random problems of the floorplanner's shape: lower/upper bounds,
// tangent-style couplings and covering rows under non-negative
// objectives, with degenerate ties common. Status must agree and —
// optima being unique in value even when vertices are not — so must the
// objective.
func TestDualMatchesTwoPhase(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		p := Problem{NumVars: n, Objective: make([]float64, n)}
		for j := range p.Objective {
			p.Objective[j] = float64(rng.Intn(3)) // zeros included
		}
		rows := 2 + rng.Intn(12)
		for k := 0; k < rows; k++ {
			coeffs := make([]float64, n)
			nz := 1 + rng.Intn(3)
			for t := 0; t < nz; t++ {
				coeffs[rng.Intn(n)] = float64(rng.Intn(5) - 2)
			}
			rhs := float64(rng.Intn(7) - 1)
			if rng.Intn(2) == 0 {
				p.AddConstraint(coeffs, LE, rhs)
			} else {
				p.AddConstraint(coeffs, GE, rhs)
			}
		}
		dual, err := NewSolver().Solve(p)
		if err != nil {
			return false
		}
		status, objective, ok := twoPhaseBland(p)
		if !ok || dual.Status != status {
			return false
		}
		if status != Optimal {
			return true
		}
		return feasible(p, dual.X) && math.Abs(dual.Objective-objective) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// twoPhaseBland is the reference TestDualMatchesTwoPhase checks the
// solver against: textbook two-phase primal simplex under Bland's rule,
// which cannot cycle, written independently of the dual path. ok is
// false if phase 2 finds the problem unbounded or runs away, which no
// valid Problem should make it do.
func twoPhaseBland(p Problem) (status Status, objective float64, ok bool) {
	m, n := len(p.Constraints), p.NumVars
	// Columns: the n decision variables, one slack or surplus per row,
	// then one artificial per row whose slack cannot start basic (a >=
	// row once its right-hand side is made non-negative).
	numArt := 0
	for _, c := range p.Constraints {
		if (c.Rel == GE) != (c.RHS < 0) {
			numArt++
		}
	}
	artStart := n + m
	total := artStart + numArt
	tab := make([][]float64, m)
	basis := make([]int, m)
	art := artStart
	for i, c := range p.Constraints {
		row := make([]float64, total+1)
		sign, slack := 1.0, 1.0
		if c.RHS < 0 {
			sign = -1
		}
		if c.Rel == GE {
			slack = -1
		}
		for j, v := range c.Coeffs {
			row[j] = sign * v
		}
		row[n+i] = sign * slack
		row[total] = sign * c.RHS
		if row[n+i] > 0 {
			basis[i] = n + i
		} else {
			row[art] = 1
			basis[i] = art
			art++
		}
		tab[i] = row
	}
	if numArt > 0 {
		cost := make([]float64, total)
		for j := artStart; j < total; j++ {
			cost[j] = 1
		}
		if w, _ := blandSimplex(tab, basis, cost, total); w > 1e-7 {
			return Infeasible, 0, true
		}
		// Drive zero-level artificials out of the basis; a row with no
		// real column left to pivot on is redundant and dropped.
		for i := 0; i < len(tab); i++ {
			if basis[i] < artStart {
				continue
			}
			j := 0
			for j < artStart && math.Abs(tab[i][j]) <= 1e-7 {
				j++
			}
			if j < artStart {
				refPivot(tab, basis, nil, i, j)
			} else {
				tab = append(tab[:i], tab[i+1:]...)
				basis = append(basis[:i], basis[i+1:]...)
				i--
			}
		}
	}
	if len(tab) == 0 {
		return Optimal, 0, true // no rows: x = 0 minimizes a non-negative objective
	}
	cost := make([]float64, total)
	copy(cost, p.Objective)
	objective, ok = blandSimplex(tab, basis, cost, artStart)
	return Optimal, objective, ok
}

// blandSimplex minimizes cost over the tableau in place under Bland's
// rule: the lowest-index improving column enters, and ratio ties leave
// by the lowest basic index. Columns at or past barFrom never enter. It
// returns the optimum, and false if the problem is unbounded or the run
// exceeds its iteration cap.
func blandSimplex(tab [][]float64, basis []int, cost []float64, barFrom int) (float64, bool) {
	total := len(tab[0]) - 1
	z := make([]float64, total+1) // reduced costs; z[total] is -objective
	copy(z, cost)
	for i, b := range basis {
		if cb := cost[b]; cb != 0 {
			for j := range z {
				z[j] -= cb * tab[i][j]
			}
		}
	}
	for iter := 0; iter < 10000; iter++ {
		enter := -1
		for j := 0; j < barFrom; j++ {
			if z[j] < -eps {
				enter = j
				break
			}
		}
		if enter == -1 {
			return -z[total], true
		}
		leave := -1
		best := math.Inf(1)
		for i := range tab {
			if a := tab[i][enter]; a > eps {
				if r := tab[i][total] / a; r < best-eps || (r < best+eps && basis[i] < basis[leave]) {
					best, leave = r, i
				}
			}
		}
		if leave == -1 {
			return 0, false
		}
		refPivot(tab, basis, z, leave, enter)
	}
	return 0, false
}

// refPivot is the reference solver's basis change on row r, column c;
// z, when non-nil, is the reduced-cost row.
func refPivot(tab [][]float64, basis []int, z []float64, r, c int) {
	norm := tab[r][c]
	for j := range tab[r] {
		tab[r][j] /= norm
	}
	for i := range tab {
		if f := tab[i][c]; i != r && f != 0 {
			for j := range tab[i] {
				tab[i][j] -= f * tab[r][j]
			}
		}
	}
	if z != nil {
		if f := z[c]; f != 0 {
			for j := range z {
				z[j] -= f * tab[r][j]
			}
		}
	}
	basis[r] = c
}
