package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// oraclePQ is the old container/heap-based priority queue, kept here as the
// reference the boxing-free heap must match pop-for-pop. Equal-distance
// vertices are popped in a heap-shape-dependent order that decides which of
// several equal-cost shortest paths Dijkstra reports; the rewrite must not
// change it, or previously cached/published mapping results would shift.
type oraclePQ []pqItem

func (q oraclePQ) Len() int            { return len(q) }
func (q oraclePQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q oraclePQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *oraclePQ) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *oraclePQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// weightFunc maps an arc (by tail vertex and arc value) to a non-negative
// cost; +Inf removes the arc. It is the oracle's weight interface, the
// per-arc closure the solver took before its weights became arguments.
type weightFunc func(from int, a Arc) float64

// oracleDijkstra is the pre-rewrite Dijkstra verbatim (container/heap,
// fresh allocations, a full run to every vertex).
func oracleDijkstra(d *Digraph, src int, w weightFunc, allowed []bool) (dist []float64, prevV, prevArc []int) {
	n := d.NumVertices()
	dist = make([]float64, n)
	prevV = make([]int, n)
	prevArc = make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevV[i] = -1
		prevArc[i] = -1
	}
	if allowed != nil && !allowed[src] {
		return dist, prevV, prevArc
	}
	dist[src] = 0
	q := oraclePQ{{v: src, dist: 0}}
	done := make([]bool, n)
	for q.Len() > 0 {
		it := heap.Pop(&q).(pqItem)
		u := it.v
		if done[u] || it.dist > dist[u] {
			continue
		}
		done[u] = true
		for _, a := range d.Out(u) {
			if allowed != nil && !allowed[a.To] {
				continue
			}
			wt := w(u, a)
			if math.IsInf(wt, 1) {
				continue
			}
			if nd := dist[u] + wt; nd < dist[a.To] {
				dist[a.To] = nd
				prevV[a.To] = u
				prevArc[a.To] = a.ID
				heap.Push(&q, pqItem{v: a.To, dist: nd})
			}
		}
	}
	return dist, prevV, prevArc
}

// oraclePath recovers the src->dst path from the oracle's predecessor
// arrays.
func oraclePath(src, dst int, dist []float64, prevV, prevArc []int) (verts, arcs []int, ok bool) {
	if math.IsInf(dist[dst], 1) {
		return nil, nil, false
	}
	for u := dst; u != src; u = prevV[u] {
		verts = append(verts, u)
		arcs = append(arcs, prevArc[u])
	}
	verts = append(verts, src)
	slices.Reverse(verts)
	slices.Reverse(arcs)
	return verts, arcs, true
}

// randomArcMask returns a mask over arc IDs [0, numArcs) with each entry
// set with probability pct/100, or nil on a third of the calls.
func randomArcMask(rng *rand.Rand, numArcs, pct int) []bool {
	if rng.Intn(3) == 0 {
		return nil
	}
	m := make([]bool, numArcs)
	for i := range m {
		m[i] = rng.Intn(100) < pct
	}
	return m
}

// TestSPSolverMatchesContainerHeapOracle stresses tie-breaking: random
// graphs whose loads are drawn from {0, 1, 2} with bias 0 or 1e-9, so
// many equal-cost paths exist and the predecessor choice is decided purely
// by heap pop order. With random dag, down and allowed masks, DijkstraLoads
// must agree with the full-run container/heap oracle — whose closure gives
// masked arcs +Inf — on Dist(dst) and on the recovered path, for every
// (src, dst) pair.
func TestSPSolverMatchesContainerHeapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewSPSolver()
	var verts, arcs []int
	for trial := 0; trial < 200; trial++ {
		n := 4 + rng.Intn(24)
		d := NewDigraph(n)
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			d.AddArc(u, v, d.NumArcs())
		}
		loads := make([]float64, d.NumArcs())
		for i := range loads {
			loads[i] = float64(rng.Intn(3)) // heavy tie pressure
		}
		bias := 0.0
		if trial%2 == 1 {
			bias = 1e-9
		}
		dag := randomArcMask(rng, d.NumArcs(), 75)
		down := randomArcMask(rng, d.NumArcs(), 20)
		var allowed []bool
		if trial%3 == 0 {
			allowed = make([]bool, n)
			for i := range allowed {
				allowed[i] = rng.Intn(4) > 0
			}
		}
		w := func(_ int, a Arc) float64 {
			if (dag != nil && !dag[a.ID]) || (down != nil && down[a.ID]) {
				return math.Inf(1)
			}
			return loads[a.ID] + bias
		}
		for src := 0; src < n; src++ {
			wantDist, wantPrevV, wantPrevArc := oracleDijkstra(d, src, w, allowed)
			for dst := 0; dst < n; dst++ {
				s.DijkstraLoads(d, src, dst, loads, bias, dag, down, allowed)
				if got := s.Dist(dst); got != wantDist[dst] {
					t.Fatalf("trial %d: dist(%d->%d) = %v, oracle %v", trial, src, dst, got, wantDist[dst])
				}
				var ok bool
				verts, arcs, ok = s.PathTo(src, dst, verts, arcs)
				wantVerts, wantArcs, wantOK := oraclePath(src, dst, wantDist, wantPrevV, wantPrevArc)
				if ok != wantOK || !slices.Equal(verts, wantVerts) || !slices.Equal(arcs, wantArcs) {
					t.Fatalf("trial %d: path %d->%d = %v %v %v, oracle %v %v %v",
						trial, src, dst, verts, arcs, ok, wantVerts, wantArcs, wantOK)
				}
			}
		}
	}
}

// TestSPSolverReuseAcrossSizes checks the epoch-stamped reset: a solver
// shrunk onto a smaller graph must not leak distances from a previous
// larger run.
func TestSPSolverReuseAcrossSizes(t *testing.T) {
	s := NewSPSolver()
	big := NewDigraph(10)
	for i := 0; i+1 < 10; i++ {
		big.AddArc(i, i+1, i)
	}
	s.DijkstraLoads(big, 0, -1, unitLoads(big), 1, nil, nil, nil)
	if got := s.Dist(9); got != 9 {
		t.Fatalf("chain dist = %v, want 9", got)
	}
	small := NewDigraph(3)
	small.AddArc(0, 1, 0)
	s.DijkstraLoads(small, 0, -1, unitLoads(small), 1, nil, nil, nil)
	if got := s.Dist(1); got != 1 {
		t.Errorf("small dist[1] = %v, want 1", got)
	}
	if got := s.Dist(2); !math.IsInf(got, 1) {
		t.Errorf("small dist[2] = %v, want +Inf (stale state leaked)", got)
	}
	verts, arcs, ok := s.PathTo(0, 1, nil, nil)
	if !ok || len(verts) != 2 || len(arcs) != 1 {
		t.Errorf("PathTo = %v %v %v", verts, arcs, ok)
	}
}
