package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// grid builds an r x c grid digraph with bidirectional arcs; arc IDs count
// up in insertion order. Vertex (i,j) has index i*c+j.
func grid(r, c int) *Digraph {
	d := NewDigraph(r * c)
	id := 0
	add := func(u, v int) {
		d.AddArc(u, v, id)
		id++
		d.AddArc(v, u, id)
		id++
	}
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				add(i*c+j, i*c+j+1)
			}
			if i+1 < r {
				add(i*c+j, (i+1)*c+j)
			}
		}
	}
	return d
}

// unitLoads returns the all-zero load vector that, with bias 1, weighs
// every arc of d exactly 1 (arc IDs of the test graphs count up from 0).
func unitLoads(d *Digraph) []float64 { return make([]float64, d.NumArcs()) }

// distances runs a full search from src (dst -1 never settles) and
// returns every vertex's distance.
func distances(d *Digraph, src int, loads []float64, bias float64, allowed []bool) []float64 {
	s := NewSPSolver()
	s.DijkstraLoads(d, src, -1, loads, bias, nil, nil, allowed)
	dist := make([]float64, d.NumVertices())
	for v := range dist {
		dist[v] = s.Dist(v)
	}
	return dist
}

// shortestPath returns the src->dst path under loads+bias.
func shortestPath(d *Digraph, src, dst int, loads []float64, bias float64, down []bool) (verts, arcs []int, ok bool) {
	s := NewSPSolver()
	s.DijkstraLoads(d, src, dst, loads, bias, nil, down, nil)
	return s.PathTo(src, dst, nil, nil)
}

func TestDijkstraUnitGrid(t *testing.T) {
	d := grid(3, 4)
	dist := distances(d, 0, unitLoads(d), 1, nil)
	// Manhattan distance on grid.
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			want := float64(i + j)
			if got := dist[i*4+j]; got != want {
				t.Errorf("dist(0 -> (%d,%d)) = %g, want %g", i, j, got, want)
			}
		}
	}
}

func TestShortestPathRecovery(t *testing.T) {
	d := grid(3, 4)
	verts, arcs, ok := shortestPath(d, 0, 11, unitLoads(d), 1, nil)
	if !ok {
		t.Fatal("no path found")
	}
	if len(verts) != 6 || len(arcs) != 5 {
		t.Fatalf("path length = %d verts %d arcs, want 6/5", len(verts), len(arcs))
	}
	if verts[0] != 0 || verts[len(verts)-1] != 11 {
		t.Errorf("endpoints %d..%d, want 0..11", verts[0], verts[len(verts)-1])
	}
	// consecutive vertices must be adjacent
	for i := 0; i+1 < len(verts); i++ {
		found := false
		for _, a := range d.Out(verts[i]) {
			if a.To == verts[i+1] && a.ID == arcs[i] {
				found = true
			}
		}
		if !found {
			t.Errorf("step %d: %d->%d not an arc", i, verts[i], verts[i+1])
		}
	}
}

func TestDijkstraRespectsAllowed(t *testing.T) {
	d := grid(3, 3)
	// Only allow the top row and right column: 0 1 2, 5, 8.
	allowed := make([]bool, 9)
	for _, v := range []int{0, 1, 2, 5, 8} {
		allowed[v] = true
	}
	dist := distances(d, 0, unitLoads(d), 1, allowed)
	if dist[8] != 4 {
		t.Errorf("restricted dist = %g, want 4", dist[8])
	}
	if !math.IsInf(dist[4], 1) {
		t.Errorf("forbidden vertex reached: dist=%g", dist[4])
	}
	// Unreachable when the source is excluded.
	allowed[0] = false
	dist = distances(d, 0, unitLoads(d), 1, allowed)
	if !math.IsInf(dist[8], 1) {
		t.Error("path found from excluded source")
	}
}

func TestDijkstraWeightFunc(t *testing.T) {
	// Two routes 0->3: direct arc cost 10 vs 0->1->2->3 cost 3.
	d := NewDigraph(4)
	d.AddArc(0, 3, 0)
	d.AddArc(0, 1, 1)
	d.AddArc(1, 2, 2)
	d.AddArc(2, 3, 3)
	loads := []float64{9, 0, 0, 0}
	verts, _, ok := shortestPath(d, 0, 3, loads, 1, nil)
	if !ok || len(verts) != 4 {
		t.Fatalf("path %v ok=%v, want detour of 4 vertices", verts, ok)
	}
	// A down arc is removed entirely.
	verts, _, ok = shortestPath(d, 0, 3, loads, 1, []bool{false, true, true, true})
	if !ok || len(verts) != 2 {
		t.Fatalf("direct path %v ok=%v, want 0->3", verts, ok)
	}
}

func TestHopDistance(t *testing.T) {
	d := grid(4, 4)
	if got := d.HopDistance(0, 15, nil); got != 6 {
		t.Errorf("HopDistance corner-to-corner = %d, want 6", got)
	}
	if got := d.HopDistance(5, 5, nil); got != 0 {
		t.Errorf("HopDistance self = %d, want 0", got)
	}
	// Disconnected when allowed excludes everything but the endpoints.
	allowed := make([]bool, 16)
	allowed[0], allowed[15] = true, true
	if got := d.HopDistance(0, 15, allowed); got != -1 {
		t.Errorf("HopDistance disconnected = %d, want -1", got)
	}
}

// minHopMask runs MinHopArcsInto with fresh buffers.
func minHopMask(d *Digraph, numArcs, src, dst int, allowed []bool) []bool {
	n := d.NumVertices()
	mask := make([]bool, numArcs)
	d.MinHopArcsInto(mask, src, dst, allowed, make([]int, n), make([]int, n), make([]bool, n))
	return mask
}

// allMinHopArcs is the two-BFS oracle for MinHopArcsInto: the set of arc
// IDs u->v with dist(src,u)+1+dist(v,dst) == dist(src,dst), distances
// taken within `allowed`.
func allMinHopArcs(d *Digraph, src, dst int, allowed []bool) map[int]bool {
	distS := d.bfsAll(src, allowed, false)
	distT := d.bfsAll(dst, allowed, true)
	out := make(map[int]bool)
	if distS[dst] < 0 {
		return out
	}
	total := distS[dst]
	for u := range d.adj {
		if distS[u] < 0 {
			continue
		}
		for _, a := range d.adj[u] {
			if allowed != nil && !allowed[a.To] {
				continue
			}
			if distT[a.To] >= 0 && distS[u]+1+distT[a.To] == total {
				out[a.ID] = true
			}
		}
	}
	return out
}

func countTrue(mask []bool) int {
	n := 0
	for _, b := range mask {
		if b {
			n++
		}
	}
	return n
}

func TestAllMinHopArcs(t *testing.T) {
	d := grid(3, 3)
	// 0 -> 8: all monotone right/down paths; the DAG has 12 arcs
	// (each of the 12 rightward/downward arcs inside the box).
	arcs := minHopMask(d, d.NumArcs(), 0, 8, nil)
	if got := countTrue(arcs); got != 12 {
		t.Errorf("min-hop DAG has %d arcs, want 12", got)
	}
	// Every arc in the DAG lies on a path of length 4: verify by checking
	// dist(src,u)+1+dist(v,dst) == 4 for the arc u->v.
	for u := 0; u < 9; u++ {
		for _, a := range d.Out(u) {
			if !arcs[a.ID] {
				continue
			}
			du := d.HopDistance(0, u, nil)
			dv := d.HopDistance(a.To, 8, nil)
			if du+1+dv != 4 {
				t.Errorf("arc %d->%d on DAG but %d+1+%d != 4", u, a.To, du, dv)
			}
		}
	}
	// Unreachable pair yields an empty set.
	allowed := make([]bool, 9)
	allowed[0], allowed[8] = true, true
	if got := countTrue(minHopMask(d, d.NumArcs(), 0, 8, allowed)); got != 0 {
		t.Errorf("disconnected min-hop DAG has %d arcs, want 0", got)
	}
}

// Property: over random digraphs (parallel arcs and self-loops included),
// with and without an allowed mask, for every vertex pair — src == dst and
// unreachable dst among them — MinHopArcsInto marks exactly the oracle's
// arc set. One set of buffers is reused across every query, so stale
// scratch contents must never leak into a result.
func TestMinHopArcsIntoMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var dist, queue []int
	var on []bool
	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(12)
		d := NewDigraph(n)
		arcs := rng.Intn(3*n + 1)
		for id := 0; id < arcs; id++ {
			d.AddArc(rng.Intn(n), rng.Intn(n), id)
		}
		var allowed []bool
		if iter%2 == 1 {
			allowed = make([]bool, n)
			for v := range allowed {
				allowed[v] = rng.Intn(4) != 0
			}
		}
		if len(dist) < n {
			dist, queue, on = make([]int, n), make([]int, n), make([]bool, n)
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				mask := make([]bool, arcs)
				d.MinHopArcsInto(mask, src, dst, allowed, dist, queue, on)
				want := allMinHopArcs(d, src, dst, allowed)
				for id, got := range mask {
					if got != want[id] {
						t.Fatalf("iter %d (n=%d, allowed=%v) %d->%d: arc %d marked=%v, oracle=%v",
							iter, n, allowed, src, dst, id, got, want[id])
					}
				}
			}
		}
	}
}

func TestAddArcPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AddArc out of range did not panic")
		}
	}()
	d := NewDigraph(2)
	d.AddArc(0, 5, 0)
}

func TestDijkstraPanicsOnNegativeWeight(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative weight did not panic")
		}
	}()
	d := NewDigraph(2)
	d.AddArc(0, 1, 0)
	NewSPSolver().DijkstraLoads(d, 0, 1, []float64{-2}, 1, nil, nil, nil)
}

// Property: on random graphs with random positive weights, Dijkstra
// distances satisfy the triangle inequality over arcs:
// dist[v] <= dist[u] + w(u,v).
func TestDijkstraTriangleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		d := NewDigraph(n)
		var weights []float64 // loads indexed by arc ID, with bias 0
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			weights = append(weights, rng.Float64()*10+0.01)
			d.AddArc(u, v, len(weights)-1)
		}
		dist := distances(d, 0, weights, 0, nil)
		for u := 0; u < n; u++ {
			if math.IsInf(dist[u], 1) {
				continue
			}
			for _, a := range d.Out(u) {
				if dist[a.To] > dist[u]+weights[a.ID]+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: BFS hop distance equals Dijkstra distance under unit weights.
func TestHopDistanceMatchesDijkstraProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		d := NewDigraph(n)
		id := 0
		for i := 0; i < 2*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			d.AddArc(u, v, id)
			id++
		}
		dist := distances(d, 0, unitLoads(d), 1, nil)
		for v := 0; v < n; v++ {
			hd := d.HopDistance(0, v, nil)
			if hd == -1 {
				if !math.IsInf(dist[v], 1) {
					return false
				}
				continue
			}
			if float64(hd) != dist[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
