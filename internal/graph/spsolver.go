package graph

import (
	"fmt"
	"math"
)

// pqItem is an entry of the Dijkstra priority queue.
type pqItem struct {
	v    int
	dist float64
}

// SPSolver is reusable scratch state for repeated shortest-path queries on
// graphs of (roughly) one size: the dist/prev/settled arrays and the heap
// are allocated once and recycled, so steady-state Dijkstra runs perform no
// heap allocations. Resets are epoch-stamped — bumping a counter instead of
// clearing O(n) memory — which is what makes the solver cheap enough to sit
// inside the mapper's pairwise-swap loop where thousands of short queries
// run back to back.
//
// A solver is NOT safe for concurrent use; give each worker its own
// (internal/engine pools one per evaluation worker).
type SPSolver struct {
	dist    []float64
	prevV   []int
	prevArc []int
	stamp   []uint32 // dist/prev valid when stamp[v] == epoch
	settled []uint32 // vertex settled when settled[v] == epoch
	epoch   uint32
	heap    []pqItem
}

// NewSPSolver returns an empty solver; arrays grow on first use.
func NewSPSolver() *SPSolver { return &SPSolver{} }

// reset prepares the solver for a run over n vertices.
func (s *SPSolver) reset(n int) {
	if cap(s.dist) < n {
		s.dist = make([]float64, n)   //sunmap:alloc first-use growth, recycled across runs
		s.prevV = make([]int, n)      //sunmap:alloc first-use growth, recycled across runs
		s.prevArc = make([]int, n)    //sunmap:alloc first-use growth, recycled across runs
		s.stamp = make([]uint32, n)   //sunmap:alloc first-use growth, recycled across runs
		s.settled = make([]uint32, n) //sunmap:alloc first-use growth, recycled across runs
	}
	s.dist = s.dist[:n]
	s.prevV = s.prevV[:n]
	s.prevArc = s.prevArc[:n]
	s.stamp = s.stamp[:n]
	s.settled = s.settled[:n]
	s.epoch++
	if s.epoch == 0 {
		// Wrapped: stale stamps could alias the new epoch. Hard-clear the
		// FULL capacity, not just [:n] — indices beyond the current graph
		// may hold stamps from an earlier, larger run that a later regrow
		// would otherwise read as valid.
		full := s.stamp[:cap(s.stamp)]
		for i := range full {
			full[i] = 0
		}
		full = s.settled[:cap(s.settled)]
		for i := range full {
			full[i] = 0
		}
		s.epoch = 1
	}
	s.heap = s.heap[:0]
}

// Dist returns the distance of v computed by the last Dijkstra run
// (+Inf when unreached).
func (s *SPSolver) Dist(v int) float64 {
	if s.stamp[v] != s.epoch {
		return math.Inf(1)
	}
	return s.dist[v]
}

// DijkstraLoads is the solver's one search: shortest paths from src under
// the weight loads[arc]+bias, restricted to `allowed` vertices (nil = all),
// leaving the results readable through Dist/PathTo until the next run.
// Arcs excluded by the dag mask (nil = no restriction) or marked in down
// (nil = none) are unreachable. Routing passes the live link loads with a
// commodity-scaled tie-break bias; unit-weight (minimum-hop) callers pass
// all-zero loads with bias 1, so every arc weighs exactly 1.
//
// The search stops as soon as dst settles. Distances and predecessor
// chains of vertices settled before dst are final and identical to a full
// run's, and dst's own chain — the only thing a subsequent PathTo(src,
// dst, ...) reads — is final at settlement. A dst that is not a vertex
// (say -1) never settles, so the search then covers everything reachable.
//
//sunmap:hotpath
func (s *SPSolver) DijkstraLoads(d *Digraph, src, dst int, loads []float64, bias float64, dag, down, allowed []bool) {
	adj := d.adj
	s.reset(len(adj))
	if src < 0 || src >= len(adj) {
		panic(fmt.Sprintf("graph: Dijkstra source %d out of range", src)) //sunmap:alloc panic path
	}
	if allowed != nil && !allowed[src] {
		return
	}
	dist, prevV, prevArc, stamp, settled, epoch := s.dist, s.prevV, s.prevArc, s.stamp, s.settled, s.epoch
	dist[src] = 0
	prevV[src] = -1
	prevArc[src] = -1
	stamp[src] = epoch
	// h is a binary min-heap on dist with container/heap's exact sift
	// rules (strict-less comparisons, the lower child on a tie). Among
	// equal-distance vertices the pop order decides which of several
	// equal-cost shortest paths the search reports, and the mapper's
	// byte-identical results rely on that order never changing. The sifts
	// move a hole instead of swapping, which places every item exactly
	// where the swaps would.
	h := append(s.heap, pqItem{v: src, dist: 0}) //sunmap:alloc amortized heap growth; steady-state pushes reuse capacity
	for len(h) > 0 {
		it := h[0]
		n := len(h) - 1
		if x := h[n]; n > 0 {
			i := 0
			for {
				j := 2*i + 1
				if j >= n {
					break
				}
				if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
					j = j2
				}
				if !(h[j].dist < x.dist) {
					break
				}
				h[i] = h[j]
				i = j
			}
			h[i] = x
		}
		h = h[:n]
		u := it.v
		if settled[u] == epoch || it.dist > dist[u] {
			continue
		}
		settled[u] = epoch
		if u == dst {
			break
		}
		du := dist[u]
		for _, a := range adj[u] {
			to := a.To
			if allowed != nil && !allowed[to] {
				continue
			}
			if dag != nil && !dag[a.ID] {
				continue
			}
			if down != nil && down[a.ID] {
				continue
			}
			wt := loads[a.ID] + bias
			if wt < 0 {
				panic(fmt.Sprintf("graph: negative arc weight %g on %d->%d", wt, u, to)) //sunmap:alloc panic path
			}
			dt := math.Inf(1)
			if stamp[to] == epoch {
				dt = dist[to]
			}
			if nd := du + wt; nd < dt {
				dist[to] = nd
				prevV[to] = u
				prevArc[to] = a.ID
				stamp[to] = epoch
				h = append(h, pqItem{}) //sunmap:alloc amortized heap growth; steady-state pushes reuse capacity
				j := len(h) - 1
				for j > 0 {
					i := (j - 1) / 2
					if !(nd < h[i].dist) {
						break
					}
					h[j] = h[i]
					j = i
				}
				h[j] = pqItem{v: to, dist: nd}
			}
		}
	}
	s.heap = h[:0]
}

// PathTo recovers the src->dst path of the last Dijkstra run, appending the
// vertex sequence and arc-ID sequence into the provided buffers (which are
// truncated first and may be nil). It returns the filled slices and whether
// dst was reached. The returned slices alias the buffers: callers that keep
// a path across runs must copy it out.
//
//sunmap:hotpath
func (s *SPSolver) PathTo(src, dst int, verts, arcs []int) (v, a []int, ok bool) {
	verts, arcs = verts[:0], arcs[:0]
	if math.IsInf(s.Dist(dst), 1) {
		return verts, arcs, false
	}
	for u := dst; u != src; u = s.prevV[u] {
		verts = append(verts, u)          //sunmap:alloc amortized growth into caller-owned buffer
		arcs = append(arcs, s.prevArc[u]) //sunmap:alloc amortized growth into caller-owned buffer
	}
	verts = append(verts, src) //sunmap:alloc amortized growth into caller-owned buffer
	reverseInts(verts)
	reverseInts(arcs)
	return verts, arcs, true
}
