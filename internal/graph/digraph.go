package graph

import "fmt"

// Arc is a directed, identified edge of a Digraph. ID indexes auxiliary
// per-arc state kept by callers (link loads, capacities).
type Arc struct {
	To int
	ID int
}

// Digraph is a minimal adjacency-list directed graph used for NoC router
// graphs and quadrant graphs. It carries no arc weights: SPSolver's search
// takes a per-arc load vector indexed by arc ID, so congestion-aware
// routing reuses one graph while the loads evolve.
type Digraph struct {
	adj     [][]Arc
	numArcs int
}

// NewDigraph returns a graph with n vertices and no arcs.
func NewDigraph(n int) *Digraph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Digraph{adj: make([][]Arc, n)}
}

// NumVertices returns the vertex count.
func (d *Digraph) NumVertices() int { return len(d.adj) }

// NumArcs returns the number of arcs added so far.
func (d *Digraph) NumArcs() int { return d.numArcs }

// AddArc inserts a directed arc u->v with external identifier id.
func (d *Digraph) AddArc(u, v, id int) {
	if u < 0 || u >= len(d.adj) || v < 0 || v >= len(d.adj) {
		panic(fmt.Sprintf("graph: arc %d->%d out of range [0,%d)", u, v, len(d.adj)))
	}
	d.adj[u] = append(d.adj[u], Arc{To: v, ID: id})
	d.numArcs++
}

// Out returns the arcs leaving u. The returned slice is owned by the graph
// and must not be modified.
func (d *Digraph) Out(u int) []Arc { return d.adj[u] }

// Reset re-dimensions the graph to n vertices with no arcs, retaining the
// per-vertex adjacency backing arrays. Callers that rebuild a small graph
// every iteration — the topology-search inner loop re-deriving a router
// graph from a mutated edge set — stay allocation-free in steady state.
func (d *Digraph) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	if cap(d.adj) < n {
		grown := make([][]Arc, n)
		copy(grown, d.adj[:cap(d.adj)])
		d.adj = grown
	}
	d.adj = d.adj[:n]
	for i := range d.adj {
		d.adj[i] = d.adj[i][:0]
	}
	d.numArcs = 0
}

// HopDistance returns the minimum hop count (arc count) from src to dst
// within `allowed`, or -1 if unreachable. It runs a plain BFS.
func (d *Digraph) HopDistance(src, dst int, allowed []bool) int {
	if src == dst {
		return 0
	}
	n := len(d.adj)
	distv := make([]int, n)
	for i := range distv {
		distv[i] = -1
	}
	if allowed != nil && (!allowed[src] || !allowed[dst]) {
		return -1
	}
	distv[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range d.adj[u] {
			if allowed != nil && !allowed[a.To] {
				continue
			}
			if distv[a.To] == -1 {
				distv[a.To] = distv[u] + 1
				if a.To == dst {
					return distv[a.To]
				}
				queue = append(queue, a.To)
			}
		}
	}
	return -1
}

// MinHopArcsInto marks in mask (indexed by arc ID, all false on entry)
// every arc that lies on at least one minimum-hop src->dst path within
// `allowed` (nil = all). Splitting across minimum paths (routing function
// SM) restricts flow to this DAG. dist, queue and on are caller-owned
// scratch of at least NumVertices entries each; their contents on entry
// are ignored. Nothing is marked when src == dst or dst is unreachable.
//
// One forward BFS from src settles hop distances up to dst's level. The
// BFS queue is then walked backwards — non-increasing distance — marking
// u->v whenever dist[v] == dist[u]+1 and v is on a minimum path to dst,
// which is exactly the arc set dist(src,u)+1+dist(v,dst) == dist(src,dst).
func (d *Digraph) MinHopArcsInto(mask []bool, src, dst int, allowed []bool, dist, queue []int, on []bool) {
	if src == dst || (allowed != nil && !allowed[src]) {
		return
	}
	n := len(d.adj)
	for i := 0; i < n; i++ {
		dist[i] = -1
		on[i] = false
	}
	dist[src] = 0
	queue[0] = src
	head, tail := 0, 1
	// Every vertex on a minimum path sits below dst's level, and that
	// whole level is queued before dst is discovered, so the search stops
	// there.
bfs:
	for head < tail {
		u := queue[head]
		head++
		for _, a := range d.adj[u] {
			if (allowed != nil && !allowed[a.To]) || dist[a.To] != -1 {
				continue
			}
			dist[a.To] = dist[u] + 1
			queue[tail] = a.To
			tail++
			if a.To == dst {
				break bfs
			}
		}
	}
	if dist[dst] < 0 {
		return
	}
	on[dst] = true
	for i := tail - 1; i >= 0; i-- {
		u := queue[i]
		for _, a := range d.adj[u] {
			if on[a.To] && dist[a.To] == dist[u]+1 {
				mask[a.ID] = true
				on[u] = true
			}
		}
	}
}

// BFSDistances returns hop distances from src to every vertex
// (-1 unreachable), following arcs forward or, when reverse is set,
// backward (i.e. distances *to* src). Synthesized topologies use the two
// directions to precompute their minimum-path quadrant masks.
func (d *Digraph) BFSDistances(src int, reverse bool) []int {
	return d.bfsAll(src, nil, reverse)
}

// bfsAll returns hop distances from src to every vertex (-1 unreachable),
// following arcs forward or, when reverse is set, backward.
func (d *Digraph) bfsAll(src int, allowed []bool, reverse bool) []int {
	n := len(d.adj)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	if allowed != nil && !allowed[src] {
		return dist
	}
	var radj [][]Arc
	if reverse {
		radj = make([][]Arc, n)
		for u := range d.adj {
			for _, a := range d.adj[u] {
				radj[a.To] = append(radj[a.To], Arc{To: u, ID: a.ID})
			}
		}
	}
	next := func(u int) []Arc {
		if reverse {
			return radj[u]
		}
		return d.adj[u]
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, a := range next(u) {
			if allowed != nil && !allowed[a.To] {
				continue
			}
			if dist[a.To] == -1 {
				dist[a.To] = dist[u] + 1
				queue = append(queue, a.To)
			}
		}
	}
	return dist
}

func reverseInts(s []int) {
	for i, j := 0, len(s)-1; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
}
