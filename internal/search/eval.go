package search

import (
	"math/bits"
	"slices"

	"sunmap/internal/graph"
	"sunmap/internal/mapping"
	"sunmap/internal/route"
)

// overloadPenalty scales the fitness penalty per unit of relative link
// overload; it must dwarf any hop-count difference so the annealer never
// trades feasibility for delay.
const overloadPenalty = 10.0

// evaluator owns all scratch of one chain's mutate→evaluate→accept cycle.
// Evaluation is three stages, each rejecting outright (a rejected
// candidate is never accepted, making radix bounds, connectivity and
// deadlock freedom hard constraints rather than penalty terms):
//
//  1. structural design rules: switch-count window, per-router radix and
//     terminal caps, whole-graph connectivity;
//  2. routability: congestion-aware minimum-path routing of every
//     commodity (identity core→terminal assignment);
//  3. deadlock freedom: the channel-dependency graph of the exact routes
//     just installed must be acyclic.
//
// Everything is rebuilt in place per evaluation; steady state allocates
// nothing (see TestSearchInnerLoopAllocBudget). A candidate the chain
// has routed before is answered from the evaluation memo instead of all
// three stages (see evalMemo).
type evaluator struct {
	b      bounds
	topo   *searchTopo
	rt     *route.Router
	res    route.Result
	ropts  route.Options
	comms  []graph.Commodity
	assign []int

	// fitness shaping
	alphaEdge   float64 // cost per bidirectional link
	alphaRouter float64 // cost per switch

	// connectivity scratch (epoch-stamped visited marks)
	seen  []int32
	queue []int32
	epoch int32

	// channel-dependency-graph scratch (Kahn's algorithm)
	succ  [][]int32
	indeg []int32
	cq    []int32

	memo evalMemo
	// routed counts the candidates this evaluator routed (stages 2 and 3)
	// and hits those the memo answered: the chain's work counters.
	routed, hits int
}

func newEvaluator(comms []graph.Commodity, terms int, b bounds, mopts mapping.Options) *evaluator {
	ev := &evaluator{
		b:     b,
		topo:  newSearchTopo(b.maxR, terms),
		rt:    route.NewRouter(),
		comms: comms,
		ropts: route.Options{
			Function:        route.MinPath,
			CapacityMBps:    mopts.CapacityMBps,
			DisableQuadrant: true,
		},
		assign: make([]int, terms),
		seen:   make([]int32, b.maxR),
		queue:  make([]int32, 0, b.maxR),
		memo:   newEvalMemo(b.maxR, terms),
	}
	for i := range ev.assign {
		ev.assign[i] = i
	}
	// The inner loop cannot afford a full map (placement + floorplan +
	// power) per candidate, so fitness is the routing core of the
	// objective — bandwidth-weighted average hops under congestion-aware
	// MP — plus small structural terms steering toward cheaper networks.
	// Under the delay objective the structural terms are tie-breaks; under
	// area/power they carry real weight, since links and switches are what
	// those objectives charge for.
	if mopts.Objective == mapping.MinDelay {
		ev.alphaEdge, ev.alphaRouter = 0.002, 0.001
	} else {
		ev.alphaEdge, ev.alphaRouter = 0.05, 0.02
	}
	return ev
}

// eval scores a candidate, reporting ok=false when any hard constraint
// fails.
func (ev *evaluator) eval(c *cand) (fit float64, ok bool) {
	// Only candidates that passed the structure check are stored, and the
	// check is a function of the key too, so a hit skips it.
	m := &ev.memo
	s := -1
	if m.words > 0 {
		m.encode(c)
		s = m.slot()
		if slices.Equal(m.keys[s*m.words:(s+1)*m.words], m.key) {
			ev.hits++
			return m.vals[s].fit, m.vals[s].ok
		}
	}
	if !ev.checkStructure(c) {
		return 0, false
	}
	fit, ok = ev.route(c)
	if s >= 0 {
		copy(m.keys[s*m.words:], m.key)
		m.vals[s] = memoVal{fit: fit, ok: ok}
	}
	return fit, ok
}

// route runs stages 2 and 3 and the fitness of a structurally valid
// candidate.
func (ev *evaluator) route(c *cand) (fit float64, ok bool) {
	ev.routed++
	ev.topo.rebuild(c)
	if err := ev.rt.RouteInto(&ev.res, ev.topo, ev.assign, ev.comms, ev.ropts); err != nil {
		return 0, false
	}
	if !ev.acyclicCDG(ev.res.Paths, len(ev.topo.links)) {
		return 0, false
	}
	return ev.fitness(c), true
}

// memoSlots is the evaluation memo's table size and memoArenaBytes the
// bound on its key arena: a chain whose keys are too long for 256 slots
// gets fewer, and one whose key alone exceeds the bound gets no memo.
const (
	memoSlots      = 256
	memoArenaBytes = 64 << 10
)

// evalMemo is a chain's exact evaluation memo: a direct-mapped table
// from a candidate's key to its (fit, ok). The key is injective on
// everything eval reads — nR, the adjacency among the first nR routers
// and the attachment — and eval is a pure function of those three:
//
//   - every edge joins two of the first nR routers and the mutations
//     keep the terminal counts in step with the attachment, so the
//     structure check and the link count follow from the key;
//   - searchTopo.rebuild walks the adjacency matrix in canonical (u, v)
//     order, so link IDs and arc order do not depend on how the edge
//     list was churned;
//   - the Router is bound to private tables that MinPath with
//     DisableQuadrant never reads, and it resets all of its scratch;
//   - eval draws no RNG value, and no one reads ev.res after it returns.
//
// So a hit returns bit for bit what routing the candidate again would,
// and a chain walks the same candidates with or without the memo. A
// lookup compares the full key, so a collision only evicts. A slot whose
// key is all zero is empty: a real key starts with nR >= 2.
type evalMemo struct {
	words   int      // key length in 64-bit words; 0 disables the memo
	shift   uint     // slot = hash >> shift
	attOff  int      // bit offset of the attachment field after key[0]
	attBits int      // bits per attached router index
	key     []uint64 // the candidate being evaluated
	keys    []uint64 // one arena: slot i holds keys[i*words : (i+1)*words]
	vals    []memoVal
}

type memoVal struct {
	fit float64
	ok  bool
}

// newEvalMemo sizes the memo for candidates of up to maxR routers and
// terms terminals. The key is nR in one word, then one bit per router
// pair u < v of the maxR×maxR upper triangle, then each terminal's router
// in attBits bits.
func newEvalMemo(maxR, terms int) evalMemo {
	if maxR > memoArenaBytes {
		return evalMemo{} // the adjacency bits alone exceed the arena
	}
	tri := maxR * (maxR - 1) / 2
	attBits := bits.Len(uint(maxR - 1))
	words := 1 + (tri+terms*attBits+63)/64
	slots := memoSlots
	for slots > 0 && slots*words*8 > memoArenaBytes {
		slots /= 2
	}
	if slots == 0 {
		return evalMemo{}
	}
	return evalMemo{
		words:   words,
		shift:   uint(64 - bits.TrailingZeros(uint(slots))),
		attOff:  tri,
		attBits: attBits,
		key:     make([]uint64, words),
		keys:    make([]uint64, slots*words),
		vals:    make([]memoVal, slots),
	}
}

// encode writes c's key into m.key.
func (m *evalMemo) encode(c *cand) {
	k := m.key
	for i := range k {
		k[i] = 0
	}
	k[0] = uint64(c.nR)
	b := k[1:]
	for _, e := range c.edges {
		i := e[1]*(e[1]-1)/2 + e[0] // e[0] < e[1]
		b[i>>6] |= 1 << (i & 63)
	}
	p := m.attOff
	for _, r := range c.att {
		w, o := p>>6, p&63
		b[w] |= uint64(r) << o
		if o+m.attBits > 64 {
			b[w+1] |= uint64(r) >> (64 - o)
		}
		p += m.attBits
	}
}

// slot hashes m.key (a multiplicative mix; the top bits pick the slot).
func (m *evalMemo) slot() int {
	var h uint64
	for _, w := range m.key {
		h = (h ^ w) * 0x9e3779b97f4a7c15
	}
	return int(h >> m.shift)
}

func (ev *evaluator) fitness(c *cand) float64 {
	f := ev.res.AvgHops()
	if capMBps := ev.ropts.CapacityMBps; capMBps > 0 && ev.res.MaxLinkLoad > capMBps {
		f += overloadPenalty * (ev.res.MaxLinkLoad/capMBps - 1)
	}
	return f + ev.alphaEdge*float64(len(c.edges)) + ev.alphaRouter*float64(c.nR)
}

// checkStructure verifies the pure design rules: switch-count window,
// per-router radix and terminal-attachment caps, and router-graph
// connectivity.
func (ev *evaluator) checkStructure(c *cand) bool {
	if c.nR < ev.b.minR || c.nR > ev.b.maxR {
		return false
	}
	for r := 0; r < c.nR; r++ {
		if c.deg[r] > ev.b.maxRadix || c.tcnt[r] > ev.b.maxCores {
			return false
		}
	}
	if len(c.edges) < c.nR-1 {
		return false
	}
	return ev.connected(c)
}

func (ev *evaluator) connected(c *cand) bool {
	if c.nR <= 1 {
		return true
	}
	ev.epoch++
	ev.queue = append(ev.queue[:0], 0)
	ev.seen[0] = ev.epoch
	visited := 1
	for len(ev.queue) > 0 {
		u := int(ev.queue[len(ev.queue)-1])
		ev.queue = ev.queue[:len(ev.queue)-1]
		row := u * c.maxR
		for v := 0; v < c.nR; v++ {
			if c.eidx[row+v] >= 0 && ev.seen[v] != ev.epoch {
				ev.seen[v] = ev.epoch
				visited++
				ev.queue = append(ev.queue, int32(v)) //sunmap:alloc amortized BFS queue growth, reused across evals
			}
		}
	}
	return visited == c.nR
}

// acyclicCDG reports whether the channel-dependency graph of the routed
// paths — a node per directed link, an arc for every consecutive link
// pair some flow traverses — is acyclic (Kahn's algorithm over reused
// buffers). An acyclic CDG is Dally/Seitz deadlock freedom for the exact
// routes the network would install.
func (ev *evaluator) acyclicCDG(paths []route.FlowPath, numLinks int) bool {
	if cap(ev.succ) < numLinks {
		grown := make([][]int32, numLinks) //sunmap:alloc first-use growth of CDG successor arena, recycled
		copy(grown, ev.succ[:cap(ev.succ)])
		ev.succ = grown
	}
	ev.succ = ev.succ[:numLinks]
	for i := range ev.succ {
		ev.succ[i] = ev.succ[i][:0]
	}
	if cap(ev.indeg) < numLinks {
		ev.indeg = make([]int32, numLinks) //sunmap:alloc first-use growth of CDG indegree scratch, recycled
	}
	ev.indeg = ev.indeg[:numLinks]
	for i := range ev.indeg {
		ev.indeg[i] = 0
	}
	for _, p := range paths {
		for i := 0; i+1 < len(p.LinkIDs); i++ {
			a, b := p.LinkIDs[i], p.LinkIDs[i+1]
			ev.succ[a] = append(ev.succ[a], int32(b)) //sunmap:alloc amortized per-link successor growth, reused across evals
			ev.indeg[b]++
		}
	}
	ev.cq = ev.cq[:0]
	for i := 0; i < numLinks; i++ {
		if ev.indeg[i] == 0 {
			ev.cq = append(ev.cq, int32(i)) //sunmap:alloc amortized Kahn queue growth, reused across evals
		}
	}
	processed := 0
	for len(ev.cq) > 0 {
		u := ev.cq[len(ev.cq)-1]
		ev.cq = ev.cq[:len(ev.cq)-1]
		processed++
		for _, v := range ev.succ[u] {
			ev.indeg[v]--
			if ev.indeg[v] == 0 {
				ev.cq = append(ev.cq, v) //sunmap:alloc amortized Kahn queue growth, reused across evals
			}
		}
	}
	return processed == numLinks
}
