package topology

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// RouteTables is the routing state a topology's structure alone
// determines: each terminal pair's quadrant mask, min-hop DAG arc mask
// and single-path flag, and the network's uniform-hops flag. Entries are
// computed on first use and published once; a published entry never
// changes, so every router on every goroutine shares it read-only and a
// racing second fill only repeats identical work.
//
// The topologies of this package carry one RouteTables each (see
// SharedTables), built beside their min-hop table, so the state outlives
// any one router. Other Topology implementations get private tables from
// NewRouteTables.
type RouteTables struct {
	t     Topology
	terms int
	// ready holds each terminal pair's published-entry bits (indexed
	// src*terms+dst). A bit is set under mu after its entry is written,
	// so a reader that sees it also sees the entry.
	ready []atomic.Uint32
	mu    sync.Mutex
	// custom, when set, already holds every quadrant mask, and quads is
	// nil: the tables read its masks in place.
	custom *customTopology
	quads  [][]bool
	dags   [][]bool // allocated by the first fill: only SM reads DAGs
	// uniform holds 0 (not computed), 1 (no) or 2 (yes).
	uniform atomic.Uint32
}

// Per-pair bits of RouteTables.ready.
const (
	quadReady = 1 << iota
	dagReady
	singleKnown
	singleYes
)

// NewRouteTables returns empty tables for t. The tables read t on every
// fill, so t must not change while they are in use.
func NewRouteTables(t Topology) *RouteTables {
	n := t.NumTerminals() * t.NumTerminals()
	tb := &RouteTables{t: t, terms: t.NumTerminals(), ready: make([]atomic.Uint32, n)}
	if c, ok := t.(*customTopology); ok {
		tb.custom = c
	} else {
		tb.quads = make([][]bool, n)
	}
	return tb
}

// sharer is implemented, through base, by every topology of this
// package. The method is unexported, so no type outside the package —
// a wrapper that overrides Quadrant, say — can inherit a shared state
// computed for another type.
type sharer interface{ shared() *base }

func (b *base) shared() *base { return b }

// SharedTables returns the one RouteTables of a topology of this
// package, creating it on first use, or nil for any other Topology
// implementation. Equal results mean the same topology object.
func SharedTables(t Topology) *RouteTables {
	s, ok := t.(sharer)
	if !ok {
		return nil
	}
	b := s.shared()
	b.tablesOnce.Do(func() { b.tables = NewRouteTables(t) })
	return b.tables
}

// publish sets pair i's bits under mu, after write has stored the
// entry, unless an earlier fill already set them.
func (tb *RouteTables) publish(i int, bits uint32, write func()) {
	tb.mu.Lock()
	if r := tb.ready[i].Load(); r&bits == 0 {
		write()
		tb.ready[i].Store(r | bits)
	}
	tb.mu.Unlock()
}

// Quadrant returns the terminal pair's minimum-path router mask
// (Topology.Quadrant), computed once. It must not be mutated.
func (tb *RouteTables) Quadrant(srcT, dstT int) []bool {
	if tb.custom != nil {
		return tb.custom.mask(srcT, dstT)
	}
	i := srcT*tb.terms + dstT
	if tb.ready[i].Load()&quadReady == 0 {
		mask := tb.t.Quadrant(srcT, dstT)
		tb.publish(i, quadReady, func() { tb.quads[i] = mask })
	}
	return tb.quads[i]
}

// HopScratch is the breadth-first-search scratch of a min-hop fill. Its
// zero value is ready; it grows to the largest router count it meets.
// Like the router owning it, it is single-goroutine state.
type HopScratch struct {
	dist, queue []int
	on          []bool
}

func (sc *HopScratch) grow(n int) {
	if len(sc.dist) < n {
		sc.dist = make([]int, n)
		sc.queue = make([]int, n)
		sc.on = make([]bool, n)
	}
}

// MinHopDAG returns the dense arc mask of the terminal pair's
// minimum-hop path DAG inside its quadrant (the SM flow-splitting
// region), computed once with sc as BFS scratch. It must not be mutated.
func (tb *RouteTables) MinHopDAG(srcT, dstT int, sc *HopScratch) []bool {
	i := srcT*tb.terms + dstT
	if tb.ready[i].Load()&dagReady == 0 {
		mask := tb.Quadrant(srcT, dstT)
		g := tb.t.Graph()
		sc.grow(g.NumVertices())
		dense := make([]bool, len(tb.t.Links()))
		g.MinHopArcsInto(dense, tb.t.InjectRouter(srcT), tb.t.EjectRouter(dstT), mask, sc.dist, sc.queue, sc.on)
		tb.publish(i, dagReady, func() {
			if tb.dags == nil {
				tb.dags = make([][]bool, len(tb.ready))
			}
			tb.dags[i] = dense
		})
	}
	return tb.dags[i]
}

// SinglePath reports whether the terminal pair's quadrant holds exactly
// one simple inject-to-eject path, computed once. Then every
// quadrant-restricted search returns that path whatever the loads: MP's
// search and each of SM's chunk searches on the min-hop DAG. SA searches
// the whole graph, so the flag says nothing about SA routes.
//
// The flag is set when inject and eject are one router, or when the
// quadrant holds exactly MinHops routers. A quadrant path has at least
// MinHops routers, so each one visits every quadrant router; an arc that
// skipped ahead along a minimum path would make a shorter one, so each
// visits them in the same order. No topology has parallel links, so that
// order fixes the arcs too. Every butterfly pair, mesh pairs sharing a
// row or column, hypercube neighbours and the star qualify.
func (tb *RouteTables) SinglePath(srcT, dstT int) bool {
	i := srcT*tb.terms + dstT
	r := tb.ready[i].Load()
	if r&singleKnown == 0 {
		bits := uint32(singleKnown)
		if tb.singlePath(srcT, dstT) {
			bits |= singleYes
		}
		tb.publish(i, bits, func() {})
		r = tb.ready[i].Load()
	}
	return r&singleYes != 0
}

func (tb *RouteTables) singlePath(srcT, dstT int) bool {
	hops := tb.t.MinHops(srcT, dstT)
	if hops < 2 {
		return hops == 1
	}
	mask := tb.Quadrant(srcT, dstT)
	if mask == nil {
		return tb.t.NumRouters() == hops
	}
	routers := 0
	for _, in := range mask {
		if in {
			routers++
		}
	}
	return routers == hops
}

// UniformHops reports whether every router path from an inject router to
// an eject router crosses the same number of routers, computed once with
// sc as scratch. Then every route of every routing function has MinHops
// routers, whatever the loads.
//
// The flag is set when the routers reachable from the inject routers fall
// into stages: every inject router in stage 0, every link from one stage
// to the next, and every eject router in the same last stage. A path
// gains one stage per link, so each has as many routers as there are
// stages. Clos networks, butterflies and the star qualify; a mesh,
// torus, hypercube or octagon, whose links run both ways, never does.
func (tb *RouteTables) UniformHops(sc *HopScratch) bool {
	v := tb.uniform.Load()
	if v == 0 {
		v = 1
		if tb.uniformHops(sc) {
			v = 2
		}
		tb.uniform.Store(v)
	}
	return v == 2
}

func (tb *RouteTables) uniformHops(sc *HopScratch) bool {
	topo := tb.t
	g := topo.Graph()
	n := g.NumVertices()
	sc.grow(n)
	stage, queue, tail := sc.dist[:n], sc.queue[:n], 0
	for r := range stage {
		stage[r] = -1
	}
	for t := 0; t < tb.terms; t++ {
		if r := topo.InjectRouter(t); stage[r] == -1 {
			stage[r] = 0
			queue[tail] = r
			tail++
		}
	}
	for i := 0; i < tail; i++ {
		u := queue[i]
		for _, a := range g.Out(u) {
			switch stage[a.To] {
			case -1:
				stage[a.To] = stage[u] + 1
				queue[tail] = a.To
				tail++
			case stage[u] + 1:
			default:
				return false
			}
		}
	}
	last := stage[topo.EjectRouter(0)]
	for t := 1; t < tb.terms; t++ {
		if stage[topo.EjectRouter(t)] != last {
			return false
		}
	}
	return last >= 0
}

// Digest returns t's structural digest: a SHA-256 over the structure the
// mapper observes — kind, terminals, routers, links, terminal attachment
// and placement — so two topologies that share a Name() but not a
// structure never collide on one evaluation-cache entry. A topology of
// this package computes it once; any other implementation is hashed on
// every call.
func Digest(t Topology) [sha256.Size]byte {
	s, ok := t.(sharer)
	if !ok {
		return hashStructure(t)
	}
	b := s.shared()
	b.digestOnce.Do(func() { b.digest = hashStructure(t) })
	return b.digest
}

// hashStructure streams the structure into one SHA-256 state through a stack
// buffer. Integers enter as uvarints and positions as uvarints of their
// byte-reversed IEEE-754 bits — the gob encoding, injective and a few
// bytes for the short mantissas of grid coordinates.
//
//sunmap:hotpath
func hashStructure(t Topology) [sha256.Size]byte {
	const record = 48 // bound on one encoded link, terminal or router
	h := sha256.New()
	var buf [512]byte
	links := t.Links()
	nt, nr := t.NumTerminals(), t.NumRouters()
	b := buf[:0]
	for _, v := range [...]int{int(t.Kind()), nt, nr, len(links)} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	for _, l := range links {
		if len(b)+record > len(buf) {
			h.Write(b)
			b = buf[:0]
		}
		b = binary.AppendUvarint(b, uint64(l.ID))
		b = binary.AppendUvarint(b, uint64(l.From))
		b = binary.AppendUvarint(b, uint64(l.To))
	}
	for term := 0; term < nt; term++ {
		if len(b)+record > len(buf) {
			h.Write(b)
			b = buf[:0]
		}
		x, y := t.TerminalPosition(term)
		b = binary.AppendUvarint(b, uint64(t.InjectRouter(term)))
		b = binary.AppendUvarint(b, uint64(t.EjectRouter(term)))
		b = binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(x)))
		b = binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(y)))
	}
	for r := 0; r < nr; r++ {
		if len(b)+record > len(buf) {
			h.Write(b)
			b = buf[:0]
		}
		x, y := t.Position(r)
		b = binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(x)))
		b = binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(y)))
	}
	h.Write(b)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
