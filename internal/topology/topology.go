// Package topology implements the NoC topology graphs of SUNMAP
// (Definition 2 of the paper): mesh, torus, hypercube (2-ary n-cube),
// k-ary n-fly butterfly and 3-stage Clos, plus the octagon and star
// networks the paper lists as easy library extensions.
//
// A Topology exposes its router-level connectivity, the attachment points
// (terminals) cores can be mapped to, per-pair quadrant graphs (Section 4.3)
// used to restrict shortest-path searches, and a relative placement template
// consumed by the floorplanner.
//
// Hop counts follow the paper's convention of counting routers traversed:
// two adjacent mesh nodes are 2 hops apart, an n-stage butterfly is always
// n hops, a 3-stage Clos always 3.
package topology

import (
	"crypto/sha256"
	"fmt"
	"sync"

	"sunmap/internal/graph"
)

// Kind enumerates the topology families in the library.
type Kind int

// Topology families. The first five are the paper's library; Octagon and
// Star are the extensions mentioned in Section 1. Synth marks
// application-specific topologies synthesized from a core graph
// (internal/synth) rather than drawn from the standard library.
const (
	Mesh Kind = iota
	Torus
	Hypercube
	Butterfly
	Clos
	Octagon
	Star
	Synth
)

// String returns the lower-case family name.
func (k Kind) String() string {
	switch k {
	case Mesh:
		return "mesh"
	case Torus:
		return "torus"
	case Hypercube:
		return "hypercube"
	case Butterfly:
		return "butterfly"
	case Clos:
		return "clos"
	case Octagon:
		return "octagon"
	case Star:
		return "star"
	case Synth:
		return "synth"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Direct reports whether every terminal has a dedicated router (direct
// topology, Fig. 1) as opposed to switches shared by several cores
// (indirect, Fig. 2).
func (k Kind) Direct() bool {
	switch k {
	case Mesh, Torus, Hypercube, Octagon, Synth:
		// Synthesized topologies attach each core to exactly one switch
		// (inject and eject coincide), so they count one NI link per core
		// like the direct families, even when a switch hosts several cores.
		return true
	default:
		return false
	}
}

// Link is a directed router-to-router channel. ID indexes per-link state
// (loads, capacities) and equals the link's position in Links().
type Link struct {
	ID   int
	From int // source router
	To   int // destination router
}

// Topology is the common contract of every network in the library.
type Topology interface {
	// Name identifies the concrete configuration, e.g. "mesh-3x4".
	Name() string
	// Kind returns the topology family.
	Kind() Kind
	// NumTerminals returns the number of core attachment points. A core
	// graph with |V| cores maps onto the topology when |V| <= NumTerminals.
	NumTerminals() int
	// NumRouters returns the number of switches.
	NumRouters() int
	// Links returns all directed router-to-router channels. The slice is
	// owned by the topology and must not be modified.
	Links() []Link
	// Graph returns the router connectivity as a digraph whose arc IDs are
	// link IDs. Callers must not mutate it.
	Graph() *graph.Digraph
	// InjectRouter returns the router where terminal t's traffic enters.
	InjectRouter(t int) int
	// EjectRouter returns the router where traffic addressed to terminal t
	// leaves the network.
	EjectRouter(t int) int
	// RouterDegree returns the number of inter-router input and output
	// channels of router r (core ports excluded; the physical models add
	// one port per mapped core).
	RouterDegree(r int) (in, out int)
	// Quadrant returns the allowed-router mask for traffic from terminal
	// src to terminal dst: the topology-specific region guaranteed to
	// contain every minimum path (Section 4.3 of the paper).
	Quadrant(src, dst int) []bool
	// MinHops returns the number of routers traversed on a minimum path
	// from terminal src to terminal dst.
	MinHops(src, dst int) int
	// Position returns router r's relative placement in abstract grid
	// units; the floorplanner turns these into exact coordinates.
	Position(r int) (x, y float64)
	// TerminalPosition returns the relative placement of the core block
	// attached to terminal t.
	TerminalPosition(t int) (x, y float64)
}

// GridLike is implemented by mesh and torus topologies; dimension-ordered
// (XY) routing consults the grid shape.
type GridLike interface {
	GridDims() (rows, cols int)
}

// CubeLike is implemented by hypercubes; dimension-ordered routing fixes
// address bits from least to most significant.
type CubeLike interface {
	Dim() int
}

// ClosLike is implemented by Clos networks; oblivious routing picks a
// middle switch deterministically from the terminal pair.
type ClosLike interface {
	Params() (m, n, r int)
}

// FlyLike is implemented by butterflies; the adversarial traffic generator
// scales its group size with the radix.
type FlyLike interface {
	Radix() int
	Stages() int
}

// base carries the state shared by all concrete topologies.
type base struct {
	name         string
	kind         Kind
	numTerminals int
	links        []Link
	rg           *graph.Digraph
	inject       []int
	eject        []int
	pos          [][2]float64
	tpos         [][2]float64
	inDeg        []int
	outDeg       []int

	// minHops memoizes the all-pairs terminal min-hop table. MinHops sits
	// inside the mapper's greedy placement (O(terminals² · cores) lookups
	// per Map call) and topology validation; running a BFS per query made
	// it the dominant setup cost. The table is built once per topology on
	// first use — one BFS per distinct inject router — and topologies are
	// shared across engine workers, hence the sync.Once guard.
	minHopsOnce sync.Once
	minHops     []int // src*numTerminals+dst -> routers traversed (-1 unreachable)

	// The structural digest (Digest) and the routing tables
	// (SharedTables) are derived the same way: once per object, on first
	// use, and read-only afterwards.
	digestOnce sync.Once
	digest     [sha256.Size]byte
	tablesOnce sync.Once
	tables     *RouteTables
}

func newBase(name string, kind Kind, numRouters, numTerminals int) *base {
	return &base{
		name:         name,
		kind:         kind,
		numTerminals: numTerminals,
		rg:           graph.NewDigraph(numRouters),
		inject:       make([]int, numTerminals),
		eject:        make([]int, numTerminals),
		pos:          make([][2]float64, numRouters),
		tpos:         make([][2]float64, numTerminals),
		inDeg:        make([]int, numRouters),
		outDeg:       make([]int, numRouters),
	}
}

// maxTerminals bounds every library family. Construction and the
// terminal-pair min-hop table (terminals² entries) grow with it, so an
// oversized name must fail before anything is allocated: one map request
// onto mesh-1000x1000 would otherwise exhaust memory and kill the process.
const maxTerminals = 4096

// checkSize returns the product of factors, one size of the named
// topology (what), or an error once the product would pass maxTerminals.
// Each factor is checked before it is multiplied in, so the product never
// overflows. Factors must be >= 1.
func checkSize(name, what string, factors ...int) (int, error) {
	n := 1
	for _, f := range factors {
		if f > maxTerminals/n {
			return 0, fmt.Errorf("topology: %s is too large (more than %d %s)", name, maxTerminals, what)
		}
		n *= f
	}
	return n, nil
}

// addLink inserts one directed channel u->v.
func (b *base) addLink(u, v int) {
	id := len(b.links)
	b.links = append(b.links, Link{ID: id, From: u, To: v})
	b.rg.AddArc(u, v, id)
	b.outDeg[u]++
	b.inDeg[v]++
}

// addBiLink inserts channels in both directions.
func (b *base) addBiLink(u, v int) {
	b.addLink(u, v)
	b.addLink(v, u)
}

func (b *base) Name() string          { return b.name }
func (b *base) Kind() Kind            { return b.kind }
func (b *base) NumTerminals() int     { return b.numTerminals }
func (b *base) NumRouters() int       { return b.rg.NumVertices() }
func (b *base) Links() []Link         { return b.links }
func (b *base) Graph() *graph.Digraph { return b.rg }

func (b *base) InjectRouter(t int) int { return b.inject[t] }
func (b *base) EjectRouter(t int) int  { return b.eject[t] }

func (b *base) RouterDegree(r int) (in, out int) { return b.inDeg[r], b.outDeg[r] }

func (b *base) Position(r int) (x, y float64)         { return b.pos[r][0], b.pos[r][1] }
func (b *base) TerminalPosition(t int) (x, y float64) { return b.tpos[t][0], b.tpos[t][1] }

// MinHops counts routers on a shortest path: the router-graph hop distance
// between the inject and eject routers, plus one for the first router. This
// yields dist+1 for direct topologies, the stage count for butterflies and
// 3 for Clos networks, matching Section 6.1's accounting. Answers come from
// a lazily built all-pairs table, so after the first call per topology a
// lookup is O(1) and allocation-free.
func (b *base) MinHops(src, dst int) int {
	b.minHopsOnce.Do(b.buildMinHops)
	return b.minHops[src*b.numTerminals+dst]
}

// buildMinHops fills the terminal-pair table with one BFS per distinct
// inject router.
func (b *base) buildMinHops() {
	t := b.numTerminals
	table := make([]int, t*t)
	distFrom := make(map[int][]int) // inject router -> hop distances
	for s := 0; s < t; s++ {
		r := b.inject[s]
		d, ok := distFrom[r]
		if !ok {
			d = b.rg.BFSDistances(r, false)
			distFrom[r] = d
		}
		for e := 0; e < t; e++ {
			hd := d[b.eject[e]]
			if hd < 0 {
				table[s*t+e] = -1
			} else {
				table[s*t+e] = hd + 1
			}
		}
	}
	b.minHops = table
}

// allRouters returns a mask admitting every router; small topologies use it
// as their quadrant.
func (b *base) allRouters() []bool {
	m := make([]bool, b.NumRouters())
	for i := range m {
		m[i] = true
	}
	return m
}

// PhysicalLinks counts physical channels: bidirectional pairs collapse to
// one (mesh-style links), one-way channels (butterfly/clos stages) count
// individually. Fig. 6(b)'s resource-utilization chart uses this count
// plus one network-interface link per mapped core. It equals
// len(Channels(t)) without building the groups: a link opens a channel
// when no lower-ID link joins the same router pair.
func PhysicalLinks(t Topology) int {
	g := t.Graph()
	n := 0
	for _, l := range t.Links() {
		if !linkedBefore(g, l.From, l.To, l.ID) && !linkedBefore(g, l.To, l.From, l.ID) {
			n++
		}
	}
	return n
}

// linkedBefore reports whether g has an arc u->v with an ID below id.
func linkedBefore(g *graph.Digraph, u, v, id int) bool {
	for _, a := range g.Out(u) {
		if a.To == v && a.ID < id {
			return true
		}
	}
	return false
}

// Channels groups the directed links into physical channels: every link
// between one unordered router pair belongs to the same channel, so a
// bidirectional mesh connection is one channel of two directed links
// while a one-way butterfly or Clos stage link is a channel of its own.
// A physical fault takes out a whole channel — the fault subsystem's
// link-failure elements are exactly these groups. Channel order is
// deterministic: channels appear in order of their first (lowest-ID)
// member link, and each group lists its link IDs in increasing order.
func Channels(t Topology) [][]int {
	idx := make(map[[2]int]int)
	var chans [][]int
	for _, l := range t.Links() {
		a, b := l.From, l.To
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		ci, ok := idx[key]
		if !ok {
			ci = len(chans)
			idx[key] = ci
			chans = append(chans, nil)
		}
		chans[ci] = append(chans[ci], l.ID)
	}
	return chans
}

// Validate checks structural invariants shared by all topologies.
// NewCustom runs it on every custom topology it builds; tests run it on
// the library families.
func Validate(t Topology) error {
	if t.NumTerminals() <= 0 {
		return fmt.Errorf("topology %s: no terminals", t.Name())
	}
	if t.NumRouters() <= 0 {
		return fmt.Errorf("topology %s: no routers", t.Name())
	}
	for i, l := range t.Links() {
		if l.ID != i {
			return fmt.Errorf("topology %s: link %d has ID %d", t.Name(), i, l.ID)
		}
		if l.From < 0 || l.From >= t.NumRouters() || l.To < 0 || l.To >= t.NumRouters() {
			return fmt.Errorf("topology %s: link %d endpoints out of range", t.Name(), i)
		}
		if l.From == l.To {
			return fmt.Errorf("topology %s: link %d is a self-loop", t.Name(), i)
		}
	}
	for term := 0; term < t.NumTerminals(); term++ {
		if r := t.InjectRouter(term); r < 0 || r >= t.NumRouters() {
			return fmt.Errorf("topology %s: terminal %d inject router %d out of range", t.Name(), term, r)
		}
		if r := t.EjectRouter(term); r < 0 || r >= t.NumRouters() {
			return fmt.Errorf("topology %s: terminal %d eject router %d out of range", t.Name(), term, r)
		}
	}
	// Every terminal pair must be connected and the quadrant must preserve
	// the minimum-hop distance (the defining property of Section 4.3).
	for s := 0; s < t.NumTerminals(); s++ {
		for d := 0; d < t.NumTerminals(); d++ {
			if s == d {
				continue
			}
			mh := t.MinHops(s, d)
			if mh < 0 {
				return fmt.Errorf("topology %s: terminals %d->%d disconnected", t.Name(), s, d)
			}
			q := t.Quadrant(s, d)
			if len(q) != t.NumRouters() {
				return fmt.Errorf("topology %s: quadrant mask has length %d, want %d",
					t.Name(), len(q), t.NumRouters())
			}
			qd := t.Graph().HopDistance(t.InjectRouter(s), t.EjectRouter(d), q)
			if qd < 0 {
				return fmt.Errorf("topology %s: quadrant %d->%d disconnects endpoints", t.Name(), s, d)
			}
			if qd+1 != mh {
				return fmt.Errorf("topology %s: quadrant %d->%d inflates hops: %d vs %d",
					t.Name(), s, d, qd+1, mh)
			}
		}
	}
	return nil
}
